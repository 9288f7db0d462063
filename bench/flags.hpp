// The command-line flag reader shared by every bench binary.
//
// A binary builds one Flags over argv and reads each flag where it uses
// the value; the read is the flag's only declaration. After the last read,
// finish() rejects every "--" argument that no read named, so a typo such
// as --sacle=0.1 is a usage error instead of a silent run of the default
// experiment.
//
// Spellings: a value flag is "--name=VALUE" (a bare "--name" is unknown),
// a switch is a bare "--name" ("--name=VALUE" is a usage error), and
// textOrBare() accepts both. The first occurrence of a flag wins, and
// arguments that do not start with "--" are ignored.
//
// Numbers go through one checked std::from_chars into the flag's own
// type: a sign on an integer, a value outside the type's range, or
// trailing text is "invalid value for --name: 'TEXT'", never a wrapped or
// truncated count. Every usage error prints one "error: ..." line on
// stderr and exits 2.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace riscmp::bench {

/// Print "error: <message>" on stderr and exit 2, the benches' usage and
/// transport error path.
[[noreturn]] inline void exitWithError(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// "--name=VALUE": the first VALUE, or nullopt when the flag is absent.
  std::optional<std::string> text(std::string_view name) {
    declare(std::string(name) + "=");
    const std::optional<std::string_view> rest = find(name);
    if (!rest || rest->empty()) return std::nullopt;
    return std::string(rest->substr(1));
  }

  /// "--name" gives `bare`, "--name=VALUE" gives VALUE; nullopt when
  /// absent.
  std::optional<std::string> textOrBare(std::string_view name,
                                        const std::string& bare) {
    declare(name);
    declare(std::string(name) + "=");
    const std::optional<std::string_view> rest = find(name);
    if (!rest) return std::nullopt;
    return rest->empty() ? bare : std::string(rest->substr(1));
  }

  /// "--name=PATH", empty when absent. An empty PATH would silently turn
  /// off what the flag asks for, so it is a usage error.
  std::string path(std::string_view name) {
    const std::optional<std::string> value = text(name);
    if (value && value->empty()) {
      exitWithError("--" + std::string(name) + " needs a file path");
    }
    return value.value_or("");
  }

  /// The bare switch "--name".
  bool isSet(std::string_view name) {
    declare(name);
    const std::optional<std::string_view> rest = find(name);
    if (rest && !rest->empty()) {
      exitWithError("--" + std::string(name) + " takes no value");
    }
    return rest.has_value();
  }

  /// "--name=N" as a T, or `fallback` when absent. A number that `valid`
  /// rejects is the usage error "--name must be <requirement>";
  /// floating-point values also echo the text as given.
  template <typename T>
  T number(std::string_view name, T fallback,
           bool (*valid)(std::type_identity_t<T>) = nullptr,
           std::string_view requirement = {}) {
    const std::optional<std::string> value = text(name);
    if (!value) return fallback;
    T parsed{};
    const char* const end = value->data() + value->size();
    const auto [stop, error] = std::from_chars(value->data(), end, parsed);
    const bool signedInteger = std::is_integral_v<T> && value->starts_with('-');
    if (signedInteger || error != std::errc() || stop != end) {
      exitWithError("invalid value for --" + std::string(name) + ": '" +
                    *value + "'");
    }
    if (valid && !valid(parsed)) {
      std::string message =
          "--" + std::string(name) + " must be " + std::string(requirement);
      if constexpr (std::is_floating_point_v<T>) {
        message += ", got '" + *value + "'";
      }
      exitWithError(message);
    }
    return parsed;
  }

  /// The unknown-flag audit: call once, after every read, on every path.
  void finish() const {
    for (const std::string_view arg : args_) {
      if (!arg.starts_with("--")) continue;
      bool known = false;
      for (const std::string& flag : declared_) {
        known |= flag.ends_with('=') ? arg.starts_with(flag) : arg == flag;
      }
      if (!known) exitWithError("unknown flag '" + std::string(arg) + "'");
    }
  }

 private:
  /// Accept "--<spelling>" in finish(); a spelling ending in '=' accepts
  /// any value after it.
  void declare(std::string_view spelling) {
    declared_.push_back("--" + std::string(spelling));
  }

  /// The first argument spelled "--name" or "--name=...": what follows
  /// "--name" in it ("" or "=VALUE"), or nullopt when there is none.
  std::optional<std::string_view> find(std::string_view name) const {
    for (std::string_view arg : args_) {
      if (!arg.starts_with("--")) continue;
      arg.remove_prefix(2);
      if (arg.starts_with(name) &&
          (arg.size() == name.size() || arg[name.size()] == '=')) {
        return arg.substr(name.size());
      }
    }
    return std::nullopt;
  }

  std::vector<std::string_view> args_;
  std::vector<std::string> declared_;
};

}  // namespace riscmp::bench
