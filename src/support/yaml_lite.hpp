// A deliberately small YAML-subset parser for microarchitecture model files.
//
// SimEng describes core models (latencies, port layouts, structure sizes) in
// YAML; we support the subset those files need:
//
//   * indentation-nested mappings (`key: value` / `key:` + indented block)
//   * block sequences (`- item`, where item is a scalar or a mapping)
//   * flow sequences of scalars (`[a, b, c]`)
//   * scalars: integers, floats, booleans, strings (optionally quoted)
//   * `#` comments and blank lines
//
// Anchors, aliases, multi-document streams, flow mappings, and blocks
// nested more than 128 levels deep are out of scope and rejected with a
// ParseError carrying the offending line number.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "support/fault.hpp"

namespace riscmp::yaml {

/// Structural YAML error. A ConfigError so it carries file/line provenance
/// and participates in the Fault taxonomy; the historical (message, line)
/// constructor is kept for the parser.
class ParseError : public ConfigError {
 public:
  ParseError(const std::string& message, int line)
      : ConfigError(message, /*file=*/{}, line) {}
};

/// A parsed YAML node: scalar, sequence, or mapping. Mappings preserve key
/// insertion order (port lists in core configs are order-sensitive).
class Node {
 public:
  enum class Kind { Scalar, Sequence, Mapping };

  Node() : kind_(Kind::Mapping) {}
  explicit Node(std::string scalar, int line = 0)
      : kind_(Kind::Scalar), scalar_(std::move(scalar)), line_(line) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  /// Source line this node came from (0 for synthesized nodes). Carried so
  /// scalar-conversion errors can name the offending line.
  [[nodiscard]] int line() const { return line_; }
  void setLine(int line) { line_ = line; }
  [[nodiscard]] bool isScalar() const { return kind_ == Kind::Scalar; }
  [[nodiscard]] bool isSequence() const { return kind_ == Kind::Sequence; }
  [[nodiscard]] bool isMapping() const { return kind_ == Kind::Mapping; }

  // -- Scalar accessors. Conversion failures throw riscmp::ConfigError
  //    carrying this node's source line.
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] std::uint64_t asUint() const;
  [[nodiscard]] double asDouble() const;
  [[nodiscard]] bool asBool() const;

  // -- Mapping access.
  [[nodiscard]] bool has(std::string_view key) const;
  /// Throws riscmp::ConfigError when the key is missing.
  [[nodiscard]] const Node& at(std::string_view key) const;
  /// Returns `fallback` when the key is missing.
  [[nodiscard]] std::int64_t getInt(std::string_view key,
                                    std::int64_t fallback) const;
  [[nodiscard]] double getDouble(std::string_view key, double fallback) const;
  [[nodiscard]] std::string getString(std::string_view key,
                                      std::string fallback) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Node>>& items() const {
    return map_;
  }

  // -- Sequence access.
  [[nodiscard]] const std::vector<Node>& elements() const { return seq_; }
  [[nodiscard]] std::size_t size() const;

  // -- Construction (used by the parser and by tests).
  void setKind(Kind kind) { kind_ = kind; }
  void append(Node node) { seq_.push_back(std::move(node)); }
  void insert(std::string key, Node node);

 private:
  Kind kind_;
  std::string scalar_;
  int line_ = 0;
  std::vector<Node> seq_;
  std::vector<std::pair<std::string, Node>> map_;
};

/// Parse a YAML document from text. Throws ParseError on malformed input.
Node parse(std::string_view text);

/// Parse the YAML file at `path`. Throws riscmp::ConfigError (naming the
/// file and line) if the file is unreadable or malformed.
Node parseFile(const std::string& path);

}  // namespace riscmp::yaml
