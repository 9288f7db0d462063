// Minimal JSON document model for the engine's durable records (ISSUE 6).
//
// The run journal (JSONL, one object per line) and the process-isolation
// pipe protocol both need structured records that round-trip exactly and
// parse without external dependencies — the same vendored-nothing stance
// yaml_lite takes for configs. The surface is deliberately narrow:
//   values   null / bool / unsigned 64-bit integers / string / array /
//            object (insertion-ordered, so emitted bytes are deterministic)
//   numbers  non-negative integers only. Every numeric field in the
//            journal schema is a count, an index, a bit pattern, or a
//            digest; doubles are carried as their IEEE-754 bit patterns
//            (see engine/cell_codec) so re-serialization is byte-exact.
// parse() rejects anything outside that subset, and any document nested
// more than 128 arrays/objects deep, with a ConfigError carrying the byte
// offset, and never throws on the hot path (journal loaders probe
// with tryParse to tolerate a torn final line after a crash).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace riscmp::support {

class JsonValue {
 public:
  enum class Kind : std::uint8_t { Null, Bool, Uint, String, Array, Object };

  JsonValue() : kind_(Kind::Null) {}
  explicit JsonValue(bool value) : kind_(Kind::Bool), boolean_(value) {}
  explicit JsonValue(std::uint64_t value) : kind_(Kind::Uint), uint_(value) {}
  explicit JsonValue(std::string value)
      : kind_(Kind::String), string_(std::move(value)) {}
  explicit JsonValue(const char* value)
      : kind_(Kind::String), string_(value) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == Kind::Null; }

  /// Typed accessors; wrong-kind access throws ConfigError (decoders treat
  /// that as a corrupt record, not a crash).
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] std::uint64_t asUint() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;

  /// Array building.
  void push(JsonValue value);

  /// Object building; set() preserves first-insertion order for
  /// deterministic emission.
  void set(const std::string& key, JsonValue value);
  /// Object field lookup: null-kind reference when absent.
  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;

  /// Compact single-line emission (no trailing newline). Objects emit in
  /// insertion order, so identical documents yield identical bytes.
  [[nodiscard]] std::string dump() const;

  /// Strict parse of one document; throws ConfigError (with byte offset in
  /// the message) on any syntax error or unsupported construct.
  static JsonValue parse(const std::string& text);
  /// Non-throwing probe used by the journal loader on possibly-torn lines.
  static std::optional<JsonValue> tryParse(const std::string& text);

 private:
  friend struct JsonMembers;  ///< lets the parser skip set()'s key scan

  /// dump()'s recursion: appends this value to `out`, so a whole document
  /// is written into one buffer.
  void dumpTo(std::string& out) const;

  Kind kind_;
  bool boolean_ = false;
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// JSON string escaping (shared with hand-rolled writers like the E11
/// report): escapes quotes, backslashes, and control bytes.
std::string jsonEscape(const std::string& text);

}  // namespace riscmp::support
