#include "support/json_lite.hpp"

#include <charconv>
#include <unordered_map>

#include "support/fault.hpp"

namespace riscmp::support {

namespace {

[[noreturn]] void badAccess(const char* want, JsonValue::Kind got) {
  throw ConfigError(std::string("json: expected ") + want +
                    ", found kind #" +
                    std::to_string(static_cast<unsigned>(got)));
}

}  // namespace

bool JsonValue::asBool() const {
  if (kind_ != Kind::Bool) badAccess("bool", kind_);
  return boolean_;
}

std::uint64_t JsonValue::asUint() const {
  if (kind_ != Kind::Uint) badAccess("number", kind_);
  return uint_;
}

const std::string& JsonValue::asString() const {
  if (kind_ != Kind::String) badAccess("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) badAccess("array", kind_);
  return array_;
}

void JsonValue::push(JsonValue value) {
  if (kind_ != Kind::Array) badAccess("array", kind_);
  array_.push_back(std::move(value));
}

void JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ != Kind::Object) badAccess("object", kind_);
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue& JsonValue::at(const std::string& key) const {
  if (kind_ != Kind::Object) badAccess("object", kind_);
  for (const auto& [name, value] : members_) {
    if (name == key) return value;
  }
  static const JsonValue kNull;
  return kNull;
}

bool JsonValue::has(const std::string& key) const {
  return !at(key).isNull();
}

namespace {

/// Append `text` escaped: each run of plain bytes in one call, and each
/// quote, backslash or control byte as its two- or six-byte escape.
void appendEscaped(std::string& out, const std::string& text) {
  const char* run = text.data();
  const char* const end = run + text.size();
  for (const char* p = run; p != end; ++p) {
    const char c = *p;
    if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
      continue;
    }
    out.append(run, p);
    run = p + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const auto byte = static_cast<unsigned char>(c);
        const char escape[6] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                                kHex[byte & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(run, end);
}

}  // namespace

std::string jsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  appendEscaped(out, text);
  return out;
}

std::string JsonValue::dump() const {
  std::string out;
  dumpTo(out);
  return out;
}

void JsonValue::dumpTo(std::string& out) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      return;
    case Kind::Bool:
      out += boolean_ ? "true" : "false";
      return;
    case Kind::Uint: {
      char digits[20];  // UINT64_MAX has 20 decimal digits
      const std::to_chars_result end =
          std::to_chars(digits, digits + sizeof digits, uint_);
      out.append(digits, end.ptr);
      return;
    }
    case Kind::String:
      out.push_back('"');
      appendEscaped(out, string_);
      out.push_back('"');
      return;
    case Kind::Array:
      out.push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out.push_back(',');
        array_[i].dumpTo(out);
      }
      out.push_back(']');
      return;
    case Kind::Object:
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out.push_back(',');
        out.push_back('"');
        appendEscaped(out, members_[i].first);
        out += "\":";
        members_[i].second.dumpTo(out);
      }
      out.push_back('}');
      return;
  }
}

namespace {

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so without a bound a hostile document ("[[[[...") would
/// overflow the stack instead of failing as a ConfigError. Every document
/// the engine writes nests fewer than a dozen levels.
constexpr std::size_t kMaxNesting = 128;

/// Members an object may hold before the parser indexes its keys. Below
/// this, scanning the earlier keys costs less than building the index:
/// the widest object the engine writes, an encoded cell, has about 20.
constexpr std::size_t kIndexedMembers = 64;

}  // namespace

/// The parser's access to an object's member list.
struct JsonMembers {
  static auto& of(JsonValue& object) { return object.members_; }
};

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parseDocument() {
    JsonValue value = parseValue();
    skipSpace();
    if (pos_ != text_.size()) fail("trailing bytes after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ConfigError("json: " + why + " at byte " + std::to_string(pos_));
  }

  void skipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(const char* literal) {
    const std::size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parseValue() {
    skipSpace();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxNesting) {
        fail("nesting deeper than " + std::to_string(kMaxNesting) +
             " levels");
      }
      JsonValue out = c == '{' ? parseObject() : parseArray();
      --depth_;
      return out;
    }
    if (c == '"') return JsonValue(parseString());
    if (c >= '0' && c <= '9') return parseNumber();
    if (consume("true")) return JsonValue(true);
    if (consume("false")) return JsonValue(false);
    if (consume("null")) return JsonValue();
    fail("unsupported value (only objects, arrays, strings, booleans, null, "
         "and non-negative integers)");
  }

  JsonValue parseNumber() {
    std::uint64_t value = 0;
    bool any = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > (UINT64_MAX - digit) / 10) fail("integer overflow");
      value = value * 10 + digit;
      ++pos_;
      any = true;
    }
    if (!any) fail("malformed number");
    return JsonValue(value);
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // The emitter only produces \u00xx control escapes; reject the
          // rest rather than hand back mojibake.
          if (code > 0xFF) fail("\\u escape outside the emitted subset");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unsupported escape");
      }
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue out = JsonValue::array();
    skipSpace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push(parseValue());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue out = JsonValue::object();
    skipSpace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    std::unordered_map<std::string, std::size_t> index;
    for (;;) {
      skipSpace();
      std::string key = parseString();
      skipSpace();
      expect(':');
      if (JsonMembers::of(out).size() < kIndexedMembers) {
        out.set(key, parseValue());
      } else {
        setIndexed(out, index, std::move(key), parseValue());
      }
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  /// JsonValue::set for a large object without its scan of every earlier
  /// key, so an object parses in time linear in its key count: `index`
  /// maps each key to its member. A repeated key still overwrites its
  /// first occurrence in place.
  static void setIndexed(JsonValue& object,
                         std::unordered_map<std::string, std::size_t>& index,
                         std::string key, JsonValue value) {
    auto& members = JsonMembers::of(object);
    if (index.empty()) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        index.emplace(members[i].first, i);
      }
    }
    const auto [slot, added] = index.try_emplace(key, members.size());
    if (!added) {
      members[slot->second].second = std::move(value);
      return;
    }
    members.emplace_back(std::move(key), std::move(value));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parseDocument();
}

std::optional<JsonValue> JsonValue::tryParse(const std::string& text) {
  try {
    return parse(text);
  } catch (const ConfigError&) {
    return std::nullopt;
  }
}

}  // namespace riscmp::support
