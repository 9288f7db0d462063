// Seeded differential test of json_lite against a reference copy of its
// first implementation: the recursive dump that concatenated one temporary
// string per nesting level and formatted integers with std::to_string, and
// the parser as first written. Any faster writer or parser must keep every
// byte, every error text and every error offset of these.
//
//   - Random documents of every kind (control bytes, quotes, backslashes,
//     bytes above 0x7f, 0 and UINT64_MAX, duplicate keys, nesting at 127,
//     128 and 129 levels) must dump to identical bytes.
//   - Seeded byte mutations of real documents (a result-store file and a
//     daemon grid reply, both produced by simulating cells) must parse to
//     an identical value or fail with an identical ConfigError text.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/grid_spec.hpp"
#include "engine/service.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"

namespace riscmp::support {
namespace {

// ---- The reference -------------------------------------------------------
// RefValue mirrors JsonValue's layout; its dump() and RefParser are the
// first implementation, kept byte for byte apart from the type names.

struct RefValue {
  using Kind = JsonValue::Kind;
  Kind kind = Kind::Null;
  bool boolean = false;
  std::uint64_t uint = 0;
  std::string string;
  std::vector<RefValue> array;
  std::vector<std::pair<std::string, RefValue>> members;

  static RefValue of(Kind kind) {
    RefValue v;
    v.kind = kind;
    return v;
  }

  void set(const std::string& key, RefValue value) {
    for (auto& [name, existing] : members) {
      if (name == key) {
        existing = std::move(value);
        return;
      }
    }
    members.emplace_back(key, std::move(value));
  }

  [[nodiscard]] std::string dump() const;
};

std::string refEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string RefValue::dump() const {
  switch (kind) {
    case Kind::Null:
      return "null";
    case Kind::Bool:
      return boolean ? "true" : "false";
    case Kind::Uint:
      return std::to_string(uint);
    case Kind::String:
      return "\"" + refEscape(string) + "\"";
    case Kind::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i != 0) out += ",";
        out += array[i].dump();
      }
      return out + "]";
    }
    case Kind::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i != 0) out += ",";
        out += "\"" + refEscape(members[i].first) +
               "\":" + members[i].second.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

constexpr std::size_t kRefMaxNesting = 128;

class RefParser {
 public:
  explicit RefParser(const std::string& text) : text_(text) {}

  RefValue parseDocument() {
    RefValue value = parseValue();
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

  RefValue parseValue() {
    skipSpace();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (++depth_ > kRefMaxNesting) {
        fail("nesting deeper than " + std::to_string(kRefMaxNesting) +
             " levels");
      }
      RefValue out = c == '{' ? parseObject() : parseArray();
      --depth_;
      return out;
    }
    if (c == '"') {
      RefValue out = RefValue::of(RefValue::Kind::String);
      out.string = parseString();
      return out;
    }
    if (c >= '0' && c <= '9') return parseNumber();
    if (consume("true")) {
      RefValue out = RefValue::of(RefValue::Kind::Bool);
      out.boolean = true;
      return out;
    }
    if (consume("false")) return RefValue::of(RefValue::Kind::Bool);
    if (consume("null")) return RefValue();
    fail("unsupported value (only objects, arrays, strings, booleans, null, "
         "and non-negative integers)");
  }

  RefValue parseNumber() {
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
    RefValue out = RefValue::of(RefValue::Kind::Uint);
    out.uint = value;
    return out;
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
          if (code > 0xFF) fail("\\u escape outside the emitted subset");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unsupported escape");
      }
    }
  }

  RefValue parseArray() {
    expect('[');
    RefValue out = RefValue::of(RefValue::Kind::Array);
    skipSpace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.array.push_back(parseValue());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  RefValue parseObject() {
    expect('{');
    RefValue out = RefValue::of(RefValue::Kind::Object);
    skipSpace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skipSpace();
      std::string key = parseString();
      skipSpace();
      expect(':');
      out.set(key, parseValue());
      skipSpace();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// The same document through JsonValue's public building API.
JsonValue toJson(const RefValue& ref) {
  switch (ref.kind) {
    case RefValue::Kind::Null:
      return JsonValue();
    case RefValue::Kind::Bool:
      return JsonValue(ref.boolean);
    case RefValue::Kind::Uint:
      return JsonValue(ref.uint);
    case RefValue::Kind::String:
      return JsonValue(ref.string);
    case RefValue::Kind::Array: {
      JsonValue out = JsonValue::array();
      for (const RefValue& item : ref.array) out.push(toJson(item));
      return out;
    }
    case RefValue::Kind::Object: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, value] : ref.members) out.set(key, toJson(value));
      return out;
    }
  }
  return JsonValue();
}

// ---- Random documents ----------------------------------------------------

class DocGenerator {
 public:
  explicit DocGenerator(std::uint64_t seed) : rng_(seed) {}

  RefValue value(int depth) {
    const int kinds = depth >= 6 ? 4 : 6;  // leaves only when deep
    switch (pick(kinds)) {
      case 0:
        return RefValue();
      case 1: {
        RefValue out = RefValue::of(RefValue::Kind::Bool);
        out.boolean = pick(2) == 0;
        return out;
      }
      case 2: {
        RefValue out = RefValue::of(RefValue::Kind::Uint);
        out.uint = number();
        return out;
      }
      case 3: {
        RefValue out = RefValue::of(RefValue::Kind::String);
        out.string = text();
        return out;
      }
      case 4: {
        RefValue out = RefValue::of(RefValue::Kind::Array);
        const int n = pick(6);
        for (int i = 0; i < n; ++i) out.array.push_back(value(depth + 1));
        return out;
      }
      default: {
        RefValue out = RefValue::of(RefValue::Kind::Object);
        const int n = pick(6);
        // Keys from a small pool so duplicates (set() overwrites) occur.
        for (int i = 0; i < n; ++i) {
          out.set(pick(4) == 0 ? text() : "k" + std::to_string(pick(4)),
                  value(depth + 1));
        }
        return out;
      }
    }
  }

  /// `levels` arrays/objects nested inside each other around one leaf.
  RefValue nested(std::size_t levels) {
    RefValue out = value(6);
    for (std::size_t i = 0; i < levels; ++i) {
      RefValue outer;
      if (pick(2) == 0) {
        outer = RefValue::of(RefValue::Kind::Array);
        outer.array.push_back(std::move(out));
      } else {
        outer = RefValue::of(RefValue::Kind::Object);
        outer.set(text(), std::move(out));
      }
      out = std::move(outer);
    }
    return out;
  }

  std::string text() {
    static const std::string kSpecial = "\"\\/\n\r\t\b\f\x01\x1f\x7f\x80\xff u{}[],:0";
    std::string out;
    const int n = pick(12);
    for (int i = 0; i < n; ++i) {
      out.push_back(pick(2) == 0
                        ? kSpecial[static_cast<std::size_t>(
                              pick(static_cast<int>(kSpecial.size())))]
                        : static_cast<char>(pick(256)));
    }
    return out;
  }

  std::uint64_t number() {
    switch (pick(5)) {
      case 0:
        return 0;
      case 1:
        return UINT64_MAX;
      case 2:
        return static_cast<std::uint64_t>(pick(1000));
      default:
        return rng_() >> pick(64);
    }
  }

  int pick(int n) {
    return static_cast<int>(rng_() % static_cast<std::uint64_t>(n));
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

// ---- Comparison ----------------------------------------------------------

/// What parsing `text` produced: the dumped value or the error text.
struct Outcome {
  bool ok = false;
  std::string bytes;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& outcome, std::ostream* out) {
  *out << (outcome.ok ? "value " : "error ") << outcome.bytes;
}

Outcome referenceParse(const std::string& text) {
  try {
    return {true, RefParser(text).parseDocument().dump()};
  } catch (const ConfigError& error) {
    return {false, error.what()};
  }
}

Outcome currentParse(const std::string& text) {
  try {
    return {true, JsonValue::parse(text).dump()};
  } catch (const ConfigError& error) {
    return {false, error.what()};
  }
}

TEST(JsonLiteDifferential, DumpMatchesReferenceOnRandomDocuments) {
  DocGenerator gen(0x5eed0001);
  for (int i = 0; i < 3000; ++i) {
    const RefValue ref = gen.value(0);
    const std::string expected = ref.dump();
    ASSERT_EQ(toJson(ref).dump(), expected) << "document " << i;
    // Every emitted document parses back to itself, in both parsers.
    ASSERT_EQ(currentParse(expected), (Outcome{true, expected}))
        << "document " << i;
    ASSERT_EQ(referenceParse(expected), currentParse(expected));
  }
}

TEST(JsonLiteDifferential, ScalarEdgeCasesMatchReference) {
  for (const std::uint64_t n :
       {std::uint64_t{0}, std::uint64_t{9}, std::uint64_t{10},
        std::uint64_t{UINT32_MAX}, UINT64_MAX - 1, UINT64_MAX}) {
    EXPECT_EQ(JsonValue(n).dump(), std::to_string(n));
  }
  std::string everyByte;
  for (int c = 0; c < 256; ++c) everyByte.push_back(static_cast<char>(c));
  RefValue ref = RefValue::of(RefValue::Kind::String);
  ref.string = everyByte;
  EXPECT_EQ(JsonValue(everyByte).dump(), ref.dump());
  EXPECT_EQ(jsonEscape(everyByte), refEscape(everyByte));
  EXPECT_EQ(JsonValue(std::string()).dump(), "\"\"");
  EXPECT_EQ(JsonValue::array().dump(), "[]");
  EXPECT_EQ(JsonValue::object().dump(), "{}");
}

TEST(JsonLiteDifferential, NestingAroundTheCapMatchesReference) {
  DocGenerator gen(0x5eed0002);
  for (const std::size_t levels : {127u, 128u, 129u}) {
    for (int i = 0; i < 20; ++i) {
      const RefValue ref = gen.nested(levels);
      const std::string expected = ref.dump();
      ASSERT_EQ(toJson(ref).dump(), expected) << levels << " levels";
      const Outcome parsed = currentParse(expected);
      EXPECT_EQ(parsed.ok, levels <= 128) << levels << " levels";
      EXPECT_EQ(parsed, referenceParse(expected)) << levels << " levels";
    }
  }
}

// ---- Mutations of real documents -----------------------------------------

/// A result-store file and a grid reply, both from simulated cells.
std::vector<std::string> realDocuments() {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("riscmp-json-diff-" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::remove_all(root);

  engine::ServiceOptions options;
  options.jobs = 1;
  options.storeRoot = root.string();
  engine::SimService service(options);
  engine::GridSpec spec;
  spec.scale = 0.02;
  spec.workloads = {"STREAM"};
  spec.configs = {{Arch::Rv64, kgen::CompilerEra::Gcc12},
                  {Arch::AArch64, kgen::CompilerEra::Gcc12}};
  spec.analyses = engine::kPathLength | engine::kCriticalPath |
                  engine::kWindowedCP | engine::kDepDistance;
  JsonValue request = JsonValue::object();
  request.set("type", JsonValue("grid"));
  request.set("spec", engine::gridSpecToJson(spec));

  std::vector<std::string> docs = {service.handleLine(request.dump())};
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    docs.push_back(bytes.str());
    break;  // one store file is enough
  }
  std::filesystem::remove_all(root);
  return docs;
}

std::string mutate(std::string text, DocGenerator& gen) {
  static const std::string kStructural = "\"\\{}[],: 0123456789untrfal/\n";
  const int edits = 1 + gen.pick(3);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at =
        text.empty() ? 0
                     : static_cast<std::size_t>(gen.rng()() % text.size());
    const char byte = gen.pick(2) == 0
                          ? kStructural[static_cast<std::size_t>(gen.pick(
                                static_cast<int>(kStructural.size())))]
                          : static_cast<char>(gen.pick(256));
    switch (gen.pick(5)) {
      case 0:  // overwrite
        if (!text.empty()) text[at] = byte;
        break;
      case 1:  // insert
        text.insert(at, 1, byte);
        break;
      case 2:  // delete
        if (!text.empty()) text.erase(at, 1);
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      default:  // duplicate a short span
        text.insert(at, text.substr(at, 1 + static_cast<std::size_t>(
                                                gen.pick(16))));
    }
  }
  return text;
}

TEST(JsonLiteDifferential, MutatedRealDocumentsParseLikeReference) {
  const std::vector<std::string> docs = realDocuments();
  ASSERT_EQ(docs.size(), 2u) << "no store file was written";
  for (const std::string& doc : docs) {
    ASSERT_TRUE(currentParse(doc).ok);
    ASSERT_EQ(currentParse(doc), referenceParse(doc));
  }

  DocGenerator gen(0x5eed0003);
  constexpr int kMutationsPerDocument = 6000;
  int rejected = 0;
  for (const std::string& doc : docs) {
    for (int i = 0; i < kMutationsPerDocument; ++i) {
      const std::string mutated = mutate(doc, gen);
      const Outcome current = currentParse(mutated);
      ASSERT_EQ(current, referenceParse(mutated))
          << "mutation " << i << " of a " << doc.size() << "-byte document";
      rejected += current.ok ? 0 : 1;
    }
  }
  // Both outcomes occur, so neither side of the comparison is vacuous.
  EXPECT_GT(rejected, kMutationsPerDocument / 4);
  EXPECT_LT(rejected, 2 * kMutationsPerDocument);
}

}  // namespace
}  // namespace riscmp::support
