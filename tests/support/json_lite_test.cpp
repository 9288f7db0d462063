// JsonValue: the journal/pipe document model (ISSUE 6).
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "support/fault.hpp"
#include "support/json_lite.hpp"

namespace riscmp::support {
namespace {

TEST(JsonLite, RoundTripsNestedDocument) {
  JsonValue cell = JsonValue::object();
  cell.set("name", JsonValue("STREAM/GCC 9.2 AArch64"));
  cell.set("ok", JsonValue(true));
  cell.set("instructions", JsonValue(std::uint64_t{123456789}));
  JsonValue groups = JsonValue::array();
  groups.push(JsonValue(std::uint64_t{1}));
  groups.push(JsonValue(std::uint64_t{0}));
  cell.set("groups", groups);
  cell.set("fault", JsonValue());  // null

  const std::string bytes = cell.dump();
  EXPECT_EQ(bytes,
            "{\"name\":\"STREAM/GCC 9.2 AArch64\",\"ok\":true,"
            "\"instructions\":123456789,\"groups\":[1,0],\"fault\":null}");

  const JsonValue parsed = JsonValue::parse(bytes);
  EXPECT_EQ(parsed.dump(), bytes);  // byte-exact re-serialization
  EXPECT_EQ(parsed.at("instructions").asUint(), 123456789u);
  EXPECT_TRUE(parsed.at("ok").asBool());
  EXPECT_TRUE(parsed.at("fault").isNull());
  EXPECT_FALSE(parsed.has("missing"));
  EXPECT_TRUE(parsed.at("missing").isNull());
}

TEST(JsonLite, ObjectsEmitInInsertionOrder) {
  JsonValue a = JsonValue::object();
  a.set("z", JsonValue(std::uint64_t{1}));
  a.set("a", JsonValue(std::uint64_t{2}));
  EXPECT_EQ(a.dump(), "{\"z\":1,\"a\":2}");
}

TEST(JsonLite, EscapesControlAndQuoteBytes) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  const JsonValue v = JsonValue::parse("\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_EQ(v.asString(), std::string("a\"b\\c\nd\te\x01"));
}

// The simd protocol ships arbitrary fault text (file paths, YAML excerpts,
// compiler diagnostics) inside JSON strings; every byte below must survive
// dump -> parse unchanged or daemon-rendered reports would diverge from
// local ones.
TEST(JsonLite, EscapingRoundTripsHostileStrings) {
  const std::string cases[] = {
      std::string("quote\" backslash\\ slash/ both\\\""),
      std::string("tab\t newline\n return\r"),
      std::string("backspace\b formfeed\f"),
      std::string("nul\0byte", 8),
      std::string("\x01\x02\x03\x1e\x1f control run"),
      std::string("C:\\temp\\store\\v3\\ab\\cd.json"),
      std::string("line1\nline2\n  indented \"quoted\"\n"),
      std::string("caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97 \xf0\x9f\x94\xa5"),
      std::string(),  // empty string
  };
  for (const std::string& text : cases) {
    const JsonValue v(text);
    const std::string bytes = v.dump();
    EXPECT_EQ(JsonValue::parse(bytes).asString(), text)
        << "round-trip failed for dump: " << bytes;
    // Re-serialization is also a fixed point (store/digest stability).
    EXPECT_EQ(JsonValue::parse(bytes).dump(), bytes);
  }
}

TEST(JsonLite, EscapedStringsNestInsideDocuments) {
  JsonValue doc = JsonValue::object();
  doc.set("summary", JsonValue("fault: \"STREAM\"\n\tat line\\col 3"));
  JsonValue list = JsonValue::array();
  list.push(JsonValue(std::string("\x1b[31mred\x1b[0m")));
  doc.set("notes", list);
  const JsonValue back = JsonValue::parse(doc.dump());
  EXPECT_EQ(back.at("summary").asString(),
            "fault: \"STREAM\"\n\tat line\\col 3");
  EXPECT_EQ(back.at("notes").items()[0].asString(),
            std::string("\x1b[31mred\x1b[0m"));
}

TEST(JsonLite, MaxUint64RoundTrips) {
  JsonValue v(std::uint64_t{18446744073709551615ull});
  EXPECT_EQ(v.dump(), "18446744073709551615");
  EXPECT_EQ(JsonValue::parse(v.dump()).asUint(), 18446744073709551615ull);
}

TEST(JsonLite, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), ConfigError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1"), ConfigError);   // unterminated
  EXPECT_THROW(JsonValue::parse("{\"a\":1} x"), ConfigError);  // trailing
  EXPECT_THROW(JsonValue::parse("-1"), ConfigError);  // negative numbers
  EXPECT_THROW(JsonValue::parse("1.5"), ConfigError);  // no decimals
  EXPECT_THROW(JsonValue::parse("{'a':1}"), ConfigError);
}

TEST(JsonLite, TryParseProbesTornLinesWithoutThrowing) {
  EXPECT_FALSE(JsonValue::tryParse("{\"type\":\"cell\",\"na").has_value());
  const auto whole = JsonValue::tryParse("{\"type\":\"end\",\"cells\":20}");
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->at("cells").asUint(), 20u);
}

// The parser recurses per nesting level; a hostile client line of a million
// '[' must come back as a rejected document, not a stack overflow.
TEST(JsonLite, DeepNestingIsRejectedNotACrash) {
  const std::size_t deep = 1'000'000;
  EXPECT_FALSE(JsonValue::tryParse(std::string(deep, '[')).has_value());
  const std::string balanced = std::string(deep, '[') + std::string(deep, ']');
  EXPECT_FALSE(JsonValue::tryParse(balanced).has_value());
  EXPECT_THROW(JsonValue::parse(balanced), ConfigError);

  // The limit is 128 levels: the deepest accepted document round-trips.
  const std::string limit = std::string(128, '[') + std::string(128, ']');
  EXPECT_EQ(JsonValue::parse(limit).dump(), limit);
  const std::string over = std::string(129, '[') + std::string(129, ']');
  EXPECT_THROW(JsonValue::parse(over), ConfigError);
  const std::string objects = [] {
    std::string text;
    for (int i = 0; i < 129; ++i) text += "{\"a\":";
    return text + "1" + std::string(129, '}');
  }();
  EXPECT_THROW(JsonValue::parse(objects), ConfigError);
}

// A repeated key overwrites its first occurrence in place, in small
// objects and in large ones alike, exactly as set() builds them.
TEST(JsonLite, RepeatedKeysParseAsSetBuildsThem) {
  for (const std::size_t keys : {3u, 63u, 64u, 65u, 130u}) {
    std::string text = "{";
    JsonValue expected = JsonValue::object();
    for (std::size_t i = 0; i < keys; ++i) {
      const std::string key = "k" + std::to_string(i % (keys - 1));
      text += (i == 0 ? "\"" : ",\"") + key + "\":" + std::to_string(i);
      expected.set(key, JsonValue(std::uint64_t{i}));
    }
    text += ",\"k0\":99}";
    expected.set("k0", JsonValue(std::uint64_t{99}));
    const JsonValue parsed = JsonValue::parse(text);
    EXPECT_EQ(parsed.dump(), expected.dump()) << keys << " keys";
    EXPECT_EQ(parsed.at("k0").asUint(), 99u);
  }
}

// Parsing is linear in an object's key count: 100,000 distinct keys take
// well under a second (a scan of every earlier key per member needs about
// five billion string compares).
TEST(JsonLite, ObjectWithManyKeysParsesInLinearTime) {
  constexpr std::uint64_t kKeys = 100000;
  std::string text = "{";
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    text += (i == 0 ? "\"key" : ",\"key") + std::to_string(i) +
            "\":" + std::to_string(i);
  }
  text += "}";
  const auto start = std::chrono::steady_clock::now();
  const JsonValue parsed = JsonValue::parse(text);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(parsed.at("key0").asUint(), 0u);
  EXPECT_EQ(parsed.at("key99999").asUint(), 99999u);
  EXPECT_EQ(parsed.dump(), text);
}

TEST(JsonLite, WrongKindAccessThrowsConfigError) {
  const JsonValue v = JsonValue::parse("{\"n\":7}");
  EXPECT_THROW((void)v.at("n").asString(), ConfigError);
  EXPECT_THROW((void)v.at("n").asBool(), ConfigError);
  EXPECT_THROW((void)v.items(), ConfigError);
}

}  // namespace
}  // namespace riscmp::support
