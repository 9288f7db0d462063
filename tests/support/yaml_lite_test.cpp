#include "support/yaml_lite.hpp"

#include <gtest/gtest.h>

#include <string>

namespace riscmp::yaml {
namespace {

TEST(YamlLite, FlatMapping) {
  const Node root = parse("a: 1\nb: hello\nc: 2.5\n");
  EXPECT_TRUE(root.isMapping());
  EXPECT_EQ(root.at("a").asInt(), 1);
  EXPECT_EQ(root.at("b").asString(), "hello");
  EXPECT_DOUBLE_EQ(root.at("c").asDouble(), 2.5);
}

TEST(YamlLite, NestedMapping) {
  const Node root = parse(
      "core:\n"
      "  rob_size: 128\n"
      "  widths:\n"
      "    fetch: 4\n"
      "    commit: 4\n");
  EXPECT_EQ(root.at("core").at("rob_size").asInt(), 128);
  EXPECT_EQ(root.at("core").at("widths").at("commit").asInt(), 4);
}

TEST(YamlLite, BlockSequenceOfScalars) {
  const Node root = parse("sizes:\n  - 4\n  - 16\n  - 64\n");
  const Node& sizes = root.at("sizes");
  ASSERT_TRUE(sizes.isSequence());
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes.elements()[2].asInt(), 64);
}

TEST(YamlLite, BlockSequenceOfMappings) {
  const Node root = parse(
      "ports:\n"
      "  - name: p0\n"
      "    groups: [INT_SIMPLE, INT_MUL]\n"
      "  - name: p1\n"
      "    groups: [LOAD]\n");
  const Node& ports = root.at("ports");
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports.elements()[0].at("name").asString(), "p0");
  ASSERT_TRUE(ports.elements()[0].at("groups").isSequence());
  EXPECT_EQ(ports.elements()[0].at("groups").elements()[1].asString(),
            "INT_MUL");
  EXPECT_EQ(ports.elements()[1].at("name").asString(), "p1");
}

TEST(YamlLite, FlowSequence) {
  const Node root = parse("xs: [1, 2, 3]\nempty: []\n");
  EXPECT_EQ(root.at("xs").size(), 3u);
  EXPECT_EQ(root.at("empty").size(), 0u);
}

TEST(YamlLite, CommentsAndBlanks) {
  const Node root = parse(
      "# header comment\n"
      "\n"
      "a: 1  # trailing\n"
      "b: \"text # not a comment\"\n");
  EXPECT_EQ(root.at("a").asInt(), 1);
  EXPECT_EQ(root.at("b").asString(), "text # not a comment");
}

TEST(YamlLite, QuotedStrings) {
  const Node root = parse("a: 'single'\nb: \"double\"\n");
  EXPECT_EQ(root.at("a").asString(), "single");
  EXPECT_EQ(root.at("b").asString(), "double");
}

TEST(YamlLite, Booleans) {
  const Node root = parse("t: true\nf: off\n");
  EXPECT_TRUE(root.at("t").asBool());
  EXPECT_FALSE(root.at("f").asBool());
}

TEST(YamlLite, HexIntegers) {
  const Node root = parse("addr: 0x10000\n");
  EXPECT_EQ(root.at("addr").asInt(), 0x10000);
}

TEST(YamlLite, Fallbacks) {
  const Node root = parse("present: 7\n");
  EXPECT_EQ(root.getInt("present", 0), 7);
  EXPECT_EQ(root.getInt("absent", 42), 42);
  EXPECT_EQ(root.getString("absent", "x"), "x");
}

TEST(YamlLite, ErrorsCarryLineNumbers) {
  try {
    parse("a: 1\n\tb: 2\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(YamlLite, DuplicateKeyRejected) {
  EXPECT_THROW(parse("a: 1\na: 2\n"), std::runtime_error);
}

TEST(YamlLite, BadScalarConversions) {
  const Node root = parse("s: hello\n");
  EXPECT_THROW(static_cast<void>(root.at("s").asInt()), ConfigError);
  EXPECT_THROW(static_cast<void>(root.at("s").asDouble()), ConfigError);
  EXPECT_THROW(static_cast<void>(root.at("s").asBool()), ConfigError);
  try {
    static_cast<void>(root.at("missing"));
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key(), "missing");
  }
}

/// `levels` mappings, each nested one space deeper than its parent.
std::string nestedMappings(int levels) {
  std::string text;
  for (int i = 0; i < levels - 1; ++i) text += std::string(i, ' ') + "k:\n";
  return text + std::string(levels - 1, ' ') + "leaf: 1\n";
}

TEST(YamlLite, DeepNestingIsRejectedNotACrash) {
  EXPECT_EQ(parse(nestedMappings(128)).size(), 1u);
  try {
    parse(nestedMappings(129));
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 129);
  }
  EXPECT_THROW(parse(nestedMappings(2000)), ParseError);
}

TEST(YamlLite, KeyOrderPreserved) {
  const Node root = parse("z: 1\na: 2\nm: 3\n");
  const auto& items = root.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, "z");
  EXPECT_EQ(items[1].first, "a");
  EXPECT_EQ(items[2].first, "m");
}

}  // namespace
}  // namespace riscmp::yaml
