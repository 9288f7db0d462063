#include "support/yaml_lite.hpp"

#include <cctype>
#include <charconv>

#include "support/read_file.hpp"

namespace riscmp::yaml {
namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

/// Strip an unquoted trailing comment, respecting single/double quotes.
std::string stripComment(std::string_view s) {
  bool inSingle = false;
  bool inDouble = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '\'' && !inDouble) inSingle = !inSingle;
    if (c == '"' && !inSingle) inDouble = !inDouble;
    if (c == '#' && !inSingle && !inDouble &&
        (i == 0 || std::isspace(static_cast<unsigned char>(s[i - 1])))) {
      return std::string(s.substr(0, i));
    }
  }
  return std::string(s);
}

std::string unquote(const std::string& s) {
  if (s.size() >= 2 && ((s.front() == '"' && s.back() == '"') ||
                        (s.front() == '\'' && s.back() == '\''))) {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

struct Line {
  int number;
  int indent;
  std::string content;  // trimmed, comment-free
};

std::vector<Line> splitLines(std::string_view text) {
  std::vector<Line> out;
  int number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view raw = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    ++number;
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;

    int indent = 0;
    while (static_cast<std::size_t>(indent) < raw.size() &&
           raw[indent] == ' ') {
      ++indent;
    }
    if (static_cast<std::size_t>(indent) < raw.size() && raw[indent] == '\t') {
      throw ParseError("tab indentation is not supported", number);
    }
    std::string content = trim(stripComment(raw));
    if (content.empty() || content == "---") continue;
    out.push_back({number, indent, std::move(content)});
  }
  return out;
}

/// Parse a flow sequence "[a, b, c]" of scalars.
Node parseFlowSequence(const std::string& s, int lineNo) {
  Node node;
  node.setKind(Node::Kind::Sequence);
  node.setLine(lineNo);
  std::string inner = trim(std::string_view(s).substr(1, s.size() - 2));
  if (inner.empty()) return node;
  std::size_t start = 0;
  bool inSingle = false;
  bool inDouble = false;
  for (std::size_t i = 0; i <= inner.size(); ++i) {
    if (i < inner.size()) {
      const char c = inner[i];
      if (c == '\'' && !inDouble) inSingle = !inSingle;
      if (c == '"' && !inSingle) inDouble = !inDouble;
      if (c != ',' || inSingle || inDouble) continue;
    }
    std::string item = trim(std::string_view(inner).substr(start, i - start));
    if (item.empty()) throw ParseError("empty flow-sequence element", lineNo);
    node.append(Node(unquote(item), lineNo));
    start = i + 1;
  }
  return node;
}

Node parseScalarOrFlow(const std::string& s, int lineNo) {
  if (s.size() >= 2 && s.front() == '[' && s.back() == ']') {
    return parseFlowSequence(s, lineNo);
  }
  if (!s.empty() && s.front() == '{') {
    throw ParseError("flow mappings are not supported", lineNo);
  }
  return Node(unquote(s), lineNo);
}

/// Deepest block nesting parse() accepts. The parser recurses once per
/// level, so the bound keeps a hostile file from overflowing the stack;
/// core-model configs nest three or four levels.
constexpr int kMaxNesting = 128;

class Parser {
 public:
  explicit Parser(std::vector<Line> lines) : lines_(std::move(lines)) {}

  Node parseDocument() {
    if (lines_.empty()) return Node{};
    Node root = parseBlock(lines_[0].indent);
    if (pos_ != lines_.size()) {
      throw ParseError("unexpected dedent/content after document",
                       lines_[pos_].number);
    }
    return root;
  }

 private:
  /// Parse a block (mapping or sequence) whose entries sit at `indent`.
  Node parseBlock(int indent) {
    const Line& first = lines_[pos_];
    if (++depth_ > kMaxNesting) {
      throw ParseError("nesting deeper than " + std::to_string(kMaxNesting) +
                           " levels",
                       first.number);
    }
    Node node = first.content.rfind("- ", 0) == 0 || first.content == "-"
                    ? parseSequence(indent)
                    : parseMapping(indent);
    --depth_;
    return node;
  }

  Node parseMapping(int indent) {
    Node node;
    node.setKind(Node::Kind::Mapping);
    node.setLine(lines_[pos_].number);
    while (pos_ < lines_.size() && lines_[pos_].indent == indent) {
      const Line line = lines_[pos_];
      if (line.content.rfind("- ", 0) == 0 || line.content == "-") {
        throw ParseError("sequence item in mapping block", line.number);
      }
      const std::size_t colon = findKeyColon(line.content, line.number);
      std::string key = unquote(trim(line.content.substr(0, colon)));
      std::string rest = trim(line.content.substr(colon + 1));
      ++pos_;
      if (!rest.empty()) {
        node.insert(std::move(key), parseScalarOrFlow(rest, line.number));
      } else if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
        node.insert(std::move(key), parseBlock(lines_[pos_].indent));
      } else {
        node.insert(std::move(key),
                    Node(std::string{}, line.number));  // empty value
      }
      if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
        throw ParseError("unexpected indentation", lines_[pos_].number);
      }
    }
    return node;
  }

  Node parseSequence(int indent) {
    Node node;
    node.setKind(Node::Kind::Sequence);
    node.setLine(lines_[pos_].number);
    while (pos_ < lines_.size() && lines_[pos_].indent == indent &&
           (lines_[pos_].content.rfind("- ", 0) == 0 ||
            lines_[pos_].content == "-")) {
      const Line line = lines_[pos_];
      std::string rest =
          line.content == "-" ? std::string{} : trim(line.content.substr(2));
      if (rest.empty()) {
        ++pos_;
        if (pos_ < lines_.size() && lines_[pos_].indent > indent) {
          node.append(parseBlock(lines_[pos_].indent));
        } else {
          node.append(Node(std::string{}, line.number));
        }
        continue;
      }
      // "- key: value" starts an inline mapping whose further keys are
      // indented to the position just after "- ".
      const std::size_t colon = findKeyColonOrNpos(rest);
      if (colon != std::string::npos) {
        // Rewrite this line as a mapping entry at indent+2 and re-parse.
        lines_[pos_] = {line.number, indent + 2, rest};
        node.append(parseMapping(indent + 2));
      } else {
        ++pos_;
        node.append(parseScalarOrFlow(rest, line.number));
      }
    }
    return node;
  }

  static std::size_t findKeyColonOrNpos(const std::string& s) {
    bool inSingle = false;
    bool inDouble = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '\'' && !inDouble) inSingle = !inSingle;
      if (c == '"' && !inSingle) inDouble = !inDouble;
      if (c == ':' && !inSingle && !inDouble &&
          (i + 1 == s.size() || s[i + 1] == ' ')) {
        return i;
      }
      if (c == '[' && !inSingle && !inDouble) return std::string::npos;
    }
    return std::string::npos;
  }

  static std::size_t findKeyColon(const std::string& s, int lineNo) {
    const std::size_t colon = findKeyColonOrNpos(s);
    if (colon == std::string::npos) {
      throw ParseError("expected 'key: value'", lineNo);
    }
    return colon;
  }

  std::vector<Line> lines_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const std::string& Node::asString() const {
  if (!isScalar()) {
    throw ConfigError("expected a scalar value", /*file=*/{}, line_);
  }
  return scalar_;
}

std::int64_t Node::asInt() const {
  const std::string& s = asString();
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    begin += 2;
    base = 16;
  }
  auto [ptr, ec] = std::from_chars(begin, end, value, base);
  if (ec == std::errc::result_out_of_range) {
    throw ConfigError("'" + s + "' overflows a 64-bit integer", {}, line_);
  }
  if (ec != std::errc{} || ptr != end) {
    throw ConfigError("'" + s + "' is not an integer", {}, line_);
  }
  return value;
}

std::uint64_t Node::asUint() const {
  const std::int64_t v = asInt();
  if (v < 0) {
    throw ConfigError(
        "'" + asString() + "' is negative where an unsigned value is required",
        {}, line_);
  }
  return static_cast<std::uint64_t>(v);
}

double Node::asDouble() const {
  const std::string& s = asString();
  // Deliberately no catch-all here: every std::stod failure mode is mapped
  // to a precise ConfigError naming the value and its source line.
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &consumed);
  } catch (const std::out_of_range&) {
    throw ConfigError("'" + s + "' is out of range for a double", {}, line_);
  } catch (const std::invalid_argument&) {
    throw ConfigError("'" + s + "' is not a number", {}, line_);
  }
  if (consumed != s.size()) {
    throw ConfigError("'" + s + "' has trailing characters after the number",
                      {}, line_);
  }
  return v;
}

bool Node::asBool() const {
  const std::string& s = asString();
  if (s == "true" || s == "True" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "False" || s == "no" || s == "off") return false;
  throw ConfigError("'" + s + "' is not a boolean", {}, line_);
}

bool Node::has(std::string_view key) const {
  for (const auto& [k, v] : map_) {
    if (k == key) return true;
  }
  return false;
}

const Node& Node::at(std::string_view key) const {
  for (const auto& [k, v] : map_) {
    if (k == key) return v;
  }
  throw ConfigError("missing required key", {}, line_, std::string(key));
}

std::int64_t Node::getInt(std::string_view key, std::int64_t fallback) const {
  return has(key) ? at(key).asInt() : fallback;
}

double Node::getDouble(std::string_view key, double fallback) const {
  return has(key) ? at(key).asDouble() : fallback;
}

std::string Node::getString(std::string_view key, std::string fallback) const {
  return has(key) ? at(key).asString() : fallback;
}

std::size_t Node::size() const {
  switch (kind_) {
    case Kind::Scalar:
      return scalar_.size();
    case Kind::Sequence:
      return seq_.size();
    case Kind::Mapping:
      return map_.size();
  }
  return 0;
}

void Node::insert(std::string key, Node node) {
  for (auto& [k, v] : map_) {
    if (k == key) {
      throw ConfigError("duplicate key", {}, node.line(), key);
    }
  }
  map_.emplace_back(std::move(key), std::move(node));
}

Node parse(std::string_view text) {
  Parser parser(splitLines(text));
  return parser.parseDocument();
}

Node parseFile(const std::string& path) {
  bool opened = false;
  const std::string text = support::readWholeFile(path, &opened);
  if (!opened) throw ConfigError("cannot open file", path);
  try {
    return parse(text);
  } catch (const ConfigError& e) {
    throw e.withFile(path);
  }
}

}  // namespace riscmp::yaml
