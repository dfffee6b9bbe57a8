#include "support/json.hpp"

#include <cstdlib>
#include <limits>

#include "support/error.hpp"

namespace nsc::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) err("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void err(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw Error("json: " + what + " at " + std::to_string(line) + ":" +
                std::to_string(col));
  }

  bool done() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!done()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (done() || peek() != c) {
      err(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n] != '\0') ++n;
    if (text_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  /// `depth` counts the arrays and objects that enclose this value.
  Value parse_value(std::size_t depth) {
    if (done()) err("unexpected end of input");
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxDepth) {
      err("nesting deeper than " + std::to_string(kMaxDepth));
    }
    if (c == '{') return parse_object(depth + 1);
    if (c == '[') return parse_array(depth + 1);
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::String;
      v.text = parse_string();
      return v;
    }
    if (c == 't' || c == 'f') {
      Value v;
      v.kind = Value::Kind::Bool;
      if (consume_word("true")) {
        v.boolean = true;
      } else if (consume_word("false")) {
        v.boolean = false;
      } else {
        err("bad literal");
      }
      return v;
    }
    if (c == 'n') {
      if (!consume_word("null")) err("bad literal");
      return Value{};
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    err("unexpected character");
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    skip_ws();
    if (!done() && peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (done()) err("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    skip_ws();
    if (!done() && peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      v.items.push_back(parse_value(depth));
      skip_ws();
      if (done()) err("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (done()) err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) err("control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (done()) err("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              err("bad \\u escape");
            }
          }
          // UTF-8 encode the code point (surrogate pairs are passed
          // through as two 3-byte sequences -- good enough for the
          // ASCII-dominated artifacts this reader consumes).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: err("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!done() && peek() == '-') ++pos_;
    if (done() || peek() < '0' || peek() > '9') err("bad number");
    while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    if (!done() && peek() == '.') {
      ++pos_;
      if (done() || peek() < '0' || peek() > '9') err("bad fraction");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!done() && (peek() == '+' || peek() == '-')) ++pos_;
      if (done() || peek() < '0' || peek() > '9') err("bad exponent");
      while (!done() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.text = text_.substr(start, pos_ - start);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw Error("json: missing key '" + key + "'");
  return *v;
}

std::uint64_t Value::as_u64() const {
  if (kind != Kind::Number) throw Error("json: expected a number");
  std::uint64_t out = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw Error("json: '" + text + "' is not an unsigned integer");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw Error("json: '" + text + "' overflows uint64");
    }
    out = out * 10 + digit;
  }
  return out;
}

double Value::as_double() const {
  if (kind != Kind::Number) throw Error("json: expected a number");
  return std::strtod(text.c_str(), nullptr);
}

const std::string& Value::as_string() const {
  if (kind != Kind::String) throw Error("json: expected a string");
  return text;
}

bool Value::as_bool() const {
  if (kind != Kind::Bool) throw Error("json: expected a boolean");
  return boolean;
}

Value parse(const std::string& text) {
  return Parser(text).parse_document();
}

std::string escape(const std::string& s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      out += "\\u00";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace nsc::json
