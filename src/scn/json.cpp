#include "scn/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/assert.h"

namespace dg::scn::json {

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::boolean;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double d) {
  Value v;
  v.kind_ = Kind::number;
  v.num_ = d;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::string;
  v.str_ = std::move(s);
  return v;
}

Value Value::make_array() {
  Value v;
  v.kind_ = Kind::array;
  return v;
}

Value Value::make_object() {
  Value v;
  v.kind_ = Kind::object;
  return v;
}

const char* Value::kind_name() const noexcept {
  switch (kind_) {
    case Kind::null: return "null";
    case Kind::boolean: return "boolean";
    case Kind::number: return "number";
    case Kind::string: return "string";
    case Kind::array: return "array";
    case Kind::object: return "object";
  }
  return "?";
}

bool Value::as_bool() const {
  DG_EXPECTS(kind_ == Kind::boolean);
  return bool_;
}

double Value::as_number() const {
  DG_EXPECTS(kind_ == Kind::number);
  return num_;
}

const std::string& Value::as_string() const {
  DG_EXPECTS(kind_ == Kind::string);
  return str_;
}

const std::vector<Value>& Value::items() const {
  DG_EXPECTS(kind_ == Kind::array);
  return arr_;
}

std::vector<Value>& Value::items() {
  DG_EXPECTS(kind_ == Kind::array);
  return arr_;
}

const std::vector<Value::Member>& Value::members() const {
  DG_EXPECTS(kind_ == Kind::object);
  return obj_;
}

std::vector<Value::Member>& Value::members() {
  DG_EXPECTS(kind_ == Kind::object);
  return obj_;
}

const Value* Value::find(const std::string& key) const {
  DG_EXPECTS(kind_ == Kind::object);
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Value::find(const std::string& key) {
  DG_EXPECTS(kind_ == Kind::object);
  for (auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Value::set_path(const std::string& dotted_path, Value v) {
  if (kind_ != Kind::object) return false;
  const auto dot = dotted_path.find('.');
  const std::string head = dotted_path.substr(0, dot);
  if (dot == std::string::npos) {
    if (Value* existing = find(head)) {
      *existing = std::move(v);
    } else {
      obj_.emplace_back(head, std::move(v));
    }
    return true;
  }
  Value* child = find(head);
  if (child == nullptr) {
    obj_.emplace_back(head, make_object());
    child = &obj_.back().second;
  }
  return child->set_path(dotted_path.substr(dot + 1), std::move(v));
}

void Value::remove(const std::string& key) {
  DG_EXPECTS(kind_ == Kind::object);
  for (auto it = obj_.begin(); it != obj_.end(); ++it) {
    if (it->first == key) {
      obj_.erase(it);
      return;
    }
  }
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ParseError run(Value& out) {
    skip_ws();
    if (!parse_value(out)) return error_;
    skip_ws();
    if (pos_ < text_.size()) {
      fail("unexpected content after the JSON document");
    }
    return error_;
  }

 private:
  bool fail(const std::string& message) {
    if (error_.ok()) {
      error_ = ParseError{line_, col_, message};
    }
    return false;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        advance();
      } else {
        break;
      }
    }
  }

  bool expect(char c, const char* what) {
    if (peek() != c) {
      return fail(std::string("expected ") + what + " but found " +
                  describe_next());
    }
    advance();
    return true;
  }

  std::string describe_next() const {
    if (pos_ >= text_.size()) return "end of input";
    const char c = text_[pos_];
    if (static_cast<unsigned char>(c) < 0x20) return "a control character";
    return std::string("'") + c + "'";
  }

  bool parse_value(Value& out) {
    const std::size_t line = line_, col = col_;
    bool ok = false;
    switch (peek()) {
      case '{':
      case '[':
        if (depth_ == kMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kMaxDepth) +
                      " levels");
        }
        ++depth_;
        ok = peek() == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        break;
      case '"': {
        std::string s;
        ok = parse_string(s);
        if (ok) out = Value::make_string(std::move(s));
        break;
      }
      case 't':
      case 'f': ok = parse_keyword(out); break;
      case 'n': ok = parse_keyword(out); break;
      default: ok = parse_number(out); break;
    }
    if (ok) out.set_pos(line, col);
    return ok;
  }

  bool parse_keyword(Value& out) {
    static const struct {
      const char* text;
      int kind;  // 0 null, 1 true, 2 false
    } kKeywords[] = {{"null", 0}, {"true", 1}, {"false", 2}};
    for (const auto& kw : kKeywords) {
      const std::string word = kw.text;
      if (text_.compare(pos_, word.size(), word) == 0) {
        for (std::size_t i = 0; i < word.size(); ++i) advance();
        out = kw.kind == 0 ? Value{} : Value::make_bool(kw.kind == 1);
        return true;
      }
    }
    return fail("expected a JSON value but found " + describe_next());
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') advance();
    while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    if (peek() == '.') {
      advance();
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') advance();
      while (std::isdigit(static_cast<unsigned char>(peek()))) advance();
    }
    const std::string lexeme = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(lexeme.c_str(), &end);
    if (lexeme.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(v)) {
      return fail("expected a JSON value but found " + describe_next());
    }
    out = Value::make_number(v);
    return true;
  }

  bool parse_string(std::string& out) {
    if (!expect('"', "'\"'")) return false;
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = advance();
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char e = advance();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (pos_ >= text_.size()) return fail("unterminated \\u escape");
              const char h = advance();
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("invalid \\u escape digit");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed by campaign files; lone surrogates encode as-is).
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
          default:
            return fail(std::string("invalid escape '\\") + e + "'");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character inside string");
      } else {
        out += c;
      }
    }
  }

  bool parse_array(Value& out) {
    if (!expect('[', "'['")) return false;
    out = Value::make_array();
    skip_ws();
    if (peek() == ']') {
      advance();
      return true;
    }
    while (true) {
      Value item;
      skip_ws();
      if (!parse_value(item)) return false;
      out.items().push_back(std::move(item));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      return expect(']', "',' or ']'");
    }
  }

  bool parse_object(Value& out) {
    if (!expect('{', "'{'")) return false;
    out = Value::make_object();
    skip_ws();
    if (peek() == '}') {
      advance();
      return true;
    }
    while (true) {
      skip_ws();
      const std::size_t key_line = line_, key_col = col_;
      std::string key;
      if (!parse_string(key)) return false;
      for (const auto& [k, v] : out.members()) {
        if (k == key) {
          line_ = key_line;
          col_ = key_col;
          return fail("duplicate object key '" + key + "'");
        }
      }
      skip_ws();
      if (!expect(':', "':' after object key")) return false;
      skip_ws();
      Value item;
      if (!parse_value(item)) return false;
      out.members().emplace_back(std::move(key), std::move(item));
      skip_ws();
      if (peek() == ',') {
        advance();
        continue;
      }
      return expect('}', "',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
  std::size_t depth_ = 0;  ///< open arrays/objects around the cursor
  ParseError error_;
};

}  // namespace

ParseError parse(const std::string& text, Value& out) {
  return Parser(text).run(out);
}

std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) &&
      std::abs(v) < 9.2e18) {  // fits in int64
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  // Shortest round-trip precision: try 15, 16, then 17 significant digits.
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace dg::scn::json
