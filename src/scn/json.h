// Minimal JSON document model + strict parser for the scenario subsystem.
//
// The repo already *writes* JSON (bench_support.h's JsonReport); campaign
// files are the first thing it has to *read*.  The parser is strict RFC
// 8259 JSON (no comments, no trailing commas) and every parsed Value
// remembers its source line/column, so schema errors can point at the
// offending token ("campaigns/smoke.json:12:7: scenarios[0].topology:
// unknown key 'sides'").  Objects preserve member order and keep duplicate
// keys illegal -- both matter for schema validation and for deterministic
// re-serialization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dg::scn::json {

class Value {
 public:
  enum class Kind { null, boolean, number, string, array, object };
  using Member = std::pair<std::string, Value>;

  Value() = default;

  static Value make_bool(bool b);
  static Value make_number(double v);
  static Value make_string(std::string s);
  static Value make_array();
  static Value make_object();

  Kind kind() const noexcept { return kind_; }
  bool is_object() const noexcept { return kind_ == Kind::object; }
  bool is_array() const noexcept { return kind_ == Kind::array; }
  bool is_string() const noexcept { return kind_ == Kind::string; }
  bool is_number() const noexcept { return kind_ == Kind::number; }
  bool is_bool() const noexcept { return kind_ == Kind::boolean; }

  /// Human-readable kind name ("object", "number", ...) for error messages.
  const char* kind_name() const noexcept;

  // Accessors contract-check the kind (schema validation always checks
  // kind first and reports its own error).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;
  std::vector<Value>& items();
  const std::vector<Member>& members() const;
  std::vector<Member>& members();

  /// Member lookup (objects only); nullptr when absent.
  const Value* find(const std::string& key) const;
  Value* find(const std::string& key);

  /// Sets (replacing) the member at a dotted path like "topology.k",
  /// creating intermediate objects as needed.  Used by the campaign
  /// matrix expansion to apply axis patches.  Fails (returns false) when
  /// a path step exists but is not an object.
  bool set_path(const std::string& dotted_path, Value v);

  /// Removes a direct member; no-op when absent.
  void remove(const std::string& key);

  /// 1-based source position of the value's first token (0 when the value
  /// was built programmatically).
  std::size_t line() const noexcept { return line_; }
  std::size_t col() const noexcept { return col_; }
  void set_pos(std::size_t line, std::size_t col) {
    line_ = line;
    col_ = col;
  }

 private:
  Kind kind_ = Kind::null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<Member> obj_;
  std::size_t line_ = 0;
  std::size_t col_ = 0;
};

/// Parse failure: 1-based position plus a message.  ok() when message is
/// empty (the convention every scn error type follows).
struct ParseError {
  std::size_t line = 0;
  std::size_t col = 0;
  std::string message;
  bool ok() const noexcept { return message.empty(); }
};

/// Deepest array/object nesting parse() accepts.  The parser (and Value's
/// destructor) recurse once per level, so a cap keeps hostile input such
/// as 200 000 '[' a positioned parse error instead of a stack overflow.
inline constexpr std::size_t kMaxDepth = 256;

/// Parses `text` as one JSON document (trailing whitespace allowed,
/// anything else after the document is an error; so is nesting deeper
/// than kMaxDepth).
ParseError parse(const std::string& text, Value& out);

/// Canonical number formatting shared by every scn JSON emitter: integers
/// (within int64 range) print bare, other finite doubles print with the
/// shortest round-trip precision.  Deterministic for a given double, which
/// is what makes counter files byte-comparable.
std::string format_number(double v);

/// JSON string escaping (mirrors bench_support.h's rules).
std::string escape(const std::string& s);

}  // namespace dg::scn::json
