// A minimal JSON reader for the CLI's own artifacts (bench reports,
// committed baselines): strict recursive descent over the full grammar,
// no dependencies, no streaming.  Plus the one string escaper every JSON
// writer in the repository uses, so what they write this reads back.
//
// Numbers keep their raw token text.  The bench comparator's quantities
// are exact uint64 T/W counts, and routing them through a double would
// silently lose precision past 2^53 -- as_u64() reparses the token
// exactly and throws on anything fractional, signed, or out of range;
// as_double() is there for the ratios.  Object member order is
// preserved (vector of pairs, not a map) so diagnostics can echo the
// document as written.
//
// parse() throws nsc::Error with a line:column position on malformed
// input, and on arrays or objects nested deeper than kMaxDepth; it never
// aborts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nsc::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;  ///< decoded string contents, or the raw number token
  std::vector<Value> items;  ///< Array elements
  std::vector<std::pair<std::string, Value>> members;  ///< Object, in order

  bool is(Kind k) const { return kind == k; }

  /// Object member lookup; null when absent or not an object.
  const Value* find(const std::string& key) const;
  /// find() that throws Error("json: missing key '...'") instead.
  const Value& at(const std::string& key) const;

  /// Exact unsigned integer; throws on non-numbers, fractions, signs,
  /// exponents, and overflow.
  std::uint64_t as_u64() const;
  double as_double() const;  ///< throws on non-numbers
  const std::string& as_string() const;  ///< throws on non-strings
  bool as_bool() const;  ///< throws on non-booleans
};

/// Deepest array/object nesting parse() accepts.  The parser recurses once
/// per level, so without a bound a run of '[' overflows the stack; the
/// repository's own documents nest fewer than ten levels.
constexpr std::size_t kMaxDepth = 256;

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
Value parse(const std::string& text);

/// The body of a JSON string literal for `s` (no surrounding quotes):
/// quote and backslash escaped, \n and \t by name, every other byte below
/// 0x20 as \u00xx, all other bytes unchanged.  parse() of '"' + escape(s)
/// + '"' yields s.
std::string escape(const std::string& s);

}  // namespace nsc::json
