// Minimal JSON for the serve protocol (newline-delimited JSON jobs in,
// result lines out).
//
// The daemon cannot take a third-party JSON dependency (the toolchain
// image is frozen), and the protocol needs only the scalar subset:
// objects, arrays, strings, doubles, bools, null. The parser is a
// strict recursive-descent over one line, nesting at most 64 levels
// deep (deeper input is a JsonError, not a stack overflow); the
// writer escapes strings per RFC 8259 and prints doubles with %.17g
// so a value survives a parse→print round trip BIT-EXACT — the
// session determinism suite compares result lines as strings, which
// only works because the energy doubles are printed losslessly.
#ifndef SCT_SERVE_JSON_H
#define SCT_SERVE_JSON_H

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sct::serve {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value. Objects keep insertion order irrelevant
/// (std::map) — the protocol addresses fields by name only.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  static JsonValue makeBool(bool b);
  static JsonValue makeNumber(double d);
  static JsonValue makeString(std::string s);
  static JsonValue makeArray();
  static JsonValue makeObject();

  Kind kind() const { return kind_; }
  bool isObject() const { return kind_ == Kind::Object; }
  bool isString() const { return kind_ == Kind::String; }
  bool isNumber() const { return kind_ == Kind::Number; }

  bool asBool() const;
  double asNumber() const;
  const std::string& asString() const;
  const std::vector<JsonValue>& asArray() const;
  const std::map<std::string, JsonValue>& asObject() const;

  /// Object field access; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  std::vector<JsonValue>& mutableArray();
  std::map<std::string, JsonValue>& mutableObject();

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parse one complete JSON document; trailing non-whitespace or any
/// syntax error throws JsonError with an offset-bearing message.
JsonValue parseJson(std::string_view text);

/// Append `text` JSON-escaped (quotes included) to `out`.
void appendJsonString(std::string& out, std::string_view text);

/// Append a double formatted with %.17g — lossless for any finite
/// value; non-finite values (which valid sessions never produce)
/// degrade to null.
void appendJsonNumber(std::string& out, double value);

} // namespace sct::serve

#endif // SCT_SERVE_JSON_H
