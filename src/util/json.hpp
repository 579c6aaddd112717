// Minimal JSON support for the campaign subsystem: a dynamically-typed
// value, a recursive-descent parser with line-accurate errors, and a writer.
//
// This intentionally covers only what a campaign spec and a result row
// need — no comments, no NaN/Inf literals, UTF-8 passed through opaquely.
// Object keys keep insertion order so reports are stable and diffable.
// Numbers are stored as double plus the original text, which lets integral
// values round-trip without a float detour and lets result rows carry
// %.17g doubles bit-exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace smpi::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  // Number with an exact textual form (e.g. "%.17g"-printed, or an integer).
  static JsonValue number_text(std::string text);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; throw ContractError on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  long long as_int() const;  // requires an integral number
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;                         // array
  const std::vector<std::pair<std::string, JsonValue>>& members() const;  // object

  // Object lookup: nullptr when absent (or when this is not an object).
  const JsonValue* find(const std::string& key) const;
  // Object lookup that throws with `context` in the message when absent.
  const JsonValue& at(const std::string& key, const std::string& context) const;

  // Mutation (builder style).
  JsonValue& append(JsonValue v);                     // array
  JsonValue& set(const std::string& key, JsonValue v);  // object (insert or replace)

  // Serialization. `indent` < 0 emits the compact single-line form.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string text_;  // string payload, or the exact numeric literal
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses a complete JSON document (trailing garbage is an error). Throws
// ContractError with "<where>:line:col: message" on malformed input.
JsonValue parse_json(const std::string& text, const std::string& where = "json");
JsonValue parse_json_file(const std::string& path);

}  // namespace smpi::util
