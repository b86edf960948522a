#ifndef VDRIFT_OBS_JSON_H_
#define VDRIFT_OBS_JSON_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace vdrift::obs::json {

/// Escapes a string for embedding in a JSON document (quotes not included).
std::string Escape(const std::string& s);

/// Formats a double as a JSON number. Non-finite values (which JSON cannot
/// represent) render as 0 so exported reports always parse.
std::string FormatDouble(double value);

/// \brief Minimal JSON document node.
///
/// Just enough of a DOM to round-trip the metrics reports exported by
/// MetricsRegistry/EpisodeRecorder: the obs tests parse what they export.
/// Not a general-purpose JSON library.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> array_value;
  std::map<std::string, Value> object_value;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; null when absent or not an object.
  const Value* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
Result<Value> Parse(const std::string& text);

}  // namespace vdrift::obs::json

#endif  // VDRIFT_OBS_JSON_H_
