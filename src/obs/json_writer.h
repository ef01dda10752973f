#ifndef JXP_OBS_JSON_WRITER_H_
#define JXP_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace jxp {
namespace obs {

/// Builds one JSON value — typically a single JSON-lines record — with
/// proper string escaping and *stable key order* (keys appear exactly in
/// insertion order; nothing is sorted behind the caller's back, so the same
/// call sequence always yields the same bytes). Shared by the metrics
/// exporter, the trace sink, and the bench binaries so every JSON line in
/// the repo is produced by one code path.
///
/// Usage:
///   JsonWriter w;
///   w.Field("bench", "query_throughput").Field("threads", 4);
///   w.BeginArray("ps").Element(50.0).Element(99.0).End();
///   std::string line = w.TakeLine();  // {"bench":"query_throughput",...}
///
/// Doubles are written with the shortest representation that round-trips
/// (std::to_chars); non-finite doubles become null (JSON has no NaN/Inf).
class JsonWriter {
 public:
  /// Starts the root object.
  JsonWriter();

  /// Scalar fields.
  JsonWriter& Field(std::string_view key, std::string_view value);
  JsonWriter& Field(std::string_view key, const char* value);
  JsonWriter& Field(std::string_view key, double value);
  JsonWriter& Field(std::string_view key, bool value);
  template <typename T, std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                                         int> = 0>
  JsonWriter& Field(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return FieldInt(key, static_cast<int64_t>(value));
    } else {
      return FieldUint(key, static_cast<uint64_t>(value));
    }
  }
  /// A field whose value is already valid JSON (e.g. a nested line built by
  /// another JsonWriter, or "null").
  JsonWriter& FieldRawJson(std::string_view key, std::string_view json);

  /// Containers. End() closes the innermost open object or array.
  JsonWriter& BeginObject(std::string_view key);
  JsonWriter& BeginArray(std::string_view key);
  /// Scalar elements of the innermost (open) array.
  JsonWriter& Element(double value);
  JsonWriter& Element(std::string_view value);
  JsonWriter& End();

  /// Closes every open scope and returns the finished line (no trailing
  /// newline). The writer is reset to a fresh root object afterwards.
  std::string TakeLine();

  /// Appends `s` JSON-escaped (without surrounding quotes) to `out`.
  static void AppendEscaped(std::string& out, std::string_view s);
  /// Appends the shortest round-trip decimal representation of `v`
  /// ("null" when non-finite).
  static void AppendDouble(std::string& out, double v);

 private:
  JsonWriter& FieldInt(std::string_view key, int64_t value);
  JsonWriter& FieldUint(std::string_view key, uint64_t value);
  /// Writes the separating comma and, inside objects, the quoted key.
  void BeginValue(std::string_view key);
  void BeginElement();

  std::string out_;
  /// Open scopes; true = object, false = array.
  std::vector<bool> scopes_;
  /// Whether the current scope already has a member (comma handling).
  std::vector<bool> has_member_;
};

}  // namespace obs
}  // namespace jxp

#endif  // JXP_OBS_JSON_WRITER_H_
