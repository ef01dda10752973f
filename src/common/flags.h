#ifndef JXP_COMMON_FLAGS_H_
#define JXP_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace jxp {

/// Minimal command-line flag parser for bench and example binaries.
///
/// Accepts arguments of the form `--name=value` or `--name value`; a bare
/// `--name` is treated as the boolean value "true". Every flag is kept,
/// including ones no caller reads: a mistyped flag is silently ignored and
/// the binary runs with that option's default.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped). Returns InvalidArgument on malformed
  /// input such as a positional argument.
  Status Parse(int argc, char** argv);

  /// Returns the flag value as a string, or `def` when absent.
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Returns the flag value parsed as int64, or `def` when absent. Aborts on
  /// unparsable values (bench binaries want loud failures).
  int64_t GetInt(const std::string& name, int64_t def) const;

  /// Returns the flag value as a count (meetings, top-k, milliseconds, ...),
  /// or `def` when absent. Aborts like GetInt on an unparsable value and on a
  /// negative one, which a cast to an unsigned type would wrap to a huge
  /// count.
  uint64_t GetCount(const std::string& name, uint64_t def) const;

  /// Returns the flag value parsed as double, or `def` when absent.
  double GetDouble(const std::string& name, double def) const;

  /// Returns the flag value parsed as bool ("true"/"1"/"false"/"0").
  bool GetBool(const std::string& name, bool def) const;

  /// True iff the flag was present on the command line.
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace jxp

#endif  // JXP_COMMON_FLAGS_H_
