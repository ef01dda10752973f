#include "common/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "common/check.h"

namespace jxp {

Status Flags::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      return Status::InvalidArgument("expected --name[=value], got: " + std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[++i];
    } else {
      values_[std::string(arg)] = "true";
    }
  }
  return Status::OK();
}

std::string Flags::GetString(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(text, &end, 10);
  JXP_CHECK(end != text && *end == '\0' && errno != ERANGE)
      << "flag --" << name << " is not an integer: " << it->second;
  return v;
}

uint64_t Flags::GetCount(const std::string& name, uint64_t def) const {
  if (!Has(name)) return def;
  const int64_t v = GetInt(name, 0);
  JXP_CHECK(v >= 0) << "flag --" << name << " is not a count: " << v;
  return static_cast<uint64_t>(v);
}

double Flags::GetDouble(const std::string& name, double def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  JXP_CHECK(end != text && *end == '\0' && errno != ERANGE && std::isfinite(v))
      << "flag --" << name << " is not a number: " << it->second;
  return v;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  JXP_CHECK(false) << "flag --" << name << " is not a bool: " << v;
  return def;
}

}  // namespace jxp
