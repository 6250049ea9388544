// Tiny --flag=value parser shared by bench and example binaries.
// Not a general argv library: just enough to select devices, matrices,
// precisions and scales reproducibly from the command line.
#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace acsr {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      ACSR_REQUIRE(arg.rfind("--", 0) == 0,
                   "unexpected positional argument '" << arg
                                                      << "' (use --k=v)");
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg] = "true";
      } else {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = flags_.find(key);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& key, const std::string& dflt) const {
    return get(key).value_or(dflt);
  }

  long long get_int(const std::string& key, long long dflt) const {
    const auto v = get(key);
    if (!v) return dflt;
    return std::stoll(*v);
  }

  double get_double(const std::string& key, double dflt) const {
    const auto v = get(key);
    if (!v) return dflt;
    return std::stod(*v);
  }

  bool get_bool(const std::string& key, bool dflt = false) const {
    const auto v = get(key);
    if (!v) return dflt;
    return *v == "true" || *v == "1" || *v == "yes";
  }

  bool has(const std::string& key) const { return flags_.count(key) > 0; }

 private:
  std::map<std::string, std::string> flags_;
};

/// The whole of `s` as a T (integer or floating point); nullopt for a null
/// or empty string, trailing characters ("3x") or an out-of-range value.
template <class T>
std::optional<T> parse_exact(const char* s) {
  if (s == nullptr) return std::nullopt;
  const char* end = s + std::strlen(s);
  T v{};
  const auto [p, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || p != end) return std::nullopt;
  return v;
}

/// Environment-variable override with default, used for ACSR_SCALE.
inline long long env_int(const char* name, long long dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return std::atoll(v);
}

}  // namespace acsr
