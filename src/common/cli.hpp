// Tiny --flag=value parser shared by bench and example binaries, and the
// main() wrapper every tool, bench and example runs under.
// Not a general argv library: just enough to select devices, matrices,
// precisions and scales reproducibly from the command line.
#pragma once

#include <charconv>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace acsr {

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
    return get_number(key, dflt);
  }

  double get_double(const std::string& key, double dflt) const {
    return get_number(key, dflt);
  }

  bool get_bool(const std::string& key, bool dflt = false) const {
    const auto v = get(key);
    if (!v) return dflt;
    return *v == "true" || *v == "1" || *v == "yes";
  }

  bool has(const std::string& key) const { return flags_.count(key) > 0; }

 private:
  /// The whole value of --key as a T; InputError naming the flag otherwise.
  template <class T>
  T get_number(const std::string& key, T dflt) const {
    const auto v = get(key);
    if (!v) return dflt;
    const std::optional<T> n = parse_exact<T>(v->c_str());
    ACSR_REQUIRE(n, "--" << key << "='" << *v << "' is not a number");
    return *n;
  }

  std::map<std::string, std::string> flags_;
};

/// Run a program's body as its main(): an InputError (a malformed flag,
/// ACSR_* variable or input file) ends it with "<program>: <message>" on
/// stderr and exit code 2 instead of an uncaught-exception abort.
inline int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const InputError& e) {
    std::string prog = argc > 0 ? argv[0] : "acsr";
    prog.erase(0, prog.find_last_of('/') + 1);
    std::cerr << prog << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace acsr
