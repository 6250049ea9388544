// The plane table: every ACSR_* environment variable the program reads,
// parsed once before main() into one process-wide struct.
//
// Each instrumentation plane (sanitizer, reference metering, memo,
// profiler, SLO tracing, static verification, fault injection) is gated
// by one plain bool here. Its reader — vgpu::sanitizer_enabled(),
// vgpu::memo::memo_enabled(), prof::profiler_enabled(), ... — is a
// one-line inline load of that bool, so a disabled plane costs the hot
// path one never-taken branch. Tests, tools and benches flip a plane with
// set_plane(); docs/TESTING.md lists the variables and their meaning.
//
// One rule parses every boolean variable: it is on when set, non-empty
// and not "0". ACSR_TRACE (a path) also turns on the profiler and SLO
// planes: a trace without launch samples or request spans shows nothing.
//
// This header holds the only getenv in src/ (acsr_audit's gate pass
// flags any other as hot-getenv).
#pragma once

#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>

namespace acsr {

struct Planes {
  bool sanitize = false;            ///< ACSR_SANITIZE
  bool sanitize_halt = false;       ///< ACSR_SANITIZE_HALT
  bool reference_metering = false;  ///< ACSR_REFERENCE_METERING
  bool memo = false;                ///< ACSR_MEMO
  bool prof = false;                ///< ACSR_PROF, or a non-empty ACSR_TRACE
  bool slo = false;                 ///< ACSR_SLO, or a non-empty ACSR_TRACE
  bool verify = false;              ///< ACSR_VERIFY
  std::string faults;  ///< ACSR_FAULTS plan (vgpu::FaultInjector parses it)
  std::string trace;   ///< ACSR_TRACE path ("" when unset)
  std::string scale;   ///< ACSR_SCALE text (graph::default_scale parses it)
  /// Set while vgpu::FaultInjector holds a non-empty plan; starts as
  /// "ACSR_FAULTS is non-empty" and follows configure() / disable().
  bool fault_injection = false;
};

/// One env-backed row: the variable and the field it fills.
template <class T>
struct PlaneRow {
  const char* var;
  T Planes::*field;
};

inline constexpr PlaneRow<bool> kFlagRows[] = {
    {"ACSR_SANITIZE", &Planes::sanitize},
    {"ACSR_SANITIZE_HALT", &Planes::sanitize_halt},
    {"ACSR_REFERENCE_METERING", &Planes::reference_metering},
    {"ACSR_MEMO", &Planes::memo},
    {"ACSR_PROF", &Planes::prof},
    {"ACSR_SLO", &Planes::slo},
    {"ACSR_VERIFY", &Planes::verify},
};

inline constexpr PlaneRow<std::string> kTextRows[] = {
    {"ACSR_FAULTS", &Planes::faults},
    {"ACSR_TRACE", &Planes::trace},
    {"ACSR_SCALE", &Planes::scale},
};

/// The boolean rule: set, non-empty and not "0" ("1", "yes", "10" are on).
inline bool flag_on(const std::string& v) { return !v.empty() && v != "0"; }

/// The table as the environment lookup `env` (getenv's signature)
/// defines it; tests pass a fake lookup.
template <class Env>
Planes load_planes(Env env) {
  const auto text = [&](const char* var) {
    const char* v = env(var);
    return v == nullptr ? std::string() : std::string(v);
  };
  Planes t;
  for (const auto& r : kFlagRows) t.*r.field = flag_on(text(r.var));
  for (const auto& r : kTextRows) t.*r.field = text(r.var);
  t.prof = t.prof || !t.trace.empty();
  t.slo = t.slo || !t.trace.empty();
  t.fault_injection = !t.faults.empty();
  return t;
}

namespace detail {
inline Planes plane_table =
    load_planes([](const char* var) { return std::getenv(var); });
}  // namespace detail

inline const Planes& planes() { return detail::plane_table; }

/// The one setter: `set_plane(&Planes::memo, true)`.
template <class T>
void set_plane(T Planes::*row, std::type_identity_t<T> value) {
  detail::plane_table.*row = std::move(value);
}

}  // namespace acsr
