// Opt-in pre-launch verification gate (docs/ANALYSIS.md): with
// ACSR_VERIFY=1 in the environment, the engine factory statically proves
// an engine's kernels safe for its whole shape class on the target device
// before constructing it, and refuses to build one whose proof fails.
// When the variable is unset the gate is one test of the plane table's
// verify bool (common/planes.hpp).
#pragma once

#include <string>

#include "common/planes.hpp"
#include "vgpu/device_spec.hpp"

namespace acsr::analysis {

/// True when ACSR_VERIFY is on (or the verify row was set programmatically).
inline bool verify_enabled() { return planes().verify; }

/// Verify `name` on `spec` and throw acsr::InvariantError listing every
/// violation if the proof fails. Names without a registered model (the
/// factory rejects them anyway) pass through silently.
void verify_engine_or_throw(const std::string& name,
                            const vgpu::DeviceSpec& spec);

}  // namespace acsr::analysis
