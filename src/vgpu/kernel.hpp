// Kernel execution records and timeline-composition helpers.
//
// Device::launch executes a kernel functionally and produces a KernelRun
// with a simulated duration and its roofline breakdown. Engines compose
// runs either sequentially (default-stream semantics) or concurrently
// (multi-stream semantics, used by the ACSR driver which launches one
// grid per bin).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vgpu/counters.hpp"
#include "vgpu/device_spec.hpp"

namespace acsr::vgpu {

struct KernelRun {
  std::string name;
  Counters counters;

  // Roofline components (seconds).
  double issue_s = 0.0;    // warp-issue bandwidth bound
  double flop_s = 0.0;     // arithmetic-throughput bound
  double memory_s = 0.0;   // DRAM bound at this kernel's own occupancy
  double latency_s = 0.0;  // longest single-warp dependency chain
  double launch_s = 0.0;   // host-side launch overhead
  double dp_s = 0.0;       // device-runtime launch handling

  double dram_bytes = 0.0;  // DRAM traffic after all cache modelling

  double duration_s = 0.0;

  // Sanitizer findings recorded during this launch (0 unless the run was
  // instrumented via ACSR_SANITIZE / the plane table's sanitize row).
  std::uint64_t sanitizer_reports = 0;

  /// The binding roofline term (excluding overheads), for reports.
  double bound_s() const {
    double m = issue_s;
    if (flop_s > m) m = flop_s;
    if (memory_s > m) m = memory_s;
    if (latency_s > m) m = latency_s;
    return m;
  }
};

/// Sum of durations: kernels issued back-to-back on one stream.
double combine_sequential(const std::vector<KernelRun>& runs);

/// Concurrent-kernel model: the grids share the device, so each resource
/// dimension (issue bandwidth, flop throughput, DRAM) is the *sum* of the
/// kernels' demands, the latency bound is the max, and host launches
/// pipeline at a small per-launch gap. This is how the ACSR driver's
/// per-bin grids (issued on independent streams) overlap on real Fermi+
/// hardware.
double combine_concurrent(const std::vector<KernelRun>& runs,
                          const DeviceSpec& spec);

}  // namespace acsr::vgpu
