// Typed metric registry: the named, documented decomposition of the raw
// aggregates (vgpu::Counters plus the profiler's lane tallies and roofline
// terms, the serving, storage and SLO aggregates) into the quantities the
// paper argues with — lane occupancy, coalescing efficiency, divergence,
// roofline attribution, DP overhead.
//
// One mechanism serves every aggregate: MetricDef<Agg>, registry<Agg>()
// and find_metric<Agg>(). Two invariants the rest of the repo leans on:
//   * every field of vgpu::Counters, TenantAgg, IoAgg and SloAgg has a
//     passthrough metric: each field table in metrics.cpp is checked
//     against its aggregate's field count at compile time
//     (covers_fields), so a new field without a row fails the build, and
//   * metrics marked non-deterministic (host wall-clock attribution) are
//     excluded from `acsr_prof --diff` regression comparisons — only model
//     quantities, which are bit-reproducible, gate drift.
//
// Formula strings are the documentation of record; docs/OBSERVABILITY.md
// renders the same definitions prose-side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "prof/prof.hpp"

namespace acsr::prof {

// --- shared derived-metric formulas (also used for trace-event args) -------

/// Percentage of issued lane slots that carried an active lane, over the
/// memory and arithmetic pipelines together. 100 on fully converged code;
/// CSR-vector on short rows is the paper's canonical low-occupancy case.
inline double lane_occupancy_pct(const LaneCounters& l) {
  const std::uint64_t slots = l.mem_lane_slots + l.flop_lane_slots;
  if (slots == 0) return 100.0;
  return 100.0 * static_cast<double>(l.mem_active_lanes +
                                     l.flop_active_lanes) /
         static_cast<double>(slots);
}

/// Fraction of issued lane slots wasted on inactive lanes: 1 - occupancy.
inline double divergence_ratio(const LaneCounters& l) {
  return 1.0 - lane_occupancy_pct(l) / 100.0;
}

/// Useful bytes (element size x active lanes, duplicates counted) over the
/// 32 B sector bytes the memory system moved. 1.0 = perfectly coalesced;
/// scattered power-law gathers sit far below. Sector bytes are only
/// charged on cache *misses*, so L2-resident reuse (adjacent rows sharing
/// sectors, as in ACSR's bin sweeps) pushes the ratio above 1 — read
/// values > 1 as "useful bytes delivered per DRAM byte fetched".
inline double coalescing_efficiency(const LaneCounters& l,
                                    const vgpu::Counters& c) {
  if (c.gmem_bytes == 0) return 1.0;
  return static_cast<double>(l.useful_gmem_bytes) /
         static_cast<double>(c.gmem_bytes);
}

/// Texture-path coalescing efficiency (the x-vector gathers).
inline double tex_coalescing_efficiency(const LaneCounters& l,
                                        const vgpu::Counters& c) {
  if (c.tex_bytes == 0) return 1.0;
  return static_cast<double>(l.useful_tex_bytes) /
         static_cast<double>(c.tex_bytes);
}

/// Aggregate of LaunchSamples sharing one summary row (same kernel name,
/// or an engine's whole-run total).
struct KernelAgg {
  std::uint64_t launches = 0;
  vgpu::Counters counters;
  LaneCounters lanes;
  double duration_s = 0.0;
  double issue_s = 0.0;
  double flop_s = 0.0;
  double memory_s = 0.0;
  double latency_s = 0.0;
  double launch_s = 0.0;
  double dp_s = 0.0;
  double dram_bytes = 0.0;
  std::uint64_t host_ns = 0;

  void add(const LaunchSample& s) {
    launches += 1;
    counters += s.run.counters;
    lanes += s.lanes;
    duration_s += s.run.duration_s;
    issue_s += s.run.issue_s;
    flop_s += s.run.flop_s;
    memory_s += s.run.memory_s;
    latency_s += s.run.latency_s;
    launch_s += s.run.launch_s;
    dp_s += s.run.dp_s;
    dram_bytes += s.run.dram_bytes;
    host_ns += s.host_ns;
  }
};

// --- multi-tenant serving aggregates ---------------------------------------

/// Per-tenant billing record kept by serve::BatchScheduler: simulated cost
/// attribution of the batched SpMM launches plus queueing behaviour. Each
/// field has a tenant.* passthrough metric, checked at compile time, so a
/// new billing column cannot ship unobservable.
struct TenantAgg {
  std::uint64_t requests = 0;        ///< SpMVs served for this tenant
  std::uint64_t batches = 0;         ///< batches carrying >= 1 of its requests
  std::uint64_t batch_width_sum = 0; ///< width of the carrying batch, per request
  double cost_s = 0.0;               ///< billed share of simulated batch time
  double queue_wait_s = 0.0;         ///< simulated enqueue-to-launch wait, summed
};

// --- out-of-core storage aggregates ----------------------------------------

/// Storage-plane accounting kept by storage::StorageTier and folded in by
/// core::OocCsrEngine: every drive read, retry, checksum failure and the
/// overlap the streaming executor achieved. Each field has an io.*
/// passthrough metric, checked at compile time, so a new storage counter
/// cannot ship unobservable.
struct IoAgg {
  std::uint64_t reads = 0;             ///< chunk read requests completed
  std::uint64_t read_bytes = 0;        ///< bytes delivered from the drives
  std::uint64_t demand_bytes = 0;      ///< bytes the executor asked for
  std::uint64_t retries = 0;           ///< re-issued reads (transient/timeout/checksum)
  std::uint64_t checksum_failures = 0; ///< chunks that arrived corrupt
  std::uint64_t queue_peak = 0;        ///< max in-flight requests observed
  double read_s = 0.0;                 ///< drive service time, summed
  double penalty_s = 0.0;              ///< retry backoff + timeout hangs charged
  double stall_s = 0.0;                ///< compute idle waiting on a slab upload
  double overlap_s = 0.0;              ///< io time hidden behind compute
};

// --- per-tenant SLO aggregates ---------------------------------------------

/// Deterministic SLO summary of one tenant (or the "*" all-tenants view),
/// filled by slo::SloMonitor::snapshot from its fixed-bucket histograms
/// and sliding-window burn evaluation (docs/SLO.md). Each field has an
/// slo.* passthrough metric, checked at compile time, so a new SLO column
/// cannot ship unobservable.
struct SloAgg {
  std::uint64_t requests = 0;    ///< requests observed
  std::uint64_t violations = 0;  ///< requests over the latency target
  std::uint64_t breaches = 0;    ///< edge-triggered burn-threshold crossings
  double burn_rate = 0.0;        ///< window violation fraction / error budget
  double latency_p50_s = 0.0;    ///< admission..completion percentiles
  double latency_p95_s = 0.0;
  double latency_p99_s = 0.0;
  double latency_max_s = 0.0;    ///< exact maximum observed
  double queue_wait_p50_s = 0.0; ///< admission..launch percentiles
  double queue_wait_p95_s = 0.0;
  double queue_wait_max_s = 0.0;
};

// --- the registry ----------------------------------------------------------

/// A named, documented metric over one aggregate: KernelAgg (acsr_prof's
/// per-kernel and per-engine rows), TenantAgg (--tenants), IoAgg (--ooc)
/// or SloAgg (acsr_slo).
template <class Agg>
struct MetricDef {
  const char* name;
  const char* unit;
  const char* formula;  // human-readable definition (docs/OBSERVABILITY.md)
  /// False for host wall-clock attribution: real, but machine-dependent,
  /// so --diff skips it.
  bool deterministic;
  double (*compute)(const Agg&);
};

/// Every registered metric over Agg, in display order: KernelAgg lists its
/// derived metrics first and the Counters passthroughs after; the other
/// aggregates list their field passthroughs first and derived ratios after.
/// Instantiated for KernelAgg, TenantAgg, IoAgg and SloAgg.
template <class Agg>
std::span<const MetricDef<Agg>> registry();

/// nullptr when unknown.
template <class Agg>
const MetricDef<Agg>* find_metric(const std::string& name);

/// find_metric<IoAgg> under its older name, which perfbench/ calls.
inline const MetricDef<IoAgg>* find_io_metric(const std::string& name) {
  return find_metric<IoAgg>(name);
}

// --- compile-time field-table completeness ---------------------------------

namespace detail {
/// Converts to any member type, so `T{AnyField{}...}` probes how many
/// initializers an aggregate accepts (unevaluated only, hence no body).
struct AnyField {
  template <class T>
  constexpr operator T() const noexcept;
};
}  // namespace detail

/// Number of members of the aggregate T.
template <class T, class... Seen>
consteval std::size_t field_count() {
  static_assert(std::is_aggregate_v<T>);
  if constexpr (requires { T{Seen{}..., detail::AnyField{}}; })
    return field_count<T, Seen..., detail::AnyField>();
  else
    return sizeof...(Seen);
}

/// True when `table` holds one passthrough row per member of Owner: as
/// many rows as fields, no name twice. Rows come from ACSR_PASSTHROUGH,
/// which reads the member it names, so a misspelt field does not compile.
template <class Owner, class Row, std::size_t N>
consteval bool covers_fields(const Row (&table)[N]) {
  if (N != field_count<Owner>()) return false;
  for (std::size_t i = 0; i < N; ++i)
    for (std::size_t j = i + 1; j < N; ++j)
      if (std::string_view(table[i].name) == table[j].name) return false;
  return true;
}

}  // namespace acsr::prof

/// The passthrough generator behind every field table: a deterministic
/// MetricDef<Agg> named `prefix #field`, documented as
/// `lead #field " (" what ")"`, whose value is `a.via field` as a double.
/// `via` is empty except for KernelAgg's Counters rows (`counters.`).
#define ACSR_PASSTHROUGH(Agg, via, prefix, lead, field, unit, what)        \
  ::acsr::prof::MetricDef<Agg> {                                           \
    prefix #field, unit, lead #field " (" what ")", true,                  \
        [](const Agg& a) { return static_cast<double>(a.via field); }      \
  }
