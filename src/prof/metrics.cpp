#include "prof/metrics.hpp"

#include <algorithm>
#include <array>

namespace acsr::prof {

namespace {

double safe_div(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <class Row, std::size_t A, std::size_t B>
constexpr std::array<Row, A + B> join(const Row (&first)[A],
                                      const Row (&second)[B]) {
  std::array<Row, A + B> r{};
  std::copy(first, first + A, r.begin());
  std::copy(second, second + B, r.begin() + A);
  return r;
}

// --- field tables ----------------------------------------------------------
// One passthrough row per aggregate field, each table checked against its
// aggregate's field count right after it: a field with no row fails the
// build. FIELD binds the shared generator to one aggregate's spelling.

#define FIELD(field, unit, what)                                        \
  ACSR_PASSTHROUGH(KernelAgg, counters., "counters.", "sum of Counters::", \
                   field, unit, what)
constexpr MetricDef<KernelAgg> kCounterFields[] = {
    FIELD(blocks, "count", "thread blocks executed"),
    FIELD(warps, "count", "warps executed"),
    FIELD(issue_cycles, "count", "warp-instructions issued"),
    FIELD(sp_flops, "count", "single-precision lane flops"),
    FIELD(dp_flops, "count", "double-precision lane flops"),
    FIELD(gmem_requests, "count", "global load/store instructions"),
    FIELD(gmem_transactions, "count", "32 B global sectors moved"),
    FIELD(gmem_bytes, "count", "global sector bytes moved"),
    FIELD(tex_requests, "count", "texture read instructions"),
    FIELD(tex_transactions, "count", "32 B texture segments moved"),
    FIELD(tex_bytes, "count", "texture segment bytes moved"),
    FIELD(shuffle_ops, "count", "warp shuffle instructions"),
    FIELD(smem_accesses, "count", "shared-memory accesses"),
    FIELD(atomic_ops, "count", "atomic lane operations"),
    FIELD(atomic_conflicts, "count", "same-address atomic replays"),
    FIELD(child_launches, "count", "device-side child launches"),
    FIELD(child_blocks, "count", "blocks run by child grids"),
};
#undef FIELD
static_assert(covers_fields<vgpu::Counters>(kCounterFields));

#define FIELD(field, unit, what) \
  ACSR_PASSTHROUGH(TenantAgg, , "tenant.", "TenantAgg::", field, unit, what)
constexpr MetricDef<TenantAgg> kTenantFields[] = {
    FIELD(requests, "count", "SpMVs served"),
    FIELD(batches, "count", "batches carrying >= 1 of the tenant's requests"),
    FIELD(batch_width_sum, "count", "carrying batch width, summed per request"),
    FIELD(cost_s, "s", "billed share of simulated batch time"),
    FIELD(queue_wait_s, "s", "simulated enqueue-to-launch wait, summed"),
};
#undef FIELD
static_assert(covers_fields<TenantAgg>(kTenantFields));

#define FIELD(field, unit, what) \
  ACSR_PASSTHROUGH(IoAgg, , "io.", "IoAgg::", field, unit, what)
constexpr MetricDef<IoAgg> kIoFields[] = {
    FIELD(reads, "count", "chunk read requests completed"),
    FIELD(read_bytes, "bytes", "bytes delivered from the drives"),
    FIELD(demand_bytes, "bytes", "bytes the streaming executor asked for"),
    FIELD(retries, "count", "re-issued reads (transient / timeout / checksum)"),
    FIELD(checksum_failures, "count",
          "chunks that arrived with a checksum mismatch"),
    FIELD(queue_peak, "count", "max in-flight requests observed on the tier"),
    FIELD(read_s, "s", "drive service time, summed"),
    FIELD(penalty_s, "s", "retry backoff + timeout hangs charged to the clock"),
    FIELD(stall_s, "s", "compute idle waiting on a slab upload"),
    FIELD(overlap_s, "s", "io time hidden behind compute"),
};
#undef FIELD
static_assert(covers_fields<IoAgg>(kIoFields));

#define FIELD(field, unit, what) \
  ACSR_PASSTHROUGH(SloAgg, , "slo.", "SloAgg::", field, unit, what)
constexpr MetricDef<SloAgg> kSloFields[] = {
    FIELD(requests, "count", "requests observed"),
    FIELD(violations, "count", "requests over the latency target"),
    FIELD(breaches, "count", "edge-triggered burn-threshold crossings"),
    FIELD(burn_rate, "ratio", "window violation fraction / error budget"),
    FIELD(latency_p50_s, "s", "deterministic p50 of admission..completion"),
    FIELD(latency_p95_s, "s", "deterministic p95 of admission..completion"),
    FIELD(latency_p99_s, "s", "deterministic p99 of admission..completion"),
    FIELD(latency_max_s, "s", "exact maximum latency observed"),
    FIELD(queue_wait_p50_s, "s", "deterministic p50 of admission..launch"),
    FIELD(queue_wait_p95_s, "s", "deterministic p95 of admission..launch"),
    FIELD(queue_wait_max_s, "s", "exact maximum queue wait observed"),
};
#undef FIELD
static_assert(covers_fields<SloAgg>(kSloFields));

// --- derived metrics -------------------------------------------------------

constexpr MetricDef<KernelAgg> kKernelDerived[] = {
    {"launches", "count", "host-side kernel launches aggregated", true,
     [](const KernelAgg& a) { return static_cast<double>(a.launches); }},
    {"model_ms", "ms", "1e3 * sum of KernelRun::duration_s", true,
     [](const KernelAgg& a) { return a.duration_s * 1e3; }},
    {"model_ms_avg", "ms", "model_ms / launches", true,
     [](const KernelAgg& a) {
       return safe_div(a.duration_s * 1e3, static_cast<double>(a.launches));
     }},
    {"lane_occupancy_pct", "%",
     "100 * (mem_active_lanes + flop_active_lanes) / (mem_lane_slots + "
     "flop_lane_slots)",
     true, [](const KernelAgg& a) { return lane_occupancy_pct(a.lanes); }},
    {"divergence_ratio", "ratio", "1 - lane_occupancy_pct / 100", true,
     [](const KernelAgg& a) { return divergence_ratio(a.lanes); }},
    {"coalescing_efficiency", "ratio",
     "useful_gmem_bytes / gmem_bytes (useful = element size * active "
     "lanes; gmem_bytes = 32 B sectors moved)",
     true,
     [](const KernelAgg& a) {
       return coalescing_efficiency(a.lanes, a.counters);
     }},
    {"tex_coalescing_efficiency", "ratio",
     "useful_tex_bytes / tex_bytes (texture path, the x gathers)", true,
     [](const KernelAgg& a) {
       return tex_coalescing_efficiency(a.lanes, a.counters);
     }},
    {"sectors_per_request", "ratio", "gmem_transactions / gmem_requests",
     true,
     [](const KernelAgg& a) {
       return safe_div(static_cast<double>(a.counters.gmem_transactions),
                       static_cast<double>(a.counters.gmem_requests));
     }},
    {"atomic_conflict_ratio", "ratio", "atomic_conflicts / atomic_ops", true,
     [](const KernelAgg& a) {
       return safe_div(static_cast<double>(a.counters.atomic_conflicts),
                       static_cast<double>(a.counters.atomic_ops));
     }},
    // Roofline attribution: each term's share of the modelled duration.
    // Shares do not sum to 1 — duration is launch + max(bounds) + dp, so
    // the non-binding bounds report the headroom the kernel had.
    {"issue_share", "ratio", "issue_s / duration_s (warp-issue bound)", true,
     [](const KernelAgg& a) { return safe_div(a.issue_s, a.duration_s); }},
    {"flop_share", "ratio", "flop_s / duration_s (arithmetic bound)", true,
     [](const KernelAgg& a) { return safe_div(a.flop_s, a.duration_s); }},
    {"memory_share", "ratio", "memory_s / duration_s (DRAM bound)", true,
     [](const KernelAgg& a) { return safe_div(a.memory_s, a.duration_s); }},
    {"latency_share", "ratio",
     "latency_s / duration_s (dependency-chain bound)", true,
     [](const KernelAgg& a) { return safe_div(a.latency_s, a.duration_s); }},
    {"launch_share", "ratio", "launch_s / duration_s (host launch cost)",
     true,
     [](const KernelAgg& a) { return safe_div(a.launch_s, a.duration_s); }},
    {"dp_overhead_share", "ratio",
     "dp_s / duration_s (device-runtime child-launch handling)", true,
     [](const KernelAgg& a) { return safe_div(a.dp_s, a.duration_s); }},
    {"dram_mb", "MB", "dram_bytes / 1e6 (post-cache DRAM traffic)", true,
     [](const KernelAgg& a) { return a.dram_bytes / 1e6; }},
    // Host wall-clock attribution of the *simulator* (not the model):
    // where bench_wallclock's real milliseconds go. Machine-dependent,
    // hence excluded from --diff.
    {"host_ms", "ms", "wall time inside Device::launch, summed", false,
     [](const KernelAgg& a) { return static_cast<double>(a.host_ns) / 1e6; }},
    {"host_us_per_launch", "us", "host_ms * 1e3 / launches", false,
     [](const KernelAgg& a) {
       return safe_div(static_cast<double>(a.host_ns) / 1e3,
                       static_cast<double>(a.launches));
     }},
};

constexpr MetricDef<TenantAgg> kTenantDerived[] = {
    {"tenant.batch_width_avg", "ratio", "batch_width_sum / requests", true,
     [](const TenantAgg& a) {
       return safe_div(static_cast<double>(a.batch_width_sum),
                       static_cast<double>(a.requests));
     }},
    {"tenant.queue_wait_avg_s", "s", "queue_wait_s / requests", true,
     [](const TenantAgg& a) {
       return safe_div(a.queue_wait_s, static_cast<double>(a.requests));
     }},
    {"tenant.cost_per_request_s", "s", "cost_s / requests", true,
     [](const TenantAgg& a) {
       return safe_div(a.cost_s, static_cast<double>(a.requests));
     }},
};

constexpr MetricDef<IoAgg> kIoDerived[] = {
    {"io.read_amplification", "ratio",
     "read_bytes / demand_bytes (stripe rounding + re-reads over useful "
     "bytes)",
     true,
     [](const IoAgg& a) {
       return safe_div(static_cast<double>(a.read_bytes),
                       static_cast<double>(a.demand_bytes));
     }},
    {"io.overlap_efficiency", "ratio",
     "overlap_s / (read_s + penalty_s); the fraction of io time hidden "
     "behind compute — > 0 proves slab upload ran concurrently",
     true,
     [](const IoAgg& a) {
       return safe_div(a.overlap_s, a.read_s + a.penalty_s);
     }},
    {"io.retry_rate", "ratio", "retries / reads", true,
     [](const IoAgg& a) {
       return safe_div(static_cast<double>(a.retries),
                       static_cast<double>(a.reads));
     }},
};

constexpr MetricDef<SloAgg> kSloDerived[] = {
    {"slo.violation_rate", "ratio", "violations / requests", true,
     [](const SloAgg& a) {
       return safe_div(static_cast<double>(a.violations),
                       static_cast<double>(a.requests));
     }},
};

constexpr auto kKernelRegistry = join(kKernelDerived, kCounterFields);
constexpr auto kTenantRegistry = join(kTenantFields, kTenantDerived);
constexpr auto kIoRegistry = join(kIoFields, kIoDerived);
constexpr auto kSloRegistry = join(kSloFields, kSloDerived);

}  // namespace

template <class Agg>
std::span<const MetricDef<Agg>> registry() {
  if constexpr (std::is_same_v<Agg, KernelAgg>) return kKernelRegistry;
  else if constexpr (std::is_same_v<Agg, TenantAgg>) return kTenantRegistry;
  else if constexpr (std::is_same_v<Agg, IoAgg>) return kIoRegistry;
  else return kSloRegistry;
}

template <class Agg>
const MetricDef<Agg>* find_metric(const std::string& name) {
  for (const MetricDef<Agg>& m : registry<Agg>())
    if (name == m.name) return &m;
  return nullptr;
}

template std::span<const MetricDef<KernelAgg>> registry();
template std::span<const MetricDef<TenantAgg>> registry();
template std::span<const MetricDef<IoAgg>> registry();
template std::span<const MetricDef<SloAgg>> registry();
template const MetricDef<KernelAgg>* find_metric(const std::string&);
template const MetricDef<TenantAgg>* find_metric(const std::string&);
template const MetricDef<IoAgg>* find_metric(const std::string&);
template const MetricDef<SloAgg>* find_metric(const std::string&);

}  // namespace acsr::prof
