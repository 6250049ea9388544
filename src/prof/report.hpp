// Exporters over the profiler's samples: the metrics JSON document (the
// `acsr_prof --out` / bench `--metrics_out` format, and the committed
// PROF_baseline.json), the nvprof-style text summary, the --diff
// regression comparison and the per-tenant metric tables.
// docs/OBSERVABILITY.md documents the doc schema.
#pragma once

#include <cstdio>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hpp"
#include "prof/metrics.hpp"

namespace acsr::prof {

inline constexpr const char* kMetricsSchema = "acsr-prof/v1";

/// Metrics document: { schema, retry_backoff_s, engines: { <context>:
/// { total: {metric: value}, kernels: { <name>: {metric: value} } } } }.
/// Launches are grouped by their context label ("(none)" when empty),
/// then by kernel name.
json::Value metrics_doc(const std::vector<LaunchSample>& launches,
                        double retry_backoff_s);

/// nvprof-style per-kernel summary of one profile: kernels ranked by
/// model time with occupancy/coalescing columns, plus group totals.
void render_summary(std::ostream& os,
                    const std::vector<LaunchSample>& launches,
                    double retry_backoff_s);

/// Engines-as-columns metric matrix over a metrics document (the
/// `acsr_prof` all-engines view).
void render_engine_matrix(std::ostream& os, const json::Value& doc);

struct Drift {
  std::string path;      // e.g. "engines/acsr/total/model_ms"
  double baseline = 0.0; // NaN when the side is missing
  double current = 0.0;
  double rel = 0.0;      // (current - baseline) / max(|baseline|, eps)
};

/// Compare per-engine *total* metrics of two metrics documents. Only
/// deterministic metrics participate (host wall-clock attribution is
/// machine-dependent); entries whose |rel| exceeds `threshold`, and
/// engines or metrics present on only one side, are returned, largest
/// drift first.
std::vector<Drift> diff_metrics(const json::Value& current,
                                const json::Value& baseline,
                                double threshold);

/// Per-tenant table on stdout: one row per (name, aggregate) of `rows`, one
/// `width`-wide column per registered metric of the aggregate — the
/// `acsr_prof --tenants`, `acsr_slo` and examples/rwr_batch tables.
template <class Rows>
void print_metric_table(const Rows& rows, int width) {
  using Agg = std::remove_cvref_t<decltype(rows.begin()->second)>;
  std::printf("%-8s", "tenant");
  for (const MetricDef<Agg>& m : registry<Agg>())
    std::printf("  %*s", width, m.name);
  std::printf("\n");
  for (const auto& [name, agg] : rows) {
    std::printf("%-8s", name.c_str());
    for (const MetricDef<Agg>& m : registry<Agg>())
      std::printf("  %*.6g", width, m.compute(agg));
    std::printf("\n");
  }
}

}  // namespace acsr::prof
