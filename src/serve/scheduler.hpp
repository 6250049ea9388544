// BatchScheduler: coalesces admitted tenant requests into vector blocks
// and serves them through the engine's batched SpMM path.
//
// The economics this implements are the tentpole's point: k queued
// vectors served as one width-k SpMM sweep the matrix once instead of k
// times, so the simulated cost per request falls with the batch width
// (docs/SERVING.md quantifies the curve). The scheduler keeps a simulated
// clock, advanced only by the batches it runs; queue wait and per-tenant
// billed cost are measured on that clock, which makes every number here
// bit-reproducible.
//
// Billing: a width-k batch's simulated seconds are split evenly over its
// k requests (each column costs the same device work), and each request's
// share is charged to its tenant's prof::TenantAgg, rendered by
// acsr_prof --tenants through prof::registry<TenantAgg>(); every field has
// a passthrough metric, checked at compile time in src/prof/metrics.cpp.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mat/dense_block.hpp"
#include "prof/metrics.hpp"
#include "serve/request.hpp"
#include "slo/slo.hpp"
#include "slo/trace.hpp"
#include "spmv/engine.hpp"

namespace acsr::serve {

struct ServeOptions {
  /// Maximum vector-block width one batch coalesces (the tunable of the
  /// throughput-vs-width bench; docs/PERF.md has the measured curve).
  int max_batch_width = 32;
  /// Admission bound: pending requests beyond this are shed with a typed
  /// OverloadError at submit().
  std::size_t queue_capacity = 256;
  /// Feed the SLO monitor (latency/queue-wait histograms, burn-rate
  /// evaluation) even when the slo plane's env gate is off — how
  /// bench_wallclock collects tail-latency percentiles without paying
  /// for span recording. The env gate (ACSR_SLO / ACSR_TRACE) enables
  /// both the monitor and span tracing.
  bool observe_slo = false;
};

template <class T>
class BatchScheduler {
 public:
  BatchScheduler(spmv::SpmvEngine<T>& engine, ServeOptions opt = {})
      : engine_(engine), opt_(opt), queue_(opt.queue_capacity) {
    ACSR_REQUIRE(opt_.max_batch_width >= 1,
                 "BatchScheduler needs max_batch_width >= 1");
  }

  const ServeOptions& options() const { return opt_; }
  double clock_s() const { return clock_s_; }
  std::size_t pending() const { return queue_.size(); }

  /// Admit one request. Validates the vector dimension against the
  /// resident matrix, stamps the simulated admission time, and returns
  /// the request id used to fetch the result after drain(). Throws
  /// OverloadError when the queue is full.
  std::uint64_t submit(std::vector<T> x, const std::string& tenant,
                       int priority = 0,
                       double deadline_s =
                           std::numeric_limits<double>::infinity()) {
    ACSR_REQUIRE(static_cast<mat::index_t>(x.size()) == engine_.cols(),
                 "request vector length must equal matrix columns");
    Request<T> r;
    r.x = std::move(x);
    r.tenant = tenant;
    r.priority = priority;
    r.deadline_s = deadline_s;
    return queue_.push(std::move(r), clock_s_);
  }

  /// Run one batch: pop up to max_batch_width requests (priority first),
  /// coalesce them into a vector block, serve it through simulate_batch,
  /// advance the clock and bill the tenants. Returns the batch width, or
  /// 0 when idle.
  int step() {
    if (queue_.empty()) return 0;
    const int width = static_cast<int>(
        std::min<std::size_t>(queue_.size(),
                              static_cast<std::size_t>(opt_.max_batch_width)));
    std::vector<Request<T>> batch;
    batch.reserve(static_cast<std::size_t>(width));
    for (int c = 0; c < width; ++c) batch.push_back(queue_.pop_best());

    mat::DenseBlock<T> x_block(engine_.cols(), width);
    for (int c = 0; c < width; ++c)
      x_block.set_column(c, batch[static_cast<std::size_t>(c)].x);
    mat::DenseBlock<T> y_block;

    // The batch span is the execution root: every engine/storage span the
    // planes below record during simulate_batch nests under it, so one
    // request's tree crosses serve -> engine -> storage while the batch's
    // device work appears exactly once (not once per request).
    const double launch_s = clock_s_;
    const std::string batch_label =
        "batch" + std::to_string(batches_) + "/w" + std::to_string(width);
    const bool traced = slo::slo_enabled();
    if (traced) [[unlikely]]
      slo::Tracer::instance().open(slo::SpanKind::kBatch, batch_label,
                                   "serve", launch_s);
    const double batch_s = engine_.simulate_batch(x_block, y_block);
    if (traced) [[unlikely]]
      slo::Tracer::instance().close(launch_s + batch_s);
    const double end_s = launch_s + batch_s;

    // Wait is measured to the batch's *launch* (the current clock); the
    // batch's own duration is service time, not queueing.
    std::set<std::string> tenants_in_batch;
    for (int c = 0; c < width; ++c) {
      const Request<T>& r = batch[static_cast<std::size_t>(c)];
      prof::TenantAgg& t = tenants_[r.tenant];
      t.requests += 1;
      t.batch_width_sum += static_cast<std::uint64_t>(width);
      t.cost_s += batch_s / width;
      t.queue_wait_s += clock_s_ - r.enqueue_clock_s;
      tenants_in_batch.insert(r.tenant);
      results_[r.id] = y_block.column(c);
      if (traced || opt_.observe_slo) [[unlikely]]
        slo_.observe(r.tenant, r.id, launch_s - r.enqueue_clock_s,
                     end_s - r.enqueue_clock_s, end_s);
      if (traced) [[unlikely]]
        slo::Tracer::instance().record_request(r.trace(), launch_s, end_s,
                                               batch_label);
    }
    for (const std::string& name : tenants_in_batch)
      tenants_[name].batches += 1;

    clock_s_ += batch_s;
    batches_ += 1;
    served_ += static_cast<std::uint64_t>(width);
    width_sum_ += static_cast<std::uint64_t>(width);
    return width;
  }

  /// Drain the queue; returns the number of batches run.
  int drain() {
    int n = 0;
    while (step() > 0) ++n;
    return n;
  }

  /// Result of a served request (empty lookup is an invariant violation —
  /// results are kept until taken).
  std::vector<T> take_result(std::uint64_t id) {
    auto it = results_.find(id);
    ACSR_CHECK(it != results_.end());
    std::vector<T> y = std::move(it->second);
    results_.erase(it);
    return y;
  }

  // --- serving observability ----------------------------------------------
  std::uint64_t batches() const { return batches_; }
  std::uint64_t served_requests() const { return served_; }
  /// Mean coalesced width over every batch run so far.
  double batch_width_avg() const {
    return batches_ == 0 ? 0.0
                         : static_cast<double>(width_sum_) /
                               static_cast<double>(batches_);
  }
  /// Per-tenant billing, keyed by tenant name (render through
  /// prof::registry<prof::TenantAgg>()).
  const std::map<std::string, prof::TenantAgg>& tenants() const {
    return tenants_;
  }
  /// Per-tenant SLO evaluation (histograms, burn rate, breaches). Fed
  /// while the slo plane is enabled (or observe_slo is set); install
  /// objectives and a breach sink before serving (docs/SLO.md).
  slo::SloMonitor& slo() { return slo_; }
  const slo::SloMonitor& slo() const { return slo_; }

 private:
  spmv::SpmvEngine<T>& engine_;
  ServeOptions opt_;
  RequestQueue<T> queue_;
  double clock_s_ = 0.0;
  std::uint64_t batches_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t width_sum_ = 0;
  std::map<std::string, prof::TenantAgg> tenants_;
  std::map<std::uint64_t, std::vector<T>> results_;
  slo::SloMonitor slo_;
};

}  // namespace acsr::serve
