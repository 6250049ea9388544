// perfbench: one workload of the fixed-work benchmark, in one process.
//
//   perfbench --workload solve|serve|stream --seed N --seconds S --trace 0|1
//             [--inject-delay-us D] [--spans-out FILE]
//
// Prints one JSON object on stdout: end-to-end and per-layer metrics of
// this run, the deterministic quantities the determinism gate compares,
// and the op counts. perfbench/run.py runs this binary, one process per
// pass, and composes the benchmark's result line; README.md documents the
// workloads, the metrics and the rules they follow.
//
// The program is driven only through its public API. Layers are timed
// from outside: spans around the calls into graph, core, apps and serve,
// and a forwarding SpmvEngine decorator (SpanEngine) around the
// executor's simulate/simulate_batch.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "apps/rwr.hpp"
#include "common/rng.hpp"
#include "core/factory.hpp"
#include "core/ooc_engine.hpp"
#include "core/resilient.hpp"
#include "graph/corpus.hpp"
#include "ledger.hpp"
#include "prof/metrics.hpp"
#include "serve/scheduler.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"

namespace {

namespace pb = perfbench;
using namespace acsr;
using Vec = std::vector<double>;

// --- fixed work -------------------------------------------------------------
// --seconds scales the op count through these constants, never through a
// clock: the same arguments always do the same work, so a faster program
// lowers run_s. The rates were sized on a 4-core Xeon so that one run
// measures about --seconds of program time.
constexpr double kSolveQueriesPerS = 50.0;   // one RWR query ~ 15 ms
constexpr double kServeRequestsPerS = 80.0;  // one width-32 batch ~ 0.4 s
constexpr double kStreamSolvesPerS = 2.5;    // ~12 streamed SpMVs of ~40 ms

constexpr long long kScale = 64;  // corpus scale: WIK at 1/64 of paper size
constexpr int kSetups = 7;        // setup repetitions; setup_s is the median
constexpr double kEps = 1e-6;     // solver tolerance (the paper's)
constexpr double kRwrC = 0.9;     // RWR continuation probability
constexpr double kDamping = 0.85;
constexpr int kTenants = 4;
constexpr int kMaxWidth = 32;
// Outstanding requests per tenant, by priority rank (highest first). The
// three higher-priority tenants (18 requests) fit in every batch and wait
// one batch; the lowest, a bulk tenant, fills the other 14 columns and,
// 28 deep, waits exactly two. So 18/32 of the requests take one batch and
// 14/32 take two: op_ms_p50 lies in the upper part of the one-batch
// group and op_ms_p90 inside the two-batch group, neither at the edge of
// a group nor at its middle. The host switches between a fast and a slow
// speed for seconds to minutes at a time (perfbench/README.md); a
// quantile at the middle of one group flips between the two speeds with
// the share of the run spent slow, one in the upper part of it does not
// unless the run is almost all fast.
constexpr int kWindows[kTenants] = {6, 6, 6, 28};
constexpr int kFaults = 3;        // transient storage-read faults per run
/// Ledger closure tolerance: share of the traced run_s no span covers.
constexpr double kLedgerTol = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double delay_s = 0.0;
  std::string spans_out;
};

double median(Vec v) { return pb::percentile(std::move(v), 0.5); }

/// The reference SpMV of every oracle: a plain row loop over the CSR
/// arrays, independent of every engine.
void host_spmv(const mat::Csr<double>& a, const Vec& x, Vec& y) {
  y.assign(static_cast<std::size_t>(a.rows), 0.0);
  for (std::size_t r = 0; r < y.size(); ++r) {
    double s = 0.0;
    for (auto i = a.row_off[r]; i < a.row_off[r + 1]; ++i)
      s += a.vals[static_cast<std::size_t>(i)] *
           x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(i)])];
    y[r] = s;
  }
}

/// True when y = A x up to the rounding of a reordered sum: the engines
/// reduce a row in their own order, so each y_i may differ from the
/// sequential sum by at most 2 gamma_k sum_j |a_ij x_j|, with k the row
/// length and gamma_k = k u / (1 - k u).
bool within_reorder_bound(const mat::Csr<double>& a, const Vec& x,
                          const Vec& y) {
  if (y.size() != static_cast<std::size_t>(a.rows)) return false;
  constexpr double u = 0x1.0p-53;
  for (std::size_t r = 0; r < y.size(); ++r) {
    double s = 0.0, mag = 0.0;
    for (auto i = a.row_off[r]; i < a.row_off[r + 1]; ++i) {
      const double t =
          a.vals[static_cast<std::size_t>(i)] *
          x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(i)])];
      s += t;
      mag += std::fabs(t);
    }
    const double k = static_cast<double>(a.row_off[r + 1] - a.row_off[r]) + 1;
    if (!(std::fabs(y[r] - s) <= 2.0 * k * u / (1.0 - k * u) * mag))
      return false;
  }
  return true;
}

double l2_dist(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) return INFINITY;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

/// Everything one run measures. Harness time (input generation, oracle
/// checks) is kept apart so that run_s and op latencies exclude it.
struct Run {
  Run(bool trace, double delay) : tracer(trace), delay_s(delay) {}

  pb::Tracer tracer;
  double delay_s;  // injected busy-wait per engine call (self-test only)

  // setup
  Vec setup_s, build_s, make_s, capture_s;
  double preprocess_sim_ms = 0.0;
  int fallbacks = 0;
  std::size_t slabs = 0;
  std::size_t matrix_bytes = 0;
  std::uint64_t matrix_nnz = 0;

  // ops phase
  double phase_start = 0.0, phase_end = 0.0;
  double gen_s = 0.0, oracle_s = 0.0;
  Vec op_ms, sim_op_ms;
  double sim_ms = 0.0;
  long attempted = 0, failed = 0;
  std::vector<std::string> errors;

  // layers
  long engine_calls = 0;
  double engine_vectors = 0.0;  // SpMV columns served by engine calls
  Vec call_ms;
  vgpu::Counters counters;
  prof::IoAgg io;
  long apps_iters = 0;
  vgpu::memo::MemoStats memo;
  std::uint64_t batches = 0;
  double width_mean = 0.0;
  long shed = 0;
  Vec sim_wait_ms;
  double host_spmv_s = 0.0;

  void fail(long op, const std::string& why) {
    ++failed;
    if (errors.size() < 5)
      errors.push_back("op " + std::to_string(op) + ": " + why);
  }

  /// Time `f` as harness work named `name` (a span when tracing).
  template <class F>
  void harness(const char* name, long op, double& acc, F&& f) {
    const double t0 = pb::now_s();
    {
      pb::Scope s(tracer, name, op);
      f();
    }
    acc += pb::now_s() - t0;
  }
};

void add_io(prof::IoAgg& a, const prof::IoAgg& b) {
  a.reads += b.reads;
  a.read_bytes += b.read_bytes;
  a.demand_bytes += b.demand_bytes;
  a.retries += b.retries;
  a.checksum_failures += b.checksum_failures;
  a.queue_peak = std::max(a.queue_peak, b.queue_peak);
  a.read_s += b.read_s;
  a.penalty_s += b.penalty_s;
  a.stall_s += b.stall_s;
  a.overlap_s += b.overlap_s;
}

void busy_wait(double s) {
  if (s <= 0.0) return;
  const double until = pb::now_s() + s;
  while (pb::now_s() < until) {
  }
}

/// Forwarding decorator around one engine: an "engine" span and a timer
/// around every simulate/simulate_batch, plus the counters the engine
/// exposes after each call. With `ops_are_calls`, every simulate() is one
/// op of the run, and its y is checked bitwise against apply().
class SpanEngine final : public spmv::SpmvEngine<double> {
 public:
  SpanEngine(spmv::SpmvEngine<double>& inner, Run& run, long op,
             bool ops_are_calls = false)
      : inner_(inner), run_(run), op_(op), ops_are_calls_(ops_are_calls) {}

  const std::string& name() const override { return inner_.name(); }
  vgpu::Device& device() override { return inner_.device(); }
  mat::index_t rows() const override { return inner_.rows(); }
  mat::index_t cols() const override { return inner_.cols(); }
  mat::offset_t nnz() const override { return inner_.nnz(); }
  const spmv::EngineReport& report() const override { return inner_.report(); }
  long next_op() const { return op_; }
  void apply(const Vec& x, Vec& y) const override { inner_.apply(x, y); }
  void apply_batch(const mat::DenseBlock<double>& x,
                   mat::DenseBlock<double>& y) const override {
    inner_.apply_batch(x, y);
  }

  double simulate(const Vec& x, Vec& y) override {
    const long op = ops_are_calls_ ? op_++ : op_;
    const double t0 = pb::now_s();
    double sim_s;
    {
      pb::Scope s(run_.tracer, "engine", op);
      busy_wait(run_.delay_s);
      sim_s = inner_.simulate(x, y);
    }
    const double host_s = pb::now_s() - t0;
    record(host_s, 1);
    if (ops_are_calls_) {
      ++run_.attempted;
      run_.op_ms.push_back(host_s * 1e3);
      run_.sim_op_ms.push_back(sim_s * 1e3);
      run_.sim_ms += sim_s * 1e3;
      run_.harness("harness.oracle", op, run_.oracle_s, [&] {
        Vec want;
        inner_.apply(x, want);
        if (want != y) run_.fail(op, "streamed SpMV differs from apply()");
      });
    }
    return sim_s;
  }

  double simulate_batch(const mat::DenseBlock<double>& x,
                        mat::DenseBlock<double>& y) override {
    const double t0 = pb::now_s();
    double sim_s;
    {
      pb::Scope s(run_.tracer, "engine", op_);
      busy_wait(run_.delay_s);
      sim_s = inner_.simulate_batch(x, y);
    }
    record(pb::now_s() - t0, x.width);
    return sim_s;
  }

 private:
  void record(double host_s, int width) {
    ++run_.engine_calls;
    run_.engine_vectors += width;
    run_.call_ms.push_back(host_s * 1e3);
    run_.counters += inner_.report().last_run.counters;
    if (auto* r = dynamic_cast<core::ResilientEngine<double>*>(&inner_))
      if (auto* o =
              dynamic_cast<core::OocCsrEngine<double>*>(&r->active_engine()))
        add_io(run_.io, o->io_stats());
  }

  spmv::SpmvEngine<double>& inner_;
  Run& run_;
  long op_;
  bool ops_are_calls_;
};

/// The power-law WIK stand-in, generated from the run's seed.
mat::Csr<double> build_graph(Run& run, std::uint64_t seed, double& t_build) {
  const double t0 = pb::now_s();
  mat::Csr<double> adj;
  {
    pb::Scope s(run.tracer, "graph.build", -1);
    adj = graph::build_matrix(graph::corpus_entry("WIK"), kScale,
                              seed * 0x9e3779b97f4a7c15ULL + 13);
  }
  t_build = pb::now_s() - t0;
  return adj;
}

std::unique_ptr<vgpu::Device> titan() {
  return std::make_unique<vgpu::Device>(vgpu::DeviceSpec::gtx_titan());
}

/// Measure the plain host CSR SpMV the engine overhead is stated against.
double time_host_spmv(const mat::Csr<double>& a) {
  Vec x(static_cast<std::size_t>(a.cols), 1.0), y;
  Vec t;
  for (int i = 0; i < 21; ++i) {
    const double t0 = pb::now_s();
    host_spmv(a, x, y);
    t.push_back(pb::now_s() - t0);
  }
  return median(t);
}

// --- solve: RWR queries over a memoized resident ACSR engine ----------------

struct SolveState {
  mat::Csr<double> w;
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<spmv::SpmvEngine<double>> engine;
};

SolveState solve_setup(Run& run, std::uint64_t seed) {
  SolveState st;
  double t_build = 0.0;
  const double t0 = pb::now_s();
  vgpu::memo::MemoCache::instance().reset_stats();
  st.w = apps::rwr_matrix(build_graph(run, seed, t_build));
  st.dev = titan();
  const double t1 = pb::now_s();
  {
    pb::Scope s(run.tracer, "core.make_engine", -1);
    st.engine = core::make_engine<double>("acsr", *st.dev, st.w);
  }
  const double t2 = pb::now_s();
  {
    // The memo capture: the first simulate() records the launch metering
    // every later query replays.
    pb::Scope s(run.tracer, "memo.capture", -1);
    st.engine->spmv_seconds();
  }
  const double t3 = pb::now_s();
  run.build_s.push_back(t_build);
  run.make_s.push_back(t2 - t1);
  run.capture_s.push_back(t3 - t2);
  run.setup_s.push_back(t3 - t0);
  run.preprocess_sim_ms = st.engine->report().preprocess_s * 1e3;
  return st;
}

Vec host_rwr(const mat::Csr<double>& w, mat::index_t src) {
  Vec r(static_cast<std::size_t>(w.rows), 0.0), y;
  r[static_cast<std::size_t>(src)] = 1.0;
  for (int k = 0; k < 10000; ++k) {
    host_spmv(w, r, y);
    for (double& v : y) v *= kRwrC;
    y[static_cast<std::size_t>(src)] += 1.0 - kRwrC;
    const double d = l2_dist(y, r);
    r.swap(y);
    if (d < kEps) break;
  }
  return r;
}

void solve_ops(Run& run, SolveState& st, std::uint64_t seed, double seconds) {
  const long n_ops = std::lround(seconds * kSolveQueriesPerS);
  std::vector<mat::index_t> sources;
  run.harness("harness.gen", -1, run.gen_s, [&] {
    Rng rng(seed ^ 0x50f7e5ULL);
    for (long i = 0; i < n_ops; ++i)
      sources.push_back(static_cast<mat::index_t>(
          rng.next_below(static_cast<std::uint64_t>(st.w.rows))));
  });
  // Two correct solves that each stopped at a step below eps are within
  // eps * c / (1 - c) of the fixpoint, so of each other within twice that.
  const double tol = 2.0 * kEps * kRwrC / (1.0 - kRwrC);
  for (long op = 0; op < n_ops; ++op) {
    apps::RwrConfig cfg;
    cfg.c = kRwrC;
    cfg.source = sources[static_cast<std::size_t>(op)];
    cfg.iter.epsilon = kEps;
    ++run.attempted;
    apps::AppResult<double> res;
    try {
      const double t0 = pb::now_s();
      {
        pb::Scope s(run.tracer, "apps.rwr", op);
        // A fresh decorator per query: SpmvEngine caches spmv_seconds()
        // per object, so each query asks the executor once, and the memo
        // plane answers it by replay.
        SpanEngine dec(*st.engine, run, op);
        res = apps::rwr(dec, cfg);
      }
      run.op_ms.push_back((pb::now_s() - t0) * 1e3);
    } catch (const std::exception& e) {
      run.fail(op, e.what());
      continue;
    }
    run.sim_op_ms.push_back(res.total_s * 1e3);
    run.sim_ms += res.total_s * 1e3;
    run.apps_iters += res.iterations;
    run.harness("harness.oracle", op, run.oracle_s, [&] {
      const double d = l2_dist(res.scores, host_rwr(st.w, cfg.source));
      if (!res.converged || !(d <= tol))
        run.fail(op, "RWR scores off the host power iteration by " +
                         std::to_string(d));
    });
  }
}

// --- serve: closed-loop multi-tenant SpMM serving ---------------------------

struct ServeState {
  mat::Csr<double> w;
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<core::ResilientEngine<double>> engine;
};

ServeState serve_setup(Run& run, std::uint64_t seed) {
  ServeState st;
  double t_build = 0.0;
  const double t0 = pb::now_s();
  st.w = apps::rwr_matrix(build_graph(run, seed, t_build));
  st.dev = titan();
  const double t1 = pb::now_s();
  {
    pb::Scope s(run.tracer, "core.make_engine", -1);
    st.engine = std::make_unique<core::ResilientEngine<double>>(
        std::vector<vgpu::Device*>{st.dev.get()}, st.w, "acsr");
  }
  const double t2 = pb::now_s();
  {
    // First-launch scratch: the engines allocate per-width staging
    // buffers on first use; warm the full width the run serves.
    pb::Scope s(run.tracer, "engine.warmup", -1);
    mat::DenseBlock<double> x(st.w.cols, kMaxWidth), y;
    for (int c = 0; c < kMaxWidth; ++c) x.at(c, c) = 1.0;
    st.engine->simulate_batch(x, y);
  }
  run.build_s.push_back(t_build);
  run.make_s.push_back(t2 - t1);
  run.setup_s.push_back(pb::now_s() - t0);
  run.preprocess_sim_ms = st.engine->report().preprocess_s * 1e3;
  run.fallbacks = st.engine->fallbacks();
  return st;
}

struct Pending {
  std::uint64_t id = 0;
  long op = 0;
  double prog_start = 0.0;  // program-clock reading before submit
  double sim_start = 0.0;   // scheduler clock at admission
  Vec x;
};

void serve_ops(Run& run, ServeState& st, std::uint64_t seed, double seconds) {
  const long n_req = std::lround(seconds * kServeRequestsPerS);
  Rng rng(seed ^ 0x5e77eULL);
  // Priorities are a seeded permutation of {3, 2, 1, 0}: the same shape of
  // contention on every seed, so tail percentiles keep their meaning.
  int prio[kTenants] = {3, 2, 1, 0};
  for (int i = kTenants - 1; i > 0; --i)
    std::swap(prio[i], prio[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
  const std::string names[kTenants] = {"t0", "t1", "t2", "t3"};

  SpanEngine dec(*st.engine, run, -1);
  serve::ServeOptions opt;
  opt.max_batch_width = kMaxWidth;
  serve::BatchScheduler<double> sched(dec, opt);

  // The program clock advances only inside calls into the program, so a
  // request's latency excludes the harness work done while it waited.
  double prog = 0.0;
  long submitted = 0;
  std::deque<Pending> pending[kTenants];

  auto submit = [&](int t) {
    Pending p;
    p.op = submitted++;
    ++run.attempted;
    run.harness("harness.gen", p.op, run.gen_s, [&] {
      p.x.assign(static_cast<std::size_t>(st.w.cols), 0.0);
      for (int k = 0; k < 16; ++k)
        p.x[rng.next_below(static_cast<std::uint64_t>(st.w.cols))] +=
            1.0 + rng.next_double();
    });
    p.prog_start = prog;
    p.sim_start = sched.clock_s();
    const double t0 = pb::now_s();
    try {
      pb::Scope s(run.tracer, "serve.submit", p.op);
      p.id = sched.submit(p.x, names[t], prio[t]);
    } catch (const serve::OverloadError& e) {
      prog += pb::now_s() - t0;
      ++run.shed;
      run.fail(p.op, e.what());
      return;
    }
    prog += pb::now_s() - t0;
    pending[t].push_back(std::move(p));
  };

  for (int k = 0; k < kWindows[kTenants - 1]; ++k)
    for (int t = 0; t < kTenants && submitted < n_req; ++t)
      if (k < kWindows[kTenants - 1 - prio[t]]) submit(t);

  for (;;) {
    std::uint64_t served_before[kTenants];
    for (int t = 0; t < kTenants; ++t) {
      auto it = sched.tenants().find(names[t]);
      served_before[t] = it == sched.tenants().end() ? 0 : it->second.requests;
    }
    const double launch_clock = sched.clock_s();
    const double t0 = pb::now_s();
    int width = 0;
    try {
      pb::Scope s(run.tracer, "serve.step", -1);
      width = sched.step();
    } catch (const std::exception& e) {
      prog += pb::now_s() - t0;
      for (auto& q : pending)
        for (const Pending& p : q) run.fail(p.op, e.what());
      break;
    }
    prog += pb::now_s() - t0;
    if (width == 0) break;
    const double end_clock = sched.clock_s();
    bool first_checked = false;
    // Which requests the batch served: per tenant, the billing count says
    // how many, and requests of one tenant share priority and deadline,
    // so the queue serves them oldest first.
    for (int t = 0; t < kTenants; ++t) {
      auto it = sched.tenants().find(names[t]);
      const std::uint64_t served =
          it == sched.tenants().end() ? 0 : it->second.requests - served_before[t];
      for (std::uint64_t k = 0; k < served; ++k) {
        if (pending[t].empty())
          throw std::runtime_error("scheduler served an unknown request");
        Pending p = std::move(pending[t].front());
        pending[t].pop_front();
        Vec y;
        const double t1 = pb::now_s();
        try {
          y = sched.take_result(p.id);
        } catch (const std::exception& e) {
          prog += pb::now_s() - t1;
          run.fail(p.op, e.what());
          if (submitted < n_req) submit(t);
          continue;
        }
        prog += pb::now_s() - t1;
        run.op_ms.push_back((prog - p.prog_start) * 1e3);
        run.sim_op_ms.push_back((end_clock - p.sim_start) * 1e3);
        run.sim_wait_ms.push_back((launch_clock - p.sim_start) * 1e3);
        run.harness("harness.oracle", p.op, run.oracle_s, [&] {
          if (!within_reorder_bound(st.w, p.x, y))
            run.fail(p.op, "served column is not A x");
          // The batched kernels keep each column's reduction order equal
          // to the scalar device SpMV's: check that bitwise on the first
          // column of every batch (a full metered SpMV, so not on all).
          if (!first_checked) {
            Vec want;
            st.engine->simulate(p.x, want);
            if (y != want)
              run.fail(p.op, "served column differs from the scalar SpMV");
          }
        });
        first_checked = true;
        if (submitted < n_req) submit(t);
      }
    }
  }
  run.sim_ms = sched.clock_s() * 1e3;
  run.batches = sched.batches();
  run.width_mean = sched.batch_width_avg();
}

// --- stream: PageRank through the out-of-core rung under storage faults -----

struct StreamState {
  mat::Csr<double> pm;
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<core::ResilientEngine<double>> engine;
  std::uint64_t reads_per_spmv = 0;
};

StreamState stream_setup(Run& run, std::uint64_t seed) {
  StreamState st;
  double t_build = 0.0;
  const double t0 = pb::now_s();
  st.pm = apps::pagerank_matrix(build_graph(run, seed, t_build));
  st.dev = titan();
  // Pin the device below the matrix footprint: every in-core rung fails
  // with DeviceOom and the driver degrades to ooc-csr. The streaming
  // budget puts the footprint at 8.5 slab caps (cap = budget / 2), so the
  // greedy partition yields 9 slabs on (nearly) every seed's graph instead
  // of flipping between 8 and 9 at a whole-number boundary. Reads are
  // rounded out to whole stripes; 16 KiB stripes keep that rounding small
  // beside a ~470 KB slab (the default 256 KiB stripe makes the simulated
  // time jump by ~13% between seeds' graphs with the slab alignment).
  const std::size_t footprint = st.pm.bytes();
  st.dev->set_memory_capacity(footprint / 2);
  core::EngineConfig cfg;
  cfg.ooc.budget_bytes = footprint * 4 / 17;
  cfg.ooc.tier.stripe_bytes = 16 * 1024;
  const double t1 = pb::now_s();
  {
    pb::Scope s(run.tracer, "core.make_engine", -1);
    st.engine = std::make_unique<core::ResilientEngine<double>>(
        std::vector<vgpu::Device*>{st.dev.get()}, st.pm, "acsr", cfg);
  }
  const double t2 = pb::now_s();
  {
    pb::Scope s(run.tracer, "engine.warmup", -1);
    Vec x(static_cast<std::size_t>(st.pm.cols), 1.0), y;
    st.engine->simulate(x, y);
  }
  run.build_s.push_back(t_build);
  run.make_s.push_back(t2 - t1);
  run.setup_s.push_back(pb::now_s() - t0);
  run.preprocess_sim_ms = st.engine->report().preprocess_s * 1e3;
  run.fallbacks = st.engine->fallbacks();
  auto* ooc =
      dynamic_cast<core::OocCsrEngine<double>*>(&st.engine->active_engine());
  run.slabs = ooc != nullptr ? ooc->num_slabs() : 0;
  st.reads_per_spmv = ooc != nullptr ? ooc->io_stats().reads : 0;
  return st;
}

Vec host_pagerank(const mat::Csr<double>& pm, Vec pr) {
  const double base = (1.0 - kDamping) / static_cast<double>(pm.rows);
  Vec y;
  for (int k = 0; k < 10000; ++k) {
    host_spmv(pm, pr, y);
    double sum = 0.0;
    for (double& v : y) {
      v = base + kDamping * v;
      sum += v;
    }
    for (double& v : y) v /= sum;
    const double d = l2_dist(y, pr);
    pr.swap(y);
    if (d < kEps) break;
  }
  return pr;
}

void stream_ops(Run& run, StreamState& st, std::uint64_t seed, double seconds) {
  const long n_solves = std::lround(seconds * kStreamSolvesPerS);
  const auto n = static_cast<std::size_t>(st.pm.rows);
  std::vector<Vec> starts;
  std::string plan;
  run.harness("harness.gen", -1, run.gen_s, [&] {
    Rng rng(seed ^ 0x57eea3ULL);
    for (long s = 0; s < n_solves; ++s) {
      Vec v(n);
      double sum = 0.0;
      for (double& x : v) sum += (x = 0.5 + rng.next_double());
      for (double& x : v) x /= sum;
      starts.push_back(std::move(v));
    }
    // Transient read faults at seeded reads of the run's first ~30 SpMVs;
    // the storage tier retries each one, so none escapes.
    const std::uint64_t span = std::max<std::uint64_t>(st.reads_per_spmv, 1) * 30;
    for (int f = 0; f < kFaults; ++f)
      plan += "io_transient@read#" + std::to_string(1 + rng.next_below(span)) +
              ";";
  });
  vgpu::FaultInjector::instance().configure(plan);
  const double tol = 2.0 * kEps * kDamping / (1.0 - kDamping);
  long op = 0;
  for (long s = 0; s < n_solves; ++s) {
    apps::PageRankConfig cfg;
    cfg.damping = kDamping;
    cfg.iter.epsilon = kEps;
    cfg.iter.device_loop = true;
    apps::AppResult<double> res;
    const long first_op = op;
    SpanEngine dec(*st.engine, run, first_op, /*ops_are_calls=*/true);
    try {
      pb::Scope sp(run.tracer, "apps.pagerank", first_op);
      res = apps::pagerank(dec, cfg, &starts[static_cast<std::size_t>(s)]);
    } catch (const std::exception& e) {
      // The SpMV that threw took the last op id but was not counted.
      op = dec.next_op();
      ++run.attempted;
      run.fail(op - 1, e.what());
      continue;
    }
    op = dec.next_op();
    run.apps_iters += res.iterations;
    run.harness("harness.oracle", first_op, run.oracle_s, [&] {
      const double d = l2_dist(
          res.scores, host_pagerank(st.pm, starts[static_cast<std::size_t>(s)]));
      if (!res.converged || !(d <= tol))
        run.fail(first_op, "PageRank off the host power iteration by " +
                               std::to_string(d));
    });
  }
  vgpu::FaultInjector::instance().disable();
}

// --- output -------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string json_obj(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ",";
    o += json_str(k) + ":" + num(v);
  }
  return o + "}";
}

double safe_div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void write_spans(const Run& run, const std::string& path) {
  std::ofstream f(path);
  f << "name\tstart_s\tend_s\tparent\top\n";
  for (const pb::Span& s : run.tracer.spans())
    f << s.name << '\t' << num(s.start - run.phase_start) << '\t'
      << num(s.end - run.phase_start) << '\t' << s.parent << '\t' << s.op
      << '\n';
}

int report(Run& run, const Options& o) {
  std::map<std::string, double> e2e, layer, det;
  const double harness_s = run.gen_s + run.oracle_s;
  const double run_s = (run.phase_end - run.phase_start) - harness_s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  e2e["setup_s"] = median(run.setup_s);
  e2e["run_s"] = run_s;
  e2e["op_ms_p50"] = median(run.op_ms);
  e2e["op_ms_p90"] = pb::reported_percentile(run.op_ms, 0.9, "op_ms");
  e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  e2e["sim_ms"] = run.sim_ms;
  e2e["sim_op_ms_p90"] =
      pb::reported_percentile(run.sim_op_ms, 0.9, "sim_op_ms");
  e2e["fail_frac"] = safe_div(static_cast<double>(run.failed),
                              static_cast<double>(run.attempted));

  const vgpu::Counters& c = run.counters;
  const double flops = static_cast<double>(c.sp_flops + c.dp_flops);
  det["sim_ms"] = e2e["sim_ms"];
  det["sim_op_ms_p90"] = e2e["sim_op_ms_p90"];
  det["apps.iters"] = static_cast<double>(run.apps_iters);
  det["vgpu.blocks"] = static_cast<double>(c.blocks);
  det["vgpu.warps"] = static_cast<double>(c.warps);
  det["vgpu.gmem_bytes"] = static_cast<double>(c.gmem_bytes);
  det["vgpu.tex_bytes"] = static_cast<double>(c.tex_bytes);
  det["vgpu.flops"] = flops;
  det["vgpu.child_launches"] = static_cast<double>(c.child_launches);
  det["vgpu.flop_per_byte"] =
      safe_div(flops, static_cast<double>(c.gmem_bytes + c.tex_bytes));
  det["memo.hits"] = static_cast<double>(run.memo.hits);
  det["memo.misses"] = static_cast<double>(run.memo.misses);
  det["memo.hit_ratio"] = safe_div(static_cast<double>(run.memo.hits),
                                   static_cast<double>(run.memo.hits +
                                                       run.memo.misses));
  det["ooc.slabs"] = static_cast<double>(run.slabs);
  for (const char* m : {"reads", "read_bytes", "read_amplification",
                        "overlap_efficiency", "retries"})
    det[std::string("io.") + m] =
        prof::find_io_metric(std::string("io.") + m)->compute(run.io);
  det["io.penalty_sim_ms"] = run.io.penalty_s * 1e3;
  det["io.stall_sim_ms"] = run.io.stall_s * 1e3;
  det["serve.batches"] = static_cast<double>(run.batches);
  det["attempted"] = static_cast<double>(run.attempted);
  det["failed"] = static_cast<double>(run.failed);

  for (const auto& [k, v] : det)
    if (k != "attempted" && k != "failed" && k.rfind("sim_", 0) != 0)
      layer[k] = v;
  layer["graph.build_s"] = median(run.build_s);
  layer["core.make_engine_s"] = median(run.make_s);
  layer["core.preprocess_sim_ms"] = run.preprocess_sim_ms;
  layer["core.fallbacks"] = run.fallbacks;
  layer["memo.capture_s"] = run.capture_s.empty() ? 0.0 : median(run.capture_s);
  layer["engine.calls"] = static_cast<double>(run.engine_calls);
  layer["engine.call_ms_p50"] = run.call_ms.empty() ? 0.0 : median(run.call_ms);
  layer["serve.width_mean"] = run.width_mean;
  layer["serve.shed"] = static_cast<double>(run.shed);
  layer["serve.sim_wait_ms_p90"] =
      run.sim_wait_ms.empty() ? 0.0 : pb::percentile(run.sim_wait_ms, 0.9);
  layer["harness.gen_s"] = run.gen_s;
  layer["harness.oracle_s"] = run.oracle_s;

  bool ledger_ok = true;
  if (run.tracer.on()) {
    const auto self = pb::self_by_name(run.tracer.spans(), run.phase_start,
                                       run.phase_end);
    auto get = [&](const char* k) {
      auto it = self.find(k);
      return it == self.end() ? 0.0 : it->second;
    };
    const pb::Ledger l =
        pb::close_ledger(self, run.phase_end - run.phase_start);
    layer["engine.self_s"] = get("engine");
    layer["engine.host_ns_per_nnz"] =
        safe_div(get("engine") * 1e9,
                 run.engine_vectors * static_cast<double>(run.matrix_nnz));
    layer["engine.overhead_x"] = safe_div(
        safe_div(get("engine"), run.engine_vectors), run.host_spmv_s);
    layer["apps.self_s"] = get("apps.rwr") + get("apps.pagerank");
    layer["serve.submit_s"] = get("serve.submit");
    layer["serve.self_s"] = get("serve.step");
    layer["ledger.unattributed_frac"] = l.unattributed_frac;
    ledger_ok = std::fabs(l.unattributed_frac) <= kLedgerTol;
    if (!o.spans_out.empty()) write_spans(run, o.spans_out);
  }

  std::string errs = "[";
  for (const std::string& e : run.errors)
    errs += (errs.size() > 1 ? "," : "") + json_str(e);
  errs += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"attempted\":%ld,"
      "\"failed\":%ld,\"ledger_ok\":%s,\"ledger_tol\":%s,\"acsr_scale\":%lld,"
      "\"matrix_bytes\":%zu,"
      "\"e2e\":%s,\"layer\":%s,\"det\":%s,\"errors\":%s}\n",
      json_str(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.trace ? 1 : 0, run.attempted, run.failed, ledger_ok ? "true" : "false",
      num(kLedgerTol).c_str(), kScale, run.matrix_bytes, json_obj(e2e).c_str(),
      json_obj(layer).c_str(), json_obj(det).c_str(), errs.c_str());
  return 0;
}

template <class State, class Setup, class Ops>
int run_workload(const Options& o, Setup setup, Ops ops,
                 const mat::Csr<double>& (*matrix)(const State&)) {
  Run run(o.trace, o.delay_s);
  std::unique_ptr<State> st;
  for (int i = 0; i < kSetups; ++i) {
    st.reset();  // tear the previous setup down before timing the next
    st = std::make_unique<State>(setup(run, o.seed));
  }
  const mat::Csr<double>& a = matrix(*st);
  run.matrix_bytes = a.bytes();
  run.matrix_nnz = static_cast<std::uint64_t>(a.nnz());
  run.phase_start = pb::now_s();
  ops(run, *st, o.seed, o.seconds);
  run.phase_end = pb::now_s();
  run.memo = vgpu::memo::MemoCache::instance().stats();
  if (o.trace) run.host_spmv_s = time_host_spmv(a);
  return report(run, o);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload solve|serve|stream "
               "--seed N --seconds S --trace 0|1 [--inject-delay-us D] "
               "[--spans-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--inject-delay-us") {
      o.delay_s = std::strtod(v.c_str(), &end) * 1e-6;
    } else if (k == "--spans-out") {
      o.spans_out = v;
    } else {
      return usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && *end != '\0')
      return usage(("bad value for " + k).c_str());
  }
  if (!(o.seconds > 0.0 && o.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  try {
    if (o.workload == "solve") {
      vgpu::memo::set_memo_enabled(true);
      return run_workload<SolveState>(
          o, solve_setup, solve_ops,
          +[](const SolveState& s) -> const mat::Csr<double>& { return s.w; });
    }
    vgpu::memo::set_memo_enabled(false);
    if (o.workload == "serve")
      return run_workload<ServeState>(
          o, serve_setup, serve_ops,
          +[](const ServeState& s) -> const mat::Csr<double>& { return s.w; });
    if (o.workload == "stream")
      return run_workload<StreamState>(
          o, stream_setup, stream_ops,
          +[](const StreamState& s) -> const mat::Csr<double>& { return s.pm; });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage(("unknown workload '" + o.workload + "'").c_str());
}
