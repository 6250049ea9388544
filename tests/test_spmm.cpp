// Batched SpMM + serving plane tests (tier 1).
//
// The contracts pinned here are the tentpole's acceptance criteria:
//   * apply_batch is bit-identical to k scalar applies on every engine
//     (the correct-by-construction loop is the spec, the real kernels an
//     optimization of metering only);
//   * simulate_batch matches the host reference on every engine,
//     including the real column-blocked kernels;
//   * the real SpMM kernels amortize matrix sector traffic: gmem bytes
//     per vector strictly fall as the batch widens, and a width-32 batch
//     moves far less than 32 scalar sweeps;
//   * width-0 blocks are a no-op, width-1 routes through the scalar SpMV
//     path (memo keys stay compatible);
//   * the batch scheduler coalesces priority-first, sheds on overload
//     with a typed error, and bills tenants on the simulated clock.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/rwr.hpp"
#include "apps/rwr_batch.hpp"
#include "core/factory.hpp"
#include "core/memo_engine.hpp"
#include "core/resilient.hpp"
#include "graph/powerlaw.hpp"
#include "mat/dense_block.hpp"
#include "serve/scheduler.hpp"
#include "vgpu/memo.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::mat::Csr;
using acsr::mat::DenseBlock;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::memo::MemoCache;

Csr<double> powerlaw(acsr::mat::index_t rows, double mean, unsigned seed) {
  acsr::graph::PowerLawSpec s;
  s.rows = rows;
  s.cols = rows;
  s.mean_nnz_per_row = mean;
  s.alpha = 1.7;
  s.max_row_nnz = rows / 2;
  s.seed = seed;
  return acsr::graph::powerlaw_matrix(s);
}

DenseBlock<double> random_block(acsr::mat::index_t rows, int k,
                                unsigned seed) {
  DenseBlock<double> b(rows, k);
  unsigned state = seed;
  for (int c = 0; c < k; ++c)
    for (acsr::mat::index_t r = 0; r < rows; ++r) {
      state = state * 1664525u + 1013904223u;
      b.at(r, c) = 0.25 + (state % 64) * 0.03125;
    }
  return b;
}

struct MemoGuard {
  MemoGuard() {
    MemoCache::instance().clear();
    MemoCache::instance().reset_stats();
    acsr::vgpu::memo::set_memo_enabled(true);
  }
  ~MemoGuard() {
    acsr::vgpu::memo::set_memo_enabled(false);
    MemoCache::instance().clear();
    MemoCache::instance().reset_stats();
  }
};

const char* kAllEngines[] = {"csr-scalar", "csr-vector", "csr",
                             "csr-cusparse", "ell", "coo", "hyb", "brc",
                             "bccoo", "tcoo", "sic", "merge-csr", "sell",
                             "bcsr", "acsr", "acsr-binning"};

// --- DenseBlock --------------------------------------------------------------

TEST(DenseBlock, PaddedColumnMajorLayout) {
  DenseBlock<double> b(50, 3);
  EXPECT_EQ(b.rows, 50);
  EXPECT_EQ(b.width, 3);
  EXPECT_EQ(b.ld, 64);  // 50 rounded up to 32-multiple
  EXPECT_EQ(b.data.size(), 64u * 3u);
  b.at(49, 2) = 7.0;
  EXPECT_EQ(b.data[2 * 64 + 49], 7.0);

  std::vector<double> col(50, 1.5);
  b.set_column(1, col);
  EXPECT_EQ(b.column(1), col);
  // Padding rows stay zero after set_column.
  for (acsr::mat::index_t r = 50; r < 64; ++r) EXPECT_EQ(b.at(r, 1), 0.0);
}

TEST(DenseBlock, ZeroColumnsIsEmpty) {
  DenseBlock<double> b(100, 0);
  EXPECT_EQ(b.width, 0);
  EXPECT_TRUE(b.data.empty());
}

// --- batched exactness across every engine -----------------------------------

class SpmmExactness : public ::testing::TestWithParam<const char*> {};

TEST_P(SpmmExactness, BatchedMatchesScalar) {
  const std::string name = GetParam();
  const Csr<double> a = powerlaw(500, 7.0, 17);
  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  std::unique_ptr<acsr::spmv::SpmvEngine<double>> engine;
  try {
    engine = make_engine<double>(name, dev, a, cfg);
  } catch (const acsr::InputError& e) {
    ASSERT_EQ(name, "ell");  // documented refusal of pathological shapes
    GTEST_SKIP() << e.what();
  }

  const int k = 5;
  const DenseBlock<double> x = random_block(a.cols, k, 99);

  // Host path: bit-for-bit the k scalar applies.
  DenseBlock<double> y_batch;
  engine->apply_batch(x, y_batch);
  ASSERT_EQ(y_batch.rows, a.rows);
  ASSERT_EQ(y_batch.width, k);
  for (int c = 0; c < k; ++c) {
    std::vector<double> y_scalar;
    engine->apply(x.column(c), y_scalar);
    EXPECT_EQ(y_batch.column(c), y_scalar) << "column " << c;
  }

  // Device path: every engine (looped default or real SpMM kernels) must
  // match the host reference.
  DenseBlock<double> y_sim;
  const double t = engine->simulate_batch(x, y_sim);
  EXPECT_GT(t, 0.0);
  ASSERT_EQ(y_sim.rows, a.rows);
  ASSERT_EQ(y_sim.width, k);
  for (int c = 0; c < k; ++c) {
    std::vector<double> y_ref;
    a.spmv(x.column(c), y_ref);
    const std::vector<double> y_col = y_sim.column(c);
    for (std::size_t r = 0; r < y_ref.size(); ++r) {
      const double scale = std::max(1.0, std::abs(y_ref[r]));
      EXPECT_NEAR(y_col[r], y_ref[r], 1e-9 * scale)
          << "column " << c << " row " << r;
    }
  }
}

TEST_P(SpmmExactness, ZeroWidthIsNoOp) {
  const std::string name = GetParam();
  const Csr<double> a = powerlaw(200, 5.0, 3);
  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.hyb_breakeven = 64;
  std::unique_ptr<acsr::spmv::SpmvEngine<double>> engine;
  try {
    engine = make_engine<double>(name, dev, a, cfg);
  } catch (const acsr::InputError& e) {
    ASSERT_EQ(name, "ell");
    GTEST_SKIP() << e.what();
  }

  const DenseBlock<double> x(a.cols, 0);
  DenseBlock<double> y;
  EXPECT_EQ(engine->simulate_batch(x, y), 0.0);  // no launch, no time
  EXPECT_EQ(y.rows, a.rows);
  EXPECT_EQ(y.width, 0);
  engine->apply_batch(x, y);
  EXPECT_EQ(y.width, 0);
}

std::string pretty_engine_name(
    const ::testing::TestParamInfo<const char*>& pinfo) {
  std::string n = pinfo.param;
  for (auto& ch : n)
    if (ch == '-') ch = '_';
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SpmmExactness,
                         ::testing::ValuesIn(kAllEngines),
                         pretty_engine_name);

// --- sector-byte amortization (the tentpole's point) -------------------------

class SpmmAmortization : public ::testing::TestWithParam<const char*> {};

TEST_P(SpmmAmortization, MatrixBytesPerVectorFallWithWidth) {
  const std::string name = GetParam();
  // WIK-class shape: power-law graph, heavy tail, ~8 nnz/row.
  const Csr<double> a = powerlaw(1500, 8.0, 29);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>(name, dev, a, EngineConfig{});

  auto gmem_per_vector = [&](int k) {
    const DenseBlock<double> x = random_block(a.cols, k, 7u + unsigned(k));
    DenseBlock<double> y;
    engine->simulate_batch(x, y);
    return static_cast<double>(
               engine->report().last_run.counters.gmem_bytes) /
           k;
  };

  const double per1 = gmem_per_vector(1);
  const double per8 = gmem_per_vector(8);
  const double per32 = gmem_per_vector(32);
  // Strictly decreasing per-vector matrix traffic...
  EXPECT_LT(per8, per1);
  EXPECT_LT(per32, per8);
  // ...and a width-32 batch moves much less than 32 scalar sweeps
  // (bytes(SpMM_32) << 32 * bytes(SpMV)).
  EXPECT_LT(per32 * 32, 0.5 * 32 * per1);
}

INSTANTIATE_TEST_SUITE_P(RealSpmmEngines, SpmmAmortization,
                         ::testing::Values("csr-scalar", "csr-vector",
                                           "acsr", "acsr-binning"),
                         pretty_engine_name);

// --- width-1 fast path and memo key compatibility ----------------------------

TEST(SpmmFastPath, WidthOneRoutesThroughScalarSpmv) {
  const Csr<double> a = powerlaw(400, 7.0, 5);
  Device dev(DeviceSpec::gtx_titan());
  acsr::core::AcsrEngine<double> engine(dev, a);

  DenseBlock<double> y;
  engine.simulate_batch(random_block(a.cols, 1, 1), y);
  EXPECT_EQ(engine.report().last_run.name, "acsr");  // the scalar launch seq

  engine.simulate_batch(random_block(a.cols, 4, 2), y);
  EXPECT_EQ(engine.report().last_run.name, "acsr_spmm");
}

TEST(SpmmMemo, WidthKeyedEntriesAndSpmvKeySharing) {
  MemoGuard guard;
  const Csr<double> a = powerlaw(300, 6.0, 23);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("acsr", dev, a);

  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0), y;
  engine->simulate(x, y);  // capture "spmv"
  EXPECT_EQ(MemoCache::instance().stats().misses, 1u);

  // Width-1 batch shares the scalar key: hit, not a second capture.
  DenseBlock<double> yb;
  engine->simulate_batch(random_block(a.cols, 1, 11), yb);
  EXPECT_EQ(MemoCache::instance().stats().misses, 1u);
  EXPECT_EQ(MemoCache::instance().stats().hits, 1u);

  // A new width captures its own entry; the same width replays it.
  const DenseBlock<double> x8 = random_block(a.cols, 8, 12);
  const double t8 = engine->simulate_batch(x8, yb);
  EXPECT_EQ(MemoCache::instance().stats().misses, 2u);
  const double t8_replay = engine->simulate_batch(x8, yb);
  EXPECT_EQ(MemoCache::instance().stats().hits, 2u);
  EXPECT_EQ(t8_replay, t8);

  // Width 0 never touches the cache (nothing launches).
  const auto before = MemoCache::instance().stats();
  engine->simulate_batch(DenseBlock<double>(a.cols, 0), yb);
  const auto& after = MemoCache::instance().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

// --- resilient plane ----------------------------------------------------------

TEST(SpmmResilient, BatchedPathServesThroughTheLadder) {
  const Csr<double> a = powerlaw(250, 6.0, 41);
  Device dev(DeviceSpec::gtx_titan());
  acsr::core::ResilientEngine<double> engine({&dev}, a, "acsr");

  const DenseBlock<double> x = random_block(a.cols, 6, 8);
  DenseBlock<double> y;
  EXPECT_GT(engine.simulate_batch(x, y), 0.0);
  for (int c = 0; c < x.width; ++c) {
    std::vector<double> y_ref;
    a.spmv(x.column(c), y_ref);
    const std::vector<double> y_col = y.column(c);
    for (std::size_t r = 0; r < y_ref.size(); ++r)
      EXPECT_NEAR(y_col[r], y_ref[r],
                  1e-9 * std::max(1.0, std::abs(y_ref[r])));
  }
}

// --- batch scheduler ----------------------------------------------------------

TEST(Scheduler, CoalescesUpToMaxWidthAndServesCorrectResults) {
  const Csr<double> a = powerlaw(200, 6.0, 13);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("csr-vector", dev, a);

  acsr::serve::ServeOptions opt;
  opt.max_batch_width = 4;
  acsr::serve::BatchScheduler<double> sched(*engine, opt);

  std::vector<std::uint64_t> ids;
  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 10; ++i) {
    std::vector<double> x(static_cast<std::size_t>(a.cols));
    for (std::size_t j = 0; j < x.size(); ++j)
      x[j] = 0.5 + ((i * 31 + static_cast<int>(j)) % 13) * 0.25;
    ids.push_back(sched.submit(x, "t" + std::to_string(i % 2)));
    xs.push_back(std::move(x));
  }
  EXPECT_EQ(sched.pending(), 10u);
  EXPECT_EQ(sched.drain(), 3);  // 4 + 4 + 2
  EXPECT_EQ(sched.batches(), 3u);
  EXPECT_EQ(sched.served_requests(), 10u);
  EXPECT_NEAR(sched.batch_width_avg(), 10.0 / 3.0, 1e-12);
  EXPECT_GT(sched.clock_s(), 0.0);

  // Served results are the batched device path, whose per-column
  // accumulation order is pinned to the scalar device kernel — so each
  // result is bit-identical to a scalar simulate of the same vector.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::vector<double> y_ref;
    engine->simulate(xs[i], y_ref);
    EXPECT_EQ(sched.take_result(ids[i]), y_ref) << "request " << i;
  }
}

TEST(Scheduler, ShedsOnOverloadWithTypedRejection) {
  const Csr<double> a = powerlaw(100, 4.0, 7);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("csr-scalar", dev, a);

  acsr::serve::ServeOptions opt;
  opt.queue_capacity = 3;
  acsr::serve::BatchScheduler<double> sched(*engine, opt);

  const std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  for (int i = 0; i < 3; ++i) sched.submit(x, "bulk");
  EXPECT_THROW(sched.submit(x, "bulk"), acsr::serve::OverloadError);
  // The shed is also an InputError (client-visible), never an invariant.
  EXPECT_THROW(sched.submit(x, "bulk"), acsr::InputError);
  // Draining frees capacity again.
  sched.drain();
  EXPECT_NO_THROW(sched.submit(x, "bulk"));
  // Dimension mismatch is rejected up front.
  EXPECT_THROW(sched.submit(std::vector<double>(3, 1.0), "bulk"),
               acsr::InputError);
}

TEST(Scheduler, PriorityFirstThenDeadlineThenFifo) {
  const Csr<double> a = powerlaw(100, 4.0, 19);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("csr-scalar", dev, a);

  acsr::serve::ServeOptions opt;
  opt.max_batch_width = 2;
  acsr::serve::BatchScheduler<double> sched(*engine, opt);

  const std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  sched.submit(x, "low", /*priority=*/0);
  sched.submit(x, "low", /*priority=*/0);
  sched.submit(x, "tight", /*priority=*/1, /*deadline_s=*/1.0);
  sched.submit(x, "loose", /*priority=*/1, /*deadline_s=*/2.0);

  // First batch: both priority-1 requests, tight deadline first; the
  // priority-0 pair waits for the second batch on the simulated clock.
  EXPECT_EQ(sched.step(), 2);
  EXPECT_EQ(sched.tenants().at("tight").requests, 1u);
  EXPECT_EQ(sched.tenants().at("loose").requests, 1u);
  EXPECT_EQ(sched.tenants().count("low"), 0u);
  EXPECT_EQ(sched.tenants().at("tight").queue_wait_s, 0.0);

  EXPECT_EQ(sched.step(), 2);
  EXPECT_EQ(sched.tenants().at("low").requests, 2u);
  EXPECT_GT(sched.tenants().at("low").queue_wait_s, 0.0);  // waited a batch
  EXPECT_EQ(sched.step(), 0);  // idle
}

TEST(Scheduler, BillsTenantsEvenSharesOfBatchTime) {
  const Csr<double> a = powerlaw(150, 5.0, 31);
  Device dev(DeviceSpec::gtx_titan());
  auto engine = make_engine<double>("acsr", dev, a);

  acsr::serve::BatchScheduler<double> sched(*engine);
  acsr::apps::run_tenant_scenario(sched, a.cols, /*requests_per_tenant=*/8);

  const auto& tenants = sched.tenants();
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants.at("alpha").requests, 8u);
  EXPECT_EQ(tenants.at("beta").requests, 8u);
  EXPECT_EQ(tenants.at("gamma").requests, 16u);
  double billed = 0.0;
  for (const auto& [name, agg] : tenants) {
    EXPECT_GT(agg.cost_s, 0.0) << name;
    EXPECT_GE(agg.batches, 1u) << name;
    billed += agg.cost_s;
  }
  // Conservation: the whole makespan is billed to someone.
  EXPECT_NEAR(billed, sched.clock_s(), 1e-12 + 1e-9 * sched.clock_s());
  // Every registered tenant metric evaluates finitely.
  for (const auto& m : acsr::prof::registry<acsr::prof::TenantAgg>())
    for (const auto& [name, agg] : tenants)
      EXPECT_TRUE(std::isfinite(m.compute(agg))) << m.name << "/" << name;
}

// --- batched RWR --------------------------------------------------------------

TEST(RwrMany, MatchesScalarRwrPerSource) {
  const Csr<double> w = acsr::apps::rwr_matrix(powerlaw(300, 6.0, 57));
  Device dev(DeviceSpec::gtx_titan());
  acsr::core::AcsrEngine<double> engine(dev, w);

  const std::vector<acsr::mat::index_t> sources = {3, 77, 290};
  const auto many = acsr::apps::rwr_many(engine, sources);
  ASSERT_EQ(many.size(), sources.size());

  for (std::size_t i = 0; i < sources.size(); ++i) {
    acsr::apps::RwrConfig cfg;
    cfg.source = sources[i];
    const auto one = acsr::apps::rwr(engine, cfg);
    EXPECT_EQ(many[i].iterations, one.iterations) << "source " << sources[i];
    EXPECT_EQ(many[i].converged, one.converged);
    ASSERT_EQ(many[i].scores.size(), one.scores.size());
    for (std::size_t r = 0; r < one.scores.size(); ++r)
      EXPECT_NEAR(many[i].scores[r], one.scores[r], 1e-12)
          << "source " << sources[i] << " row " << r;
  }
}

TEST(RwrBatch, ReportsAmortizationHeadline) {
  const Csr<double> w = acsr::apps::rwr_matrix(powerlaw(600, 8.0, 71));
  Device dev(DeviceSpec::gtx_titan());
  acsr::core::AcsrEngine<double> engine(dev, w);

  std::vector<acsr::mat::index_t> sources;
  for (int u = 0; u < 16; ++u) sources.push_back((u * 37) % w.rows);
  const auto res = acsr::apps::rwr_batch(engine, sources);
  EXPECT_EQ(res.queries.size(), sources.size());
  EXPECT_GT(res.spmm_per_iter_s, 0.0);
  EXPECT_GT(res.seq_per_iter_s, res.spmm_per_iter_s);  // batching pays
  EXPECT_GT(res.speedup(), 1.0);
}

}  // namespace
