// The out-of-core streaming tier (src/core/ooc_engine.hpp, docs/OOC.md):
// OocCsrEngine's partition-independent numerics, its streamed execution
// (double-buffered slab uploads overlapping compute, io.* evidence), the
// terminal ResilientEngine rung (DeviceOom degrades to out-of-core
// instead of throwing), checkpointed solvers spanning the transition,
// and storage-faulted solves converging to fault-free results.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/cg.hpp"
#include "apps/pagerank.hpp"
#include "core/factory.hpp"
#include "core/ooc_engine.hpp"
#include "core/resilient.hpp"
#include "graph/powerlaw.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/memo.hpp"

namespace {

using acsr::core::EngineConfig;
using acsr::core::make_engine;
using acsr::core::OocCsrEngine;
using acsr::core::OocOptions;
using acsr::core::ResilientEngine;
using acsr::mat::Csr;
using acsr::mat::index_t;
using acsr::vgpu::Device;
using acsr::vgpu::DeviceOom;
using acsr::vgpu::DeviceSpec;
using acsr::vgpu::FaultInjector;

/// Every test leaves the injector and the memo plane as it found them.
class Ooc : public ::testing::Test {
 protected:
  void SetUp() override { memo_was_ = acsr::vgpu::memo::memo_enabled(); }
  void TearDown() override {
    FaultInjector::instance().disable();
    acsr::vgpu::memo::set_memo_enabled(memo_was_);
  }

 private:
  bool memo_was_ = false;
};

Csr<double> test_matrix(index_t n = 256) {
  acsr::graph::PowerLawSpec s;
  s.rows = n;
  s.cols = n;
  s.mean_nnz_per_row = 6.0;
  s.alpha = 1.6;
  s.max_row_nnz = n / 2;
  s.seed = 7;
  Csr<double> m = acsr::graph::powerlaw_matrix(s);
  // Keep every value positive so SpMV sums are cancellation-free.
  for (auto& v : m.vals) v = 0.5 + v * 0.25;
  return m;
}

std::vector<double> ones(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

/// Bytes the in-core CSR formats need for this matrix (their device
/// footprint): shrinking the arena below this makes every in-core build
/// OOM *naturally* — no injection, so the memo plane stays active.
std::size_t csr_device_bytes(const Csr<double>& a) {
  return (static_cast<std::size_t>(a.rows) + 1) * sizeof(acsr::mat::offset_t) +
         static_cast<std::size_t>(a.nnz()) *
             (sizeof(index_t) + sizeof(double));
}

Csr<double> pagerank_test_matrix() {
  acsr::graph::PowerLawSpec s;
  s.rows = 96;
  s.cols = 96;
  s.mean_nnz_per_row = 5.0;
  s.alpha = 1.7;
  s.max_row_nnz = 32;
  s.seed = 11;
  Csr<double> adj = acsr::graph::powerlaw_matrix(s);
  for (auto& v : adj.vals) v = 1.0;
  // Give empty rows a self-loop so the matrix is genuinely row-stochastic.
  acsr::mat::Coo<double> c = adj.to_coo();
  for (index_t r = 0; r < adj.rows; ++r)
    if (adj.row_nnz(r) == 0) c.push(r, r, 1.0);
  return acsr::apps::pagerank_matrix(Csr<double>::from_coo(c));
}

// --- numerics --------------------------------------------------------------

TEST_F(Ooc, SimulateMatchesApplyBitwise) {
  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  OocOptions opt;
  opt.budget_bytes = 8 * 1024;  // force several slabs
  OocCsrEngine<double> engine(dev, a, opt);
  ASSERT_GE(engine.num_slabs(), 3u);
  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> want, got;
  engine.apply(x, want);
  engine.simulate(x, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "row " << i;
}

TEST_F(Ooc, ResultsIndependentOfBudget) {
  // A row's reduction order depends only on its own length, never on
  // where a slab boundary falls — so every budget gives bitwise-equal y.
  const Csr<double> a = test_matrix();
  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<std::size_t> budgets = {8 * 1024, 64 * 1024, 64 << 20};
  std::vector<double> first;
  std::size_t first_slabs = 0;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    Device dev(DeviceSpec::gtx_titan());
    OocOptions opt;
    opt.budget_bytes = budgets[i];
    OocCsrEngine<double> engine(dev, a, opt);
    std::vector<double> y;
    engine.simulate(x, y);
    if (i == 0) {
      first = y;
      first_slabs = engine.num_slabs();
    } else {
      EXPECT_EQ(y, first) << "budget " << budgets[i];
      EXPECT_LT(engine.num_slabs(), first_slabs);
    }
  }
}

TEST_F(Ooc, MatchesInCoreEngineWithinTolerance) {
  const Csr<double> a = test_matrix();
  const auto x = ones(static_cast<std::size_t>(a.cols));

  Device d0(DeviceSpec::gtx_titan());
  auto incore = make_engine<double>("csr-vector", d0, a);
  std::vector<double> want;
  incore->simulate(x, want);

  Device d1(DeviceSpec::gtx_titan());
  OocOptions opt;
  opt.budget_bytes = 16 * 1024;
  OocCsrEngine<double> engine(d1, a, opt);
  std::vector<double> got;
  engine.simulate(x, got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-9) << "row " << i;
}

TEST_F(Ooc, EmptyRowsAndEmptyMatrixStayZero) {
  Csr<double> a;
  a.rows = 16;
  a.cols = 16;
  a.row_off.assign(17, 0);
  a.validate();
  Device dev(DeviceSpec::gtx_titan());
  OocCsrEngine<double> engine(dev, a);
  const auto x = ones(16);
  std::vector<double> y;
  engine.simulate(x, y);
  EXPECT_EQ(y, std::vector<double>(16, 0.0));
}

// --- streaming evidence ----------------------------------------------------

TEST_F(Ooc, StreamsEverySlabWithOverlapInsideBudget) {
  const Csr<double> a = test_matrix();
  Device dev(DeviceSpec::gtx_titan());
  OocOptions opt;
  opt.budget_bytes = 16 * 1024;
  OocCsrEngine<double> engine(dev, a, opt);
  ASSERT_GE(engine.num_slabs(), 3u);
  // Resident footprint: two slab sets, inside the budget (+ alignment
  // slack for a slab whose last row overshoots the half-budget cap).
  EXPECT_LE(engine.report().device_bytes, opt.budget_bytes + 4096);

  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> y;
  const double makespan = engine.simulate(x, y);
  EXPECT_GT(makespan, 0.0);
  EXPECT_EQ(engine.last_makespan(), makespan);

  const acsr::prof::IoAgg& io = engine.io_stats();
  EXPECT_EQ(io.reads, engine.num_slabs());  // one chunk read per slab
  EXPECT_GE(io.read_bytes, io.demand_bytes);
  // The tier exists to hide drive reads behind compute: some pair of
  // streams must have been busy at the same instant (work > span).
  EXPECT_GT(io.overlap_s, 0.0);
  // Derived metric view of the same fact.
  const auto* m = acsr::prof::find_metric<acsr::prof::IoAgg>(
      "io.overlap_efficiency");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->compute(io), 0.0);
}

TEST_F(Ooc, FactoryBuildsOocAndHeadroomTracksAllocations) {
  const Csr<double> a = test_matrix(64);
  Device dev(DeviceSpec::gtx_titan());
  const std::size_t before = dev.memory_headroom();
  EXPECT_EQ(before, dev.arena().capacity() - dev.arena().allocated());
  EngineConfig cfg;
  cfg.ooc.budget_bytes = 32 * 1024;
  auto engine = make_engine<double>("ooc-csr", dev, a, cfg);
  EXPECT_EQ(engine->name(), "OOC-CSR");
  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> y, want;
  engine->simulate(x, y);
  engine->apply(x, want);
  EXPECT_EQ(y, want);
  // headroom = capacity - allocated, live.
  auto buf = dev.alloc<double>(512, "probe");
  EXPECT_EQ(dev.memory_headroom(), dev.arena().capacity() -
                                       dev.arena().allocated());
  EXPECT_LE(dev.memory_headroom(), before - 512 * sizeof(double));
}

// --- the terminal resilience rung ------------------------------------------

TEST_F(Ooc, BudgetBelowMatrixFootprintStillCompletes) {
  // Large enough that half the CSR footprint still holds the streamed
  // working set (two floor-sized slabs + the staged x).
  const Csr<double> a = test_matrix(1024);
  const std::size_t footprint = csr_device_bytes(a);
  Device dev(DeviceSpec::gtx_titan());
  // Arena smaller than the matrix: no in-core format can even build...
  dev.set_memory_capacity(footprint / 2);
  EXPECT_THROW(make_engine<double>("csr-vector", dev, a), DeviceOom);
  // ...but the streamed tier completes inside the same arena.
  OocCsrEngine<double> engine(dev, a);  // budget = capacity / 8
  EXPECT_LT(engine.budget_bytes(), footprint);
  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> got, want;
  engine.simulate(x, got);
  engine.apply(x, want);
  EXPECT_EQ(got, want);
}

TEST_F(Ooc, NaturalOomDegradesToOocWithLogEvidence) {
  const Csr<double> a = test_matrix(1024);
  Device dev(DeviceSpec::gtx_titan());
  dev.set_memory_capacity(csr_device_bytes(a) / 2);
  // No injection: the arena itself refuses csr-vector and csr-scalar,
  // and the chain's terminal rung picks up the solve.
  ResilientEngine<double> engine({&dev}, a, "csr-vector");
  EXPECT_EQ(engine.active_format(), "ooc-csr");
  EXPECT_GE(engine.fallbacks(), 2);
  bool saw_oom = false, saw_ooc = false;
  for (const std::string& tag : engine.recovery_log()) {
    if (tag.find("fault:oom") != std::string::npos) saw_oom = true;
    if (tag.find("recovery:fallback to ooc-csr") != std::string::npos)
      saw_ooc = true;
  }
  EXPECT_TRUE(saw_oom);
  EXPECT_TRUE(saw_ooc);

  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> got, want;
  engine.simulate(x, got);
  engine.apply(x, want);  // ooc host path: bitwise target
  EXPECT_EQ(got, want);
}

TEST_F(Ooc, CheckpointedPagerankSpansOocFallback) {
  const Csr<double> m = pagerank_test_matrix();
  acsr::apps::PageRankConfig cfg;
  acsr::apps::CheckpointConfig ck;
  ck.interval = 4;

  FaultInjector::instance().disable();
  Device c0(DeviceSpec::gtx_titan());
  ResilientEngine<double> clean_engine({&c0}, m, "csr-vector");
  const auto want = acsr::apps::pagerank_checkpointed(clean_engine, cfg, ck);
  ASSERT_TRUE(want.converged);

  // Persistent-enough OOM: the striking SpMV's staging alloc and the
  // csr-scalar rebuild both fail, landing the solve on the terminal
  // out-of-core rung mid-run; the solver restarts from its checkpoint
  // and finishes there.
  FaultInjector::instance().configure("oom@alloc#12*2");
  Device d0(DeviceSpec::gtx_titan());
  ResilientEngine<double> engine({&d0}, m, "csr-vector");
  const auto got = acsr::apps::pagerank_checkpointed(engine, cfg, ck);

  ASSERT_TRUE(got.converged);
  EXPECT_EQ(engine.active_format(), "ooc-csr");
  EXPECT_GE(engine.fallbacks(), 2);
  bool saw_restart = false;
  for (const std::string& tag : engine.recovery_log())
    if (tag.find("recovery:fallback to ooc-csr") != std::string::npos)
      saw_restart = true;
  EXPECT_TRUE(saw_restart);
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (std::size_t i = 0; i < want.scores.size(); ++i)
    EXPECT_NEAR(got.scores[i], want.scores[i], 1e-9) << "rank " << i;
  EXPECT_GE(got.total_s, want.total_s);
}

TEST_F(Ooc, CheckpointedCgSpansOocFallback) {
  const Csr<double> a = acsr::apps::laplacian_2d<double>(12, 12);
  const std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);
  acsr::apps::CheckpointConfig ck;
  ck.interval = 8;

  FaultInjector::instance().disable();
  Device c0(DeviceSpec::gtx_titan());
  ResilientEngine<double> clean_engine({&c0}, a, "csr");
  const auto want = acsr::apps::conjugate_gradient_checkpointed(
      clean_engine, b, {}, ck);
  ASSERT_TRUE(want.converged);

  FaultInjector::instance().configure("oom@alloc#10*2");
  Device d0(DeviceSpec::gtx_titan());
  ResilientEngine<double> engine({&d0}, a, "csr");
  const auto got =
      acsr::apps::conjugate_gradient_checkpointed(engine, b, {}, ck);
  ASSERT_TRUE(got.converged);
  EXPECT_EQ(engine.active_format(), "ooc-csr");
  for (std::size_t i = 0; i < want.x.size(); ++i)
    EXPECT_NEAR(got.x[i], want.x[i], 1e-9) << "x[" << i << "]";
}

// --- storage faults through the full stack ---------------------------------

TEST_F(Ooc, EachStorageFaultClassRecoversBitwise) {
  const Csr<double> a = test_matrix();
  const auto x = ones(static_cast<std::size_t>(a.cols));
  const struct {
    const char* plan;
    bool retried;  // transient/checksum re-issue; timeout/degrade may not
  } kCases[] = {
      {"io_transient@read#1", true},
      {"io_timeout@read#1:ms=20", true},
      {"io_checksum@read#2:seed=5", true},
      {"io_degrade@read#1*3:x=4", false},
  };
  for (const auto& c : kCases) {
    FaultInjector::instance().configure(c.plan);
    Device dev(DeviceSpec::gtx_titan());
    OocOptions opt;
    opt.budget_bytes = 16 * 1024;
    OocCsrEngine<double> engine(dev, a, opt);
    std::vector<double> got, want;
    engine.simulate(x, got);
    const auto& ev = FaultInjector::instance().events();
    ASSERT_FALSE(ev.empty()) << "plan " << c.plan << " never fired";
    EXPECT_EQ(ev.front().site, "read");
    if (c.retried) {
      EXPECT_GE(engine.io_stats().retries, 1u) << "plan " << c.plan;
    }
    FaultInjector::instance().disable();
    engine.apply(x, want);  // host path: no storage exposure
    EXPECT_EQ(got, want) << "plan " << c.plan;
  }
}

TEST_F(Ooc, ExhaustedRetryBudgetEscapesTypedThroughResilient) {
  const Csr<double> a = test_matrix(64);
  FaultInjector::instance().configure("io_transient@read#1*1000");
  Device dev(DeviceSpec::gtx_titan());
  // ooc-csr is its own (terminal) chain: nothing below it to degrade to,
  // so the typed storage error must surface, not a crash or wrong y.
  ResilientEngine<double> engine({&dev}, a, "ooc-csr");
  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> y;
  EXPECT_THROW(engine.simulate(x, y), acsr::vgpu::IoTransientError);
}

TEST_F(Ooc, CheckpointedPagerankSurvivesStorageFaultStorm) {
  const Csr<double> m = pagerank_test_matrix();
  acsr::apps::PageRankConfig cfg;
  cfg.iter.device_loop = true;
  acsr::apps::CheckpointConfig ck;
  ck.interval = 4;

  FaultInjector::instance().disable();
  Device c0(DeviceSpec::gtx_titan());
  ResilientEngine<double> clean_engine({&c0}, m, "ooc-csr");
  const auto want = acsr::apps::pagerank_checkpointed(clean_engine, cfg, ck);
  ASSERT_TRUE(want.converged);

  // Eight consecutive faulted reads: deeper than one chunk's retry
  // budget, so an IoTransientError escapes to the solver, which restarts
  // from its checkpoint; later reads are clean and the solve completes.
  FaultInjector::instance().configure("io_transient@read#8*8");
  Device d0(DeviceSpec::gtx_titan());
  ResilientEngine<double> engine({&d0}, m, "ooc-csr");
  const auto got = acsr::apps::pagerank_checkpointed(engine, cfg, ck);
  ASSERT_TRUE(got.converged);
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (std::size_t i = 0; i < want.scores.size(); ++i)
    EXPECT_NEAR(got.scores[i], want.scores[i], 1e-9) << "rank " << i;
  bool saw_restart = false;
  for (const auto& e : engine.timeline().log())
    if (e.tag.find("restart:") != std::string::npos) saw_restart = true;
  EXPECT_TRUE(saw_restart);
}

// --- memo plane ------------------------------------------------------------

TEST_F(Ooc, MemoReplayMatchesCaptureAndSurvivesFallback) {
  const Csr<double> a = test_matrix();
  acsr::vgpu::memo::set_memo_enabled(true);

  Device dev(DeviceSpec::gtx_titan());
  EngineConfig cfg;
  cfg.ooc.budget_bytes = 16 * 1024;
  auto engine = make_engine<double>("ooc-csr", dev, a, cfg);
  const auto x = ones(static_cast<std::size_t>(a.cols));
  std::vector<double> y1, y2;
  const double t1 = engine->simulate(x, y1);  // capture
  const double t2 = engine->simulate(x, y2);  // replay
  EXPECT_EQ(y1, y2);
  EXPECT_DOUBLE_EQ(t1, t2);

  // Natural OOM inside a memoized resilient stack: the fallback rebuild
  // resets the inner engine, which erases its memo entries — the first
  // ooc-csr solve re-captures instead of replaying a stale csr plan.
  const Csr<double> big = test_matrix(1024);
  const auto xb = ones(static_cast<std::size_t>(big.cols));
  Device small(DeviceSpec::gtx_titan());
  small.set_memory_capacity(csr_device_bytes(big) / 2);
  ResilientEngine<double> resilient({&small}, big, "csr-vector");
  ASSERT_EQ(resilient.active_format(), "ooc-csr");
  std::vector<double> got, want;
  resilient.simulate(xb, got);
  resilient.simulate(xb, want);  // replay of the ooc capture
  EXPECT_EQ(got, want);
  std::vector<double> host;
  resilient.apply(xb, host);
  EXPECT_EQ(got, host);
}

// --- env-driven smoke (scripts/check.sh ooc fault matrix) -------------------

// check.sh runs this once per representative storage plan with ACSR_FAULTS
// set: whatever the plan, a budget-constrained out-of-core solve must
// either recover bit-correct against the host path or surface a typed
// IoError — never crash, never a silent wrong answer.
TEST(OocEnv, StoragePlanFromEnvironmentIsSurvivable) {
  const char* plan = std::getenv("ACSR_FAULTS");
  if (plan == nullptr || plan[0] == '\0')
    GTEST_SKIP() << "ACSR_FAULTS not set";
  ASSERT_TRUE(acsr::vgpu::fault_injection_enabled());

  const Csr<double> a = test_matrix();
  const auto x = ones(static_cast<std::size_t>(a.cols));
  Device dev(DeviceSpec::gtx_titan());
  OocOptions opt;
  opt.budget_bytes = 16 * 1024;
  OocCsrEngine<double> engine(dev, a, opt);
  std::vector<double> want;
  engine.apply(x, want);  // host path: no device/storage exposure

  std::vector<double> y;
  try {
    for (int i = 0; i < 4; ++i) {
      engine.simulate(x, y);
      ASSERT_EQ(y, want) << "streamed result diverged under plan '" << plan
                         << "' (pass " << i << ")";
      FaultInjector::instance().configure(plan);  // counters reset per pass
    }
    std::cout << "[ooc] plan '" << plan << "' recovered: retries="
              << engine.io_stats().retries << " checksum_failures="
              << engine.io_stats().checksum_failures << "\n";
  } catch (const acsr::vgpu::IoError& e) {
    EXPECT_FALSE(e.device().empty());
    std::cout << "[ooc] plan '" << plan << "' escalated typed: " << e.what()
              << "\n";
  }
  FaultInjector::instance().disable();
}

}  // namespace
