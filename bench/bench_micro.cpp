// google-benchmark microbenchmarks of the library itself: these measure
// *host wall-clock* of the simulator and preprocessing paths (not the
// simulated GPU time the figure benches report), guarding against
// regressions in the hot loops that all experiments share.
#include <benchmark/benchmark.h>

#include "common/cli.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"

namespace {

using namespace acsr;

mat::Csr<double> bench_matrix(int rows, double mu) {
  graph::PowerLawSpec s;
  s.rows = rows;
  s.cols = rows;
  s.mean_nnz_per_row = mu;
  s.alpha = 1.7;
  s.max_row_nnz = rows / 8;
  s.seed = 123;
  return graph::powerlaw_matrix(s);
}

void BM_HostSpmvCsr(benchmark::State& state) {
  const auto m = bench_matrix(static_cast<int>(state.range(0)), 8.0);
  std::vector<double> x(static_cast<std::size_t>(m.cols), 1.0), y;
  for (auto _ : state) {
    m.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_HostSpmvCsr)->Arg(1 << 10)->Arg(1 << 13);

void BM_SimulatedSpmvAcsr(benchmark::State& state) {
  const auto m = bench_matrix(static_cast<int>(state.range(0)), 8.0);
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  core::AcsrEngine<double> engine(dev, m);
  std::vector<double> x(static_cast<std::size_t>(m.cols), 1.0), y;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.simulate(x, y));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_SimulatedSpmvAcsr)->Arg(1 << 10)->Arg(1 << 13);

void BM_Binning(benchmark::State& state) {
  const auto m = bench_matrix(static_cast<int>(state.range(0)), 8.0);
  std::vector<mat::offset_t> row_nnz(static_cast<std::size_t>(m.rows));
  for (mat::index_t r = 0; r < m.rows; ++r)
    row_nnz[static_cast<std::size_t>(r)] = m.row_nnz(r);
  for (auto _ : state) {
    auto b = core::Binning::build(row_nnz, core::BinningOptions{});
    benchmark::DoNotOptimize(b.bins.data());
  }
  state.SetItemsProcessed(state.iterations() * m.rows);
}
BENCHMARK(BM_Binning)->Arg(1 << 12)->Arg(1 << 16);

void BM_HybTransform(benchmark::State& state) {
  const auto m = bench_matrix(static_cast<int>(state.range(0)), 8.0);
  for (auto _ : state) {
    vgpu::HostModel hm;
    auto h = mat::Hyb<double>::from_csr(m, &hm, 64);
    benchmark::DoNotOptimize(h.ell.vals.data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_HybTransform)->Arg(1 << 12);

void BM_PowerLawGenerator(benchmark::State& state) {
  for (auto _ : state) {
    auto m = bench_matrix(static_cast<int>(state.range(0)), 8.0);
    benchmark::DoNotOptimize(m.vals.data());
  }
}
BENCHMARK(BM_PowerLawGenerator)->Arg(1 << 12);

}  // namespace

static int run_program(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
