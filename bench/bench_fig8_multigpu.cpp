// Figure 8: dual-GPU ACSR on the Tesla K10 (two GK104 dies). Each bin's
// rows are dealt evenly across the devices; the speedup over one die is
// reported for single and double precision. Matrices without enough work
// to saturate both dies (ENR, INT, ...) do not scale — the paper's point.
#include "bench/bench_common.hpp"
#include <memory>

#include "core/multi_gpu.hpp"

namespace {

using namespace acsr;

template <class T>
std::string scaling_cell(const bench::BenchContext& ctx,
                         const graph::CorpusEntry& e) {
  try {
    const auto m = ctx.build<T>(e);
    vgpu::Device single(ctx.spec);
    core::AcsrEngine<T> one(single, m, ctx.engine_cfg.acsr);
    vgpu::Device d0(ctx.spec), d1(ctx.spec);
    core::MultiGpuAcsr<T> two({&d0, &d1}, m, ctx.engine_cfg.acsr);
    std::vector<T> x(static_cast<std::size_t>(m.cols), T{1}), y;
    const double t1 = one.simulate(x, y);
    const double t2 = two.simulate(x, y);
    return Table::num(t1 / t2, 2);
  } catch (const vgpu::DeviceOom&) {
    return "OOM";
  }
}

}  // namespace

namespace {

/// Extension: the paper notes its per-bin split "can be used with any
/// number of GPUs" — sweep 1/2/4 simulated dies on one large matrix.
void scaling_sweep(const acsr::bench::BenchContext& ctx) {
  using namespace acsr;
  std::cout << "--- extension: scaling beyond two dies (UK2) ---\n";
  const auto m = ctx.build<float>(graph::corpus_entry("UK2"));
  vgpu::Device single(ctx.spec);
  core::AcsrEngine<float> one(single, m, ctx.engine_cfg.acsr);
  std::vector<float> x(static_cast<std::size_t>(m.cols), 1.0f), y;
  const double t1 = one.simulate(x, y);
  Table t({"devices", "SpMV us", "speedup"});
  t.add_row({"1", Table::num(t1 * 1e6, 2), "1.00"});
  for (int n : {2, 4}) {
    std::vector<std::unique_ptr<vgpu::Device>> devs;
    std::vector<vgpu::Device*> ptrs;
    for (int d = 0; d < n; ++d) {
      devs.push_back(std::make_unique<vgpu::Device>(ctx.spec));
      ptrs.push_back(devs.back().get());
    }
    core::MultiGpuAcsr<float> multi(ptrs, m, ctx.engine_cfg.acsr);
    const double tn = multi.simulate(x, y);
    t.add_row({Table::integer(n), Table::num(tn * 1e6, 2),
               Table::num(t1 / tn, 2)});
  }
  t.print();
  std::cout << '\n';
}

}  // namespace

static int run_program(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli, "k10");
  ctx.print_header(
      "Fig. 8: dual-GPU ACSR speedup over a single GPU (Tesla K10)");

  Table t({"Matrix", "speedup sp", "speedup dp"});
  double s_sp = 0, s_dp = 0;
  int n = 0;
  for (const auto& e : ctx.matrices) {
    const std::string sp = scaling_cell<float>(ctx, e);
    const std::string dp = scaling_cell<double>(ctx, e);
    t.add_row({e.abbrev, sp, dp});
    if (sp != "OOM") {
      s_sp += std::stod(sp);
      s_dp += std::stod(dp);
      ++n;
    }
  }
  if (n > 0)
    t.add_row({"AVG", Table::num(s_sp / n, 2), Table::num(s_dp / n, 2)});
  t.print();
  std::cout << "\nPaper: 1.64x / 1.68x average (sp / dp); near-2x on large "
               "matrices, no benefit on matrices too small to saturate one "
               "die.\n\n";
  scaling_sweep(ctx);
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
