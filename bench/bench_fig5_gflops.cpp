// Figure 5: SpMV GFLOPs (2*nnz / time) for CSR (cuSPARSE-style csrmv),
// HYB and ACSR, in single and double precision, per device:
//   --device=titan   (top: CC 3.5, ACSR uses dynamic parallelism)
//   --device=gtx580  (center: binning-only; large matrices go OOM)
//   --device=k10     (bottom: one GK104 die, binning-only, weak DP arith)
#include "bench/bench_common.hpp"

namespace {

using namespace acsr;

template <class T>
std::string gflops_cell(const bench::BenchContext& ctx,
                        const graph::CorpusEntry& e,
                        const std::string& format) {
  try {
    vgpu::Device dev(ctx.spec);
    const auto m = ctx.build<T>(e);
    auto engine = core::make_engine<T>(format, dev, m, ctx.engine_cfg);
    return Table::num(engine->gflops(), 1);
  } catch (const vgpu::DeviceOom&) {
    return "OOM";
  }
}

}  // namespace

static int run_program(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  const bool dp_device = ctx.spec.supports_dynamic_parallelism();
  const std::string acsr_variant = dp_device ? "acsr" : "acsr-binning";
  ctx.print_header("Fig. 5 (" + ctx.spec.name + "): SpMV GFLOPs — ACSR " +
                   (dp_device ? "with dynamic parallelism"
                              : "binning-only (CC < 3.5)"));

  Table t({"Matrix", "CSR sp", "HYB sp", "ACSR sp", "CSR dp", "HYB dp",
           "ACSR dp"});
  for (const auto& e : ctx.matrices) {
    t.add_row({e.abbrev, gflops_cell<float>(ctx, e, "csr"),
               gflops_cell<float>(ctx, e, "hyb"),
               gflops_cell<float>(ctx, e, acsr_variant),
               gflops_cell<double>(ctx, e, "csr"),
               gflops_cell<double>(ctx, e, "hyb"),
               gflops_cell<double>(ctx, e, acsr_variant)});
  }
  t.print();
  std::cout << "\n'OOM': matrix does not fit this device's (scaled) memory "
               "— the paper's Ø bars.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
