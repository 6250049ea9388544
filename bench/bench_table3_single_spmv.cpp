// Table III: speed-up of ACSR over BCCOO, BRC, TCOO and HYB when
// performing a *single* SpMV — i.e. including each format's preprocessing,
// which is where the transformed formats lose by orders of magnitude.
// Single precision, GTX Titan, as in the paper.
#include "bench/comparators.hpp"
#include "common/cli.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  using bench::FormatTimes;
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  ctx.print_header(
      "Table III: ACSR speedup for ONE SpMV (preprocessing + SpMV)");

  Table t({"Matrix", "vs BCCOO", "vs BRC", "vs TCOO", "vs HYB"});
  GeoMean g_bccoo, g_brc, g_tcoo, g_hyb;
  for (const auto& e : ctx.matrices) {
    const FormatTimes acsr = bench::measure_format(ctx, e, "acsr");
    auto cell = [&](const std::string& fmt, GeoMean& gm) -> std::string {
      const FormatTimes f = bench::measure_format(ctx, e, fmt);
      if (f.oom || acsr.oom) return "OOM";
      const double speedup =
          (f.pre_s + f.spmv_s) / (acsr.pre_s + acsr.spmv_s);
      gm.add(speedup);
      return Table::num(speedup, 1);
    };
    t.add_row({e.abbrev, cell("bccoo", g_bccoo), cell("brc", g_brc),
               cell("tcoo", g_tcoo), cell("hyb", g_hyb)});
  }
  t.add_row({"GEOMEAN", Table::num(g_bccoo.value(), 1),
             Table::num(g_brc.value(), 1), Table::num(g_tcoo.value(), 1),
             Table::num(g_hyb.value(), 1)});
  t.print();
  std::cout << "\nPaper shape: very large speedups against BCCOO/TCOO "
               "(auto-tuning / exhaustive search), large against BRC "
               "(sort + restructure), moderate against HYB.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
