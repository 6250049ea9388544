// Table V: how many bin-specific (BS) and row-specific (RS) grids one ACSR
// SpMV launches per matrix on the GTX Titan.
#include "bench/bench_common.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  ctx.print_header("Table V: grids launched by ACSR per SpMV");

  Table t({"Matrix", "BS", "RS", "DP rows capped at RowMax?"});
  for (const auto& e : ctx.matrices) {
    try {
      vgpu::Device dev(ctx.spec);
      const auto m = ctx.build<float>(e);
      core::AcsrEngine<float> engine(dev, m, ctx.engine_cfg.acsr);
      t.add_row({e.abbrev, Table::integer(engine.bin_grids()),
                 Table::integer(engine.row_grids()),
                 engine.row_grids() ==
                         engine.binning().options.row_max
                     ? "yes"
                     : "no"});
    } catch (const vgpu::DeviceOom&) {
      t.add_row({e.abbrev, "OOM", "OOM", "-"});
    }
  }
  t.print();
  std::cout << "\nRS counts stay within the pending-launch limit ("
            << ctx.spec.pending_launch_limit << ").\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
