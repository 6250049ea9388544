// Table IV: per-format SpMV time plus n — the number of iterative SpMV
// invocations another format needs before its preprocessing amortises
// against ACSR (Eq. 4). "inf" means ACSR wins at any iteration count;
// "OOM" means the format cannot hold the matrix.
#include "bench/comparators.hpp"
#include "common/cli.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  using bench::FormatTimes;
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  ctx.print_header("Table IV: SpMV time (us) and crossover iterations n");

  Table t({"Matrix", "ACSR us", "BCCOO us", "n", "BRC us", "n", "TCOO us",
           "n", "HYB us", "n"});
  for (const auto& e : ctx.matrices) {
    const FormatTimes acsr = bench::measure_format(ctx, e, "acsr");
    std::vector<std::string> row = {e.abbrev,
                                    Table::num(acsr.spmv_s * 1e6, 2)};
    for (const std::string fmt : {"bccoo", "brc", "tcoo", "hyb"}) {
      const FormatTimes f = bench::measure_format(ctx, e, fmt);
      if (f.oom) {
        row.push_back("OOM");
        row.push_back("OOM");
        continue;
      }
      row.push_back(Table::num(f.spmv_s * 1e6, 2));
      const auto n = bench::crossover_iterations(f.pre_s, f.spmv_s,
                                                 acsr.pre_s, acsr.spmv_s);
      row.push_back(n ? Table::num(*n, 0) : "inf");
    }
    t.add_row(row);
  }
  t.print();
  std::cout << "\nReading: a format with a finite n beats ACSR only in "
               "solvers iterating at least n times on a FIXED sparsity "
               "structure — hopeless for dynamic graphs.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
