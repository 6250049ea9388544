// Table I: the evaluation corpus. Prints each matrix's measured
// characteristics at the configured scale next to the paper-scale targets,
// so the shape preservation (mu kept, sigma > mu for power-law entries,
// max >> mu) is auditable.
#include "bench/bench_common.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  ctx.print_header("Table I: matrices used in this study");

  Table t({"Matrix", "Abbrev.", "NNZ", "Rows", "Cols", "mu", "sigma", "Max",
           "paper mu", "paper sigma", "paper max"});
  for (const auto& e : ctx.matrices) {
    const auto m = ctx.build<double>(e);
    const auto st = m.row_stats();
    t.add_row({e.name, e.abbrev, Table::integer(m.nnz()),
               Table::integer(m.rows), Table::integer(m.cols),
               Table::num(st.mean, 1), Table::num(st.stddev, 1),
               Table::integer(st.max), Table::num(e.paper_mu, 1),
               Table::num(e.paper_sigma, 1), Table::integer(e.paper_max)});
  }
  t.print();
  std::cout << "\nRAL is rectangular (not power-law); AMZ and DBL are the "
               "non-power-law contrast matrices.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
