// Figure 7: PageRank on dynamic graphs. Top: per-epoch speedups of the
// incremental-ACSR pipeline over CSR (full re-copy) and HYB (full re-copy
// + re-transform) for one representative matrix (FLI). Bottom: the average
// speedup across the corpus.
#include "apps/dynamic_pagerank.hpp"
#include "bench/bench_common.hpp"

namespace {

using namespace acsr;

// Selected ranking for this invocation (--app=pagerank|katz).
std::string g_app = "pagerank";

apps::DynamicPageRankResult<double> run_dynamic(
    const bench::BenchContext& ctx, const graph::CorpusEntry& e,
    int epochs) {
  vgpu::Device da(ctx.spec), dc(ctx.spec), dh(ctx.spec);
  const auto adj = ctx.build<double>(e);
  apps::DynamicPageRankConfig cfg;
  cfg.epochs = epochs;
  cfg.hyb_breakeven = ctx.engine_cfg.hyb_breakeven;
  cfg.acsr = ctx.engine_cfg.acsr;
  cfg.app = g_app;
  // Katz needs alpha < 1/rho(A); mu bounds rho's order of magnitude for
  // these matrices, so back off with the density.
  const double mu = adj.rows == 0 ? 1.0
                                  : static_cast<double>(adj.nnz()) /
                                        static_cast<double>(adj.rows);
  cfg.katz.alpha = std::min(0.02, 0.2 / std::max(1.0, mu));
  // Katz iterates on the raw transposed adjacency (no normalisation).
  const auto operand =
      g_app == "katz" ? adj.transpose() : apps::pagerank_matrix(adj);
  return apps::dynamic_pagerank(da, dc, dh, operand, cfg);
}

}  // namespace

static int run_program(int argc, char** argv) {
  const Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  const int epochs = static_cast<int>(cli.get_int("epochs", 10));
  g_app = cli.get_or("app", "pagerank");
  ctx.print_header("Fig. 7: " + g_app +
                   " on dynamic graphs (10% row updates)");

  // Top: epoch-by-epoch for the representative matrix.
  const auto& rep = graph::corpus_entry(cli.get_or("matrix", "FLI"));
  std::cout << "--- per-epoch speedups for " << rep.abbrev << " ---\n";
  {
    const auto res = run_dynamic(ctx, rep, epochs);
    Table t({"epoch", "iterations", "ACSR vs CSR", "ACSR vs HYB",
             "relocated rows", "rebuild"});
    for (const auto& ep : res.epochs)
      t.add_row({Table::integer(ep.epoch), Table::integer(ep.iterations),
                 Table::num(ep.speedup_vs_csr(), 2),
                 Table::num(ep.speedup_vs_hyb(), 2),
                 Table::integer(static_cast<long long>(ep.relocated_rows)),
                 ep.rebuilt ? "yes" : "no"});
    t.print();
    std::cout << "\nEpoch 0 is the cold start (ACSR also pays the full "
                 "copy); later epochs ship only the change list.\n\n";
  }

  if (cli.has("matrix")) return 0;  // single-matrix mode

  // Bottom: averages across the corpus (smaller epoch count to bound cost).
  std::cout << "--- average speedup across all epochs, per matrix ---\n";
  Table t({"Matrix", "avg vs CSR", "avg vs HYB"});
  double s_csr = 0, s_hyb = 0;
  int n = 0;
  for (const auto& e : ctx.matrices) {
    if (e.paper_rows != e.paper_cols) continue;  // PageRank needs square
    try {
      const auto res = run_dynamic(ctx, e, epochs);
      t.add_row({e.abbrev, Table::num(res.mean_speedup_vs_csr(), 2),
                 Table::num(res.mean_speedup_vs_hyb(), 2)});
      s_csr += res.mean_speedup_vs_csr();
      s_hyb += res.mean_speedup_vs_hyb();
      ++n;
    } catch (const vgpu::DeviceOom&) {
      t.add_row({e.abbrev, "OOM", "OOM"});
    }
  }
  if (n > 0)
    t.add_row({"AVG", Table::num(s_csr / n, 2), Table::num(s_hyb / n, 2)});
  t.print();
  std::cout << "\nPaper shape: dynamic-graph speedups exceed the static "
               "Fig. 6 speedups because preprocessing + transfer recur "
               "every epoch.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
