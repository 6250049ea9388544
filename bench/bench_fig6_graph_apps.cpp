// Figure 6: speedup of ACSR over CSR and HYB inside the three graph-mining
// applications (PageRank top, HITS center, RWR bottom), with the number of
// iterations to convergence per matrix. Run all three by default or pick
// one with --app=pagerank|hits|rwr.
#include "apps/hits.hpp"
#include "apps/pagerank.hpp"
#include "apps/rwr.hpp"
#include "bench/bench_common.hpp"

namespace {

using namespace acsr;

struct AppRow {
  int iterations = 0;
  double speedup_vs_csr = 0.0;
  double speedup_vs_hyb = 0.0;
  bool oom = false;
};

/// Total app time with a given engine = iterations x (SpMV + aux vector
/// kernels); iterations are identical across engines (same math), so the
/// speedups reduce to per-iteration step-time ratios — matching the
/// paper's protocol of excluding H2D copies and HYB transformation.
template <class T>
AppRow run_app(const bench::BenchContext& ctx, const graph::CorpusEntry& e,
               const std::string& app) {
  AppRow row;
  try {
    const mat::Csr<T> adj = ctx.build<T>(e);
    mat::Csr<T> operand;
    if (app == "pagerank") {
      operand = apps::pagerank_matrix(adj);
    } else if (app == "hits") {
      operand = mat::make_hits_matrix(adj);
    } else {
      operand = apps::rwr_matrix(adj);
    }

    double total[3] = {0, 0, 0};  // acsr, csr, hyb
    int iterations = 0;
    const char* fmts[3] = {"acsr", "csr", "hyb"};
    for (int i = 0; i < 3; ++i) {
      vgpu::Device dev(ctx.spec);
      auto engine =
          core::make_engine<T>(fmts[i], dev, operand, ctx.engine_cfg);
      if (app == "pagerank") {
        const auto r = apps::pagerank(*engine, apps::PageRankConfig{});
        total[i] = r.total_s;
        iterations = r.iterations;
      } else if (app == "hits") {
        const auto r = apps::hits(*engine, apps::PowerIterConfig{});
        total[i] = r.iteration.total_s;
        iterations = r.iteration.iterations;
      } else {
        apps::RwrConfig cfg;
        cfg.source = 0;
        const auto r = apps::rwr(*engine, cfg);
        total[i] = r.total_s;
        iterations = r.iterations;
      }
    }
    row.iterations = iterations;
    row.speedup_vs_csr = total[1] / total[0];
    row.speedup_vs_hyb = total[2] / total[0];
  } catch (const vgpu::DeviceOom&) {
    row.oom = true;
  }
  return row;
}

void run_one(const bench::BenchContext& ctx, const std::string& app) {
  std::cout << "--- Fig. 6 (" << app
            << "): ACSR speedup over CSR and HYB ---\n";
  Table t({"Matrix", "iterations", "vs CSR", "vs HYB"});
  double s_csr = 0, s_hyb = 0;
  int n = 0;
  for (const auto& e : ctx.matrices) {
    if (e.paper_rows != e.paper_cols) continue;  // apps need square matrices
    const AppRow r = run_app<double>(ctx, e, app);
    if (r.oom) {
      t.add_row({e.abbrev, "OOM", "-", "-"});
      continue;
    }
    t.add_row({e.abbrev, Table::integer(r.iterations),
               Table::num(r.speedup_vs_csr, 2),
               Table::num(r.speedup_vs_hyb, 2)});
    s_csr += r.speedup_vs_csr;
    s_hyb += r.speedup_vs_hyb;
    ++n;
  }
  if (n > 0)
    t.add_row({"AVG", "-", Table::num(s_csr / n, 2),
               Table::num(s_hyb / n, 2)});
  t.print();
  std::cout << '\n';
}

}  // namespace

static int run_program(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  ctx.print_header("Fig. 6: graph-mining applications");
  const std::string app = cli.get_or("app", "all");
  if (app == "all") {
    for (const char* a : {"pagerank", "hits", "rwr"}) run_one(ctx, a);
  } else {
    run_one(ctx, app);
  }
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
