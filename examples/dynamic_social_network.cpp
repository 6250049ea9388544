// Evolving social network (paper section VII): a follower graph changes
// every epoch; influence scores (PageRank) are recomputed with warm
// restarts. The incremental-ACSR pipeline ships only the change lists to
// the device, while the CSR/HYB baselines re-copy (and HYB re-transforms)
// the whole matrix.
//
//   ./examples/dynamic_social_network [--users=30000] [--epochs=8]
#include <iostream>

#include "apps/dynamic_pagerank.hpp"
#include "common/cli.hpp"
#include "graph/powerlaw.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);

  graph::PowerLawSpec spec;
  spec.rows = static_cast<mat::index_t>(cli.get_int("users", 30000));
  spec.cols = spec.rows;
  spec.mean_nnz_per_row = 12.0;  // average follow count
  spec.alpha = 1.6;              // a few celebrities with huge audiences
  spec.max_row_nnz = spec.rows / 10;
  spec.seed = 77;
  const mat::Csr<double> follows = graph::powerlaw_matrix(spec);
  std::cout << "social network: " << follows.rows << " users, "
            << follows.nnz() << " follow edges\n\n";

  const auto dev_spec = vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(
      cli.get_int("scale", 64));
  vgpu::Device acsr_dev(dev_spec), csr_dev(dev_spec), hyb_dev(dev_spec);

  apps::DynamicPageRankConfig cfg;
  cfg.epochs = static_cast<int>(cli.get_int("epochs", 8));
  cfg.update.row_fraction = 0.10;  // 10% of users change follows per epoch
  const auto res = apps::dynamic_pagerank(
      acsr_dev, csr_dev, hyb_dev, apps::pagerank_matrix(follows), cfg);

  std::cout << "epoch  iters  ACSR ms   CSR ms   HYB ms   vs CSR  vs HYB\n";
  for (const auto& e : res.epochs) {
    std::printf("%5d  %5d  %7.3f  %7.3f  %7.3f  %6.2fx %6.2fx%s\n",
                e.epoch, e.iterations, e.acsr_s * 1e3, e.csr_s * 1e3,
                e.hyb_s * 1e3, e.speedup_vs_csr(), e.speedup_vs_hyb(),
                e.rebuilt ? "  (spare heap exhausted: rebuild)" : "");
  }
  std::cout << "\naverage speedup: " << res.mean_speedup_vs_csr()
            << "x over CSR, " << res.mean_speedup_vs_hyb()
            << "x over HYB\n"
            << "warm restarts cut iterations after epoch 0; the change-"
               "list upload is what keeps ACSR's per-epoch cost flat.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
