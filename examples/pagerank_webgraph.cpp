// Web-graph ranking: generate an R-MAT web crawl, run PageRank with the
// ACSR engine, and print the top pages — the paper's flagship application
// (section VI-A).
//
//   ./examples/pagerank_webgraph [--scale-log2=13] [--device=titan]
#include <algorithm>
#include <iostream>

#include "apps/pagerank.hpp"
#include "common/cli.hpp"
#include "core/acsr_engine.hpp"
#include "graph/rmat.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);

  graph::RmatParams p;
  p.scale = static_cast<int>(cli.get_int("scale-log2", 13));
  p.edges_per_vertex = 12.0;
  p.seed = 2014;
  const mat::Csr<double> adj =
      mat::Csr<double>::from_coo(graph::rmat(p));
  std::cout << "web graph: " << adj.rows << " pages, " << adj.nnz()
            << " links\n";

  // PageRank multiplies by the transposed row-normalised adjacency.
  const mat::Csr<double> m = apps::pagerank_matrix(adj);
  vgpu::Device dev(
      vgpu::DeviceSpec::by_name(cli.get_or("device", "titan"))
          .scaled_for_corpus(cli.get_int("scale", 64)));
  core::AcsrEngine<double> engine(dev, m);

  apps::PageRankConfig cfg;  // d = 0.85, epsilon = 1e-6, as in the paper
  const auto res = apps::pagerank(engine, cfg);
  std::cout << "converged after " << res.iterations
            << " iterations; simulated GPU time "
            << res.total_s * 1e3 << " ms (SpMV share "
            << 100.0 * res.spmv_s / res.total_s << "%)\n\n";

  std::vector<mat::index_t> order(res.scores.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<mat::index_t>(i);
  std::partial_sort(order.begin(), order.begin() + 10, order.end(),
                    [&](mat::index_t a, mat::index_t b) {
                      return res.scores[static_cast<std::size_t>(a)] >
                             res.scores[static_cast<std::size_t>(b)];
                    });
  std::cout << "top pages by rank:\n";
  for (int i = 0; i < 10; ++i) {
    const auto page = order[static_cast<std::size_t>(i)];
    std::cout << "  #" << i + 1 << "  page " << page << "  score "
              << res.scores[static_cast<std::size_t>(page)] << "  ("
              << adj.row_nnz(page) << " out-links)\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
