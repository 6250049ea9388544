// Methodology validity check: the reproduction's headline ratios must be
// stable across the corpus reduction factor, otherwise they would be
// artifacts of the 1/64 scaling rather than properties of the algorithms.
// Sweeps ACSR/CSR and ACSR/HYB speedups at three scales.
#include "bench/bench_common.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  std::cout << "=== scale sensitivity: headline ratios vs ACSR_SCALE ===\n\n";

  Table t({"scale", "matrix", "ACSR/CSR sp", "ACSR/HYB sp"});
  for (long long scale : {128LL, 64LL, 32LL}) {
    const auto spec =
        vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(scale);
    core::EngineConfig cfg;
    cfg.hyb_breakeven = static_cast<mat::index_t>(
        std::max<long long>(1, 4096 / scale));
    GeoMean g_csr, g_hyb;
    for (const char* ab : {"CNR", "EU2", "WIK", "YOT", "LIV"}) {
      const auto md = graph::build_matrix(graph::corpus_entry(ab), scale);
      mat::Csr<float> m;
      m.rows = md.rows;
      m.cols = md.cols;
      m.row_off = md.row_off;
      m.col_idx = md.col_idx;
      m.vals.assign(md.vals.begin(), md.vals.end());
      double g[3];
      int i = 0;
      for (const char* name : {"acsr", "csr", "hyb"}) {
        vgpu::Device dev(spec);
        auto e = core::make_engine<float>(name, dev, m, cfg);
        g[i++] = e->gflops();
      }
      g_csr.add(g[0] / g[1]);
      g_hyb.add(g[0] / g[2]);
      t.add_row({"1/" + std::to_string(scale), ab, Table::num(g[0] / g[1], 2),
                 Table::num(g[0] / g[2], 2)});
    }
    t.add_row({"1/" + std::to_string(scale), "GEOMEAN",
               Table::num(g_csr.value(), 2), Table::num(g_hyb.value(), 2)});
  }
  t.print();
  std::cout << "\nStable geomeans across a 4x scale range mean the format "
               "ordering is not an artifact of the corpus reduction.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
