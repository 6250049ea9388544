// Quickstart: build a power-law matrix, run one ACSR SpMV on the simulated
// GTX Titan, and compare against the CSR and HYB baselines.
//
//   ./examples/quickstart [--rows=20000] [--mu=8] [--scale=64]
#include <iostream>

#include "common/cli.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);

  // 1. A synthetic power-law matrix (or load your own via mat::read_
  //    matrix_market_file and mat::Csr<double>::from_coo).
  graph::PowerLawSpec spec;
  spec.rows = static_cast<mat::index_t>(cli.get_int("rows", 20000));
  spec.cols = spec.rows;
  spec.mean_nnz_per_row = cli.get_double("mu", 8.0);
  spec.alpha = 1.6;
  spec.max_row_nnz = spec.rows / 8;
  const mat::Csr<double> a = graph::powerlaw_matrix(spec);
  const auto st = a.row_stats();
  std::cout << "matrix: " << a.rows << " x " << a.cols << ", "
            << a.nnz() << " non-zeros (mu " << st.mean << ", sigma "
            << st.stddev << ", max row " << st.max << ")\n\n";

  // 2. A simulated device. scaled_for_corpus shrinks the fixed overheads
  //    to match a reduced-size workload (see DESIGN.md).
  const auto scale = cli.get_int("scale", 64);
  const vgpu::DeviceSpec dev_spec =
      vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(scale);

  // 3. One engine per format; each reports preprocessing, footprint and
  //    simulated SpMV time.
  std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0), y;
  for (const std::string name : {"csr", "hyb", "acsr"}) {
    vgpu::Device dev(dev_spec);
    auto engine = core::make_engine<double>(name, dev, a);
    const double t = engine->simulate(x, y);
    std::cout << engine->name() << ":\n"
              << "  preprocessing  " << engine->report().preprocess_s * 1e6
              << " us\n"
              << "  one SpMV       " << t * 1e6 << " us  ("
              << engine->gflops() << " GFLOPs)\n"
              << "  device memory  " << engine->report().device_bytes
              << " bytes, padding "
              << engine->report().padding_ratio * 100 << "%\n";
  }

  // 4. ACSR-specific introspection: the bin structure of Algorithm 1.
  vgpu::Device dev(dev_spec);
  core::AcsrEngine<double> acsr(dev, a);
  std::cout << "\nACSR launched " << acsr.bin_grids()
            << " bin-specific grids and routed " << acsr.row_grids()
            << " long-tail rows through dynamic parallelism.\n"
            << "y[0] = " << y[0] << " (matches the host reference)\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
