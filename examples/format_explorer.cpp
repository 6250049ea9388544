// Format explorer: inspect how every supported sparse format handles a
// matrix — footprint, padding, preprocessing cost, simulated SpMV time —
// and get a recommendation. Accepts a Matrix Market file or generates a
// synthetic matrix.
//
//   ./examples/format_explorer [--mtx=/path/to/matrix.mtx]
//                              [--kind=powerlaw|uniform|banded]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "graph/powerlaw.hpp"
#include "mat/dia.hpp"
#include "mat/mm_io.hpp"

namespace {

using namespace acsr;

mat::Csr<double> make_input(const Cli& cli) {
  if (auto path = cli.get("mtx"))
    return mat::Csr<double>::from_coo(mat::read_matrix_market_file(*path));
  const std::string kind = cli.get_or("kind", "powerlaw");
  if (kind == "banded") {
    // Pentadiagonal stencil matrix: DIA territory.
    mat::Csr<double> m;
    const mat::index_t n = 20000;
    m.rows = n;
    m.cols = n;
    m.row_off.assign(static_cast<std::size_t>(n) + 1, 0);
    for (mat::index_t r = 0; r < n; ++r) {
      for (mat::index_t c = std::max(0, r - 2);
           c <= std::min(n - 1, r + 2); ++c) {
        m.col_idx.push_back(c);
        m.vals.push_back(r == c ? 4.0 : -1.0);
      }
      m.row_off[static_cast<std::size_t>(r) + 1] =
          static_cast<mat::offset_t>(m.col_idx.size());
    }
    return m;
  }
  graph::PowerLawSpec s;
  s.rows = 20000;
  s.cols = 20000;
  s.mean_nnz_per_row = 9.0;
  s.alpha = kind == "uniform" ? -1.0 : 1.6;
  s.max_row_nnz = kind == "uniform" ? 18 : 2500;
  return graph::powerlaw_matrix(s);
}

}  // namespace

static int run_program(int argc, char** argv) {
  const Cli cli(argc, argv);
  const mat::Csr<double> a = make_input(cli);
  const auto st = a.row_stats();
  std::cout << "matrix: " << a.rows << " x " << a.cols << ", " << a.nnz()
            << " nnz; rows mu " << st.mean << " sigma " << st.stddev
            << " max " << st.max << "\n\n";

  const auto spec = vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(
      cli.get_int("scale", 64));

  Table t({"format", "preproc us", "SpMV us", "GFLOPs", "device MB",
           "padding %", "note"});
  std::string best_format;
  double best_time = 0.0;
  for (const std::string name :
       {"csr-scalar", "csr", "csr-vector", "ell", "coo", "hyb", "brc",
        "bccoo", "tcoo", "acsr", "acsr-binning"}) {
    vgpu::Device dev(spec);
    try {
      auto e = core::make_engine<double>(name, dev, a);
      const double spmv = e->spmv_seconds();
      t.add_row({name, Table::num(e->report().preprocess_s * 1e6, 1),
                 Table::num(spmv * 1e6, 2), Table::num(e->gflops(), 1),
                 Table::num(static_cast<double>(e->report().device_bytes) /
                                (1 << 20),
                            2),
                 Table::num(e->report().padding_ratio * 100, 1), ""});
      if (best_format.empty() || spmv < best_time) {
        best_format = name;
        best_time = spmv;
      }
    } catch (const InputError& err) {
      t.add_row({name, "-", "-", "-", "-", "-", "rejected: unsuitable"});
    } catch (const vgpu::DeviceOom&) {
      t.add_row({name, "-", "-", "-", "-", "-", "out of device memory"});
    }
  }
  // DIA is not an SpMV engine here, but show whether it would even apply.
  try {
    const auto d = mat::Dia<double>::from_csr(a);
    t.add_row({"dia", "-", "-", "-",
               Table::num(static_cast<double>(d.bytes()) / (1 << 20), 2),
               "-", "structured matrix: DIA applies"});
  } catch (const InputError&) {
    t.add_row({"dia", "-", "-", "-", "-", "-", "too many diagonals"});
  }
  t.print();

  std::cout << "\nfastest steady-state SpMV: " << best_format << "\n"
            << "for frequently-changing sparsity (dynamic graphs), prefer "
               "acsr: its preprocessing is a single row-length scan.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
