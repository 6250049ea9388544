// Walk through the paper's Figures 1 and 2 on an 8-row example matrix:
// the CSR arrays (Fig. 1a), the HYB split with k = 2 (Fig. 1b), the ACSR
// bins (Fig. 2b) and the grids one ACSR SpMV launches (Fig. 2c/d).
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/acsr_engine.hpp"
#include "mat/hyb.hpp"

static int run_program(int, char**) {
  using namespace acsr;

  // An 8x8 matrix in the spirit of the paper's example: a few 1-2 nnz
  // rows, a few 3-4 nnz rows, and two long rows that land in bin 3+.
  mat::Coo<double> c;
  c.rows = 8;
  c.cols = 8;
  auto row = [&](mat::index_t r, std::initializer_list<mat::index_t> cols) {
    for (mat::index_t j : cols) c.push(r, j, 1.0 + r + 0.1 * j);
  };
  row(0, {0, 3});                          // 2 nnz  -> bin 1
  row(1, {1});                             // 1 nnz  -> bin 1
  row(2, {0, 2, 5, 7});                    // 4 nnz  -> bin 2
  row(3, {0, 1, 2, 3, 4, 5, 6, 7});        // 8 nnz  -> bin 3
  row(4, {6});                             // 1 nnz  -> bin 1
  row(5, {2, 4, 6});                       // 3 nnz  -> bin 2
  row(6, {0, 1, 2, 3, 4, 6, 7});           // 7 nnz  -> bin 3
  row(7, {3, 5, 7});                       // 3 nnz  -> bin 2
  const auto a = mat::Csr<double>::from_coo(c);

  std::cout << "=== Fig. 1a: the CSR representation ===\n"
            << "row_off: ";
  for (auto v : a.row_off) std::cout << v << ' ';
  std::cout << "\ncol_idx: ";
  for (auto v : a.col_idx) std::cout << v << ' ';
  std::cout << "\nvalues:  " << a.vals.size() << " non-zeros\n\n";

  std::cout << "=== Fig. 1b: the HYB split with k = 2 ===\n";
  // The figure fixes k = 2; build that split directly.
  const auto ell2 = mat::Ell<double>::from_csr_with_width(a, 2);
  mat::offset_t coo_tail = a.nnz() - ell2.nnz();
  std::cout << "ELL part: " << a.rows << " rows x " << ell2.width
            << " slots (" << ell2.nnz() << " real entries, "
            << Table::num(ell2.padding_ratio() * 100, 0)
            << "% padding)\nCOO part: " << coo_tail
            << " overflow entries from the long rows\n"
            << "(the library's CUSP heuristic would pick k = "
            << mat::Hyb<double>::choose_k(a, 1) << " here)\n\n";

  std::cout << "=== Fig. 2b: the ACSR bins (bin i holds (2^{i-1}, 2^i] "
               "nnz) ===\n";
  vgpu::Device dev(vgpu::DeviceSpec::gtx_titan());
  core::AcsrOptions opt;
  opt.binning.bin_max = 2;  // the figure's BinMax = 2: bin 3 goes to DP
  core::AcsrEngine<double> engine(dev, a, opt);
  const auto& b = engine.binning();
  for (std::size_t i = 1; i < b.bins.size(); ++i) {
    if (b.bins[i].empty()) continue;
    std::cout << "BIN" << i << " (vector size "
              << core::Binning::vector_size_for_bin(i) << "): rows ";
    for (auto r : b.bins[i]) std::cout << r << ' ';
    std::cout << '\n';
  }
  std::cout << "G1 (dynamic parallelism): rows ";
  for (auto r : b.dp_rows) std::cout << r << ' ';
  std::cout << "\n\n=== Fig. 2c/d: one SpMV's launch sequence ===\n"
            << engine.bin_grids()
            << " bin-specific grids (concurrent streams) + 1 parent grid "
               "launching "
            << engine.row_grids() << " row-specific child grids\n";

  std::vector<double> x(8, 1.0), y;
  engine.simulate(x, y);
  std::cout << "\ny = A*1 = ";
  for (double v : y) std::cout << Table::num(v, 1) << ' ';
  std::cout << "\n(each row handled by exactly one mechanism; results "
               "match the host reference)\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
