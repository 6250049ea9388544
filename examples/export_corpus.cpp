// Export the Table-I synthetic corpus as Matrix Market files, so the exact
// matrices behind every figure can be consumed by external tools (or by
// this library on another machine, bit-identically).
//
//   ./examples/export_corpus [--dir=/tmp/acsr_corpus] [--scale=64]
#include <filesystem>
#include <iostream>

#include "common/cli.hpp"
#include "graph/corpus.hpp"
#include "mat/mm_io.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  const long long scale = cli.get_int("scale", graph::default_scale());
  const std::string dir = cli.get_or("dir", "/tmp/acsr_corpus");
  std::filesystem::create_directories(dir);

  std::size_t total_bytes = 0;
  for (const auto& e : graph::table1_corpus()) {
    const auto m = graph::build_matrix(e, scale);
    const std::string path = dir + "/" + e.abbrev + ".mtx";
    mat::write_matrix_market_file(m.to_coo(), path);
    const auto bytes = std::filesystem::file_size(path);
    total_bytes += bytes;
    std::cout << e.abbrev << " -> " << path << "  (" << m.rows << " rows, "
              << m.nnz() << " nnz, " << bytes / 1024 << " KiB)\n";
  }
  std::cout << "\nwrote " << graph::table1_corpus().size()
            << " matrices, " << total_bytes / (1024 * 1024)
            << " MiB total, at corpus scale 1/" << scale
            << ".\nRound-trip them with examples/format_explorer "
               "--mtx=<path>.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
