// Figure 4: the ratio of preprocessing overhead to the time of ONE SpMV,
// per format. The paper's averages: BCCOO ~161k x, TCOO ~3k x, BRC ~87 x,
// HYB ~21 x, ACSR ~3 x.
#include "bench/comparators.hpp"
#include "common/cli.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  using bench::FormatTimes;
  const Cli cli(argc, argv);
  const auto ctx = bench::BenchContext::from_cli(cli);
  ctx.print_header("Fig. 4: preprocessing time / one-SpMV time");

  const auto& formats = bench::comparator_formats();
  std::vector<std::string> header = {"Matrix"};
  for (const auto& f : formats) header.push_back(f);
  Table t(header);
  std::vector<GeoMean> means(formats.size());

  for (const auto& e : ctx.matrices) {
    std::vector<std::string> row = {e.abbrev};
    for (std::size_t i = 0; i < formats.size(); ++i) {
      const FormatTimes ft = bench::measure_format(ctx, e, formats[i]);
      if (ft.oom) {
        row.push_back("OOM");
        continue;
      }
      const double ratio = ft.pre_s / ft.spmv_s;
      means[i].add(std::max(ratio, 1e-3));
      row.push_back(Table::num(ratio, 1));
    }
    t.add_row(row);
  }
  std::vector<std::string> avg = {"GEOMEAN"};
  for (auto& m : means) avg.push_back(Table::num(m.value(), 1));
  t.add_row(avg);
  t.print();
  std::cout << "\nPaper averages: BCCOO 161000, TCOO 3000, BRC 87, HYB 21, "
               "ACSR 3 (x one SpMV).\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
