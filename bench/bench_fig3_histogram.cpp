// Figure 3: the power-law row-length distribution. Prints the log2
// histogram (which is exactly the ACSR bin population) for one matrix —
// heavy mass at 1-4 nnz, a long tail on the right.
#include "bench/bench_common.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  const auto& entry = graph::corpus_entry(cli.get_or("matrix", "YOT"));
  ctx.print_header("Fig. 3: row-length distribution (histogram) for " +
                   entry.abbrev);

  const auto m = ctx.build<double>(entry);
  const auto st = m.row_stats();
  const auto& h = st.histogram;

  Table t({"nnz range (bin)", "rows", "frequency", ""});
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    if (h.count(b) == 0) continue;
    const auto lo = Log2Histogram::bucket_lo(b) + (b >= 1 ? 1 : 0);
    const auto hi = Log2Histogram::bucket_hi(b);
    const double f = h.frequency(b);
    std::string bar(static_cast<std::size_t>(f * 60.0), '#');
    t.add_row({(b == 0 ? std::string("0") : std::to_string(lo) + "-" +
                                                std::to_string(hi)),
               Table::integer(static_cast<long long>(h.count(b))),
               Table::num(f, 4), bar});
  }
  t.print();
  std::cout << "\nmu = " << Table::num(st.mean, 1)
            << ", sigma = " << Table::num(st.stddev, 1)
            << ", max = " << st.max
            << "  — heavy head of short rows plus a long tail, the two "
               "extremes ACSR's bins and dynamic parallelism target.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
