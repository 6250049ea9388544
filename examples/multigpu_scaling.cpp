// Multi-GPU scaling (paper section VIII): split each ACSR bin across the
// two dies of a Tesla K10 and measure the speedup as the matrix grows —
// small matrices cannot saturate even one die, large ones approach 2x.
//
//   ./examples/multigpu_scaling [--devices=2]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/multi_gpu.hpp"
#include "graph/powerlaw.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  const int n_dev = static_cast<int>(cli.get_int("devices", 2));
  const auto spec = vgpu::DeviceSpec::tesla_k10().scaled_for_corpus(
      cli.get_int("scale", 64));

  std::cout << "ACSR across " << n_dev
            << " simulated GK104 dies, growing workload:\n\n";
  Table t({"rows", "nnz", "1 GPU us", std::to_string(n_dev) + " GPUs us",
           "speedup"});
  for (int rows : {500, 2000, 8000, 32000, 128000}) {
    graph::PowerLawSpec s;
    s.rows = rows;
    s.cols = rows;
    s.mean_nnz_per_row = 16.0;
    s.alpha = 1.7;
    s.max_row_nnz = rows / 8;
    s.seed = 5;
    const mat::Csr<double> a = graph::powerlaw_matrix(s);

    vgpu::Device single(spec);
    core::AcsrEngine<double> one(single, a);

    std::vector<std::unique_ptr<vgpu::Device>> devs;
    std::vector<vgpu::Device*> ptrs;
    for (int d = 0; d < n_dev; ++d) {
      devs.push_back(std::make_unique<vgpu::Device>(spec));
      ptrs.push_back(devs.back().get());
    }
    core::MultiGpuAcsr<double> multi(ptrs, a);

    std::vector<double> x(static_cast<std::size_t>(rows), 1.0), y;
    const double t1 = one.simulate(x, y);
    const double tn = multi.simulate(x, y);
    t.add_row({Table::integer(rows), Table::integer(a.nnz()),
               Table::num(t1 * 1e6, 2), Table::num(tn * 1e6, 2),
               Table::num(t1 / tn, 2)});
  }
  t.print();
  std::cout << "\nthe bin partitioner deals each bin's rows evenly, so "
               "every device sees the same work shape; scaling is bounded "
               "by workload size, not by imbalance.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
