// Iterative solver scenario (the paper's Eq. 2-4 context): solve a 2D
// Poisson problem with Conjugate Gradient and watch the format economics —
// for a long fixed-structure solve, HYB's transformation amortises; stop
// early (or change the matrix) and ACSR wins.
//
//   ./examples/iterative_solver [--grid=96] [--scale=64]
#include <iostream>

#include "apps/cg.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  const auto g = static_cast<mat::index_t>(cli.get_int("grid", 96));
  const auto a = apps::laplacian_2d<double>(g, g);
  std::cout << "2D Poisson, " << g << "x" << g << " grid: " << a.rows
            << " unknowns, " << a.nnz() << " non-zeros\n\n";

  const auto spec = vgpu::DeviceSpec::gtx_titan().scaled_for_corpus(
      cli.get_int("scale", 64));
  std::vector<double> b(static_cast<std::size_t>(a.rows), 1.0);

  Table t({"format", "preproc us", "CG iters", "solve us (incl. preproc)",
           "residual"});
  for (const std::string name : {"csr", "ell", "hyb", "acsr"}) {
    vgpu::Device dev(spec);
    auto engine = core::make_engine<double>(name, dev, a);
    const auto res = apps::conjugate_gradient(*engine, b);
    t.add_row({name, Table::num(engine->report().preprocess_s * 1e6, 1),
               Table::integer(res.iterations),
               Table::num(res.total_s * 1e6, 1),
               Table::num(res.residual_norm, 10)});
  }
  t.print();
  std::cout << "\nOn this banded SPD matrix even ELL applies (no long "
               "tail); after hundreds of iterations the transformed "
               "formats have amortised their preprocessing — exactly the "
               "regime Table IV's crossover n describes. Power-law graphs "
               "with evolving structure never reach it.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
