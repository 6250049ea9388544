// Kernel-level profiler: run one SpMV per engine and print the simulator's
// roofline breakdown — which resource binds (issue, flops, DRAM, latency),
// the hardware-event counters, and the bytes-per-nonzero each format
// actually moves. The numbers behind every figure bench, exposed.
//
//   ./examples/spmv_profile [--matrix=HOL] [--device=titan] [--scale=64]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/factory.hpp"
#include "graph/corpus.hpp"

static int run_program(int argc, char** argv) {
  using namespace acsr;
  const Cli cli(argc, argv);
  const long long scale = cli.get_int("scale", graph::default_scale());
  const auto spec =
      vgpu::DeviceSpec::by_name(cli.get_or("device", "titan"))
          .scaled_for_corpus(scale);
  const auto& entry = graph::corpus_entry(cli.get_or("matrix", "HOL"));
  const mat::Csr<double> md = graph::build_matrix(entry, scale);
  mat::Csr<float> m;
  m.rows = md.rows;
  m.cols = md.cols;
  m.row_off = md.row_off;
  m.col_idx = md.col_idx;
  m.vals.assign(md.vals.begin(), md.vals.end());

  std::cout << "profiling " << entry.abbrev << " (" << m.rows << " rows, "
            << m.nnz() << " nnz) on " << spec.name << "\n\n";

  Table t({"engine", "SpMV us", "bound", "issue us", "flop us", "mem us",
           "lat us", "gmem B/nnz", "tex B/nnz", "warps", "atomics",
           "child grids"});
  core::EngineConfig cfg;
  cfg.hyb_breakeven =
      static_cast<mat::index_t>(std::max<long long>(1, 4096 / scale));
  for (const std::string name :
       {"csr-scalar", "csr", "csr-vector", "coo", "hyb", "brc", "sic",
        "merge-csr", "acsr"}) {
    vgpu::Device dev(spec);
    auto e = core::make_engine<float>(name, dev, m, cfg);
    std::vector<float> x(static_cast<std::size_t>(m.cols), 1.0f), y;
    const double total = e->simulate(x, y);
    const auto& run = e->report().last_run;
    const auto& c = run.counters;
    const double nnz = static_cast<double>(m.nnz());
    // Which single-kernel resource binds (multi-kernel engines report
    // their first kernel's breakdown; the total is the composed time).
    std::string bound = "issue";
    double best = run.issue_s;
    for (const auto& [nm, v] :
         {std::pair<const char*, double>{"flop", run.flop_s},
          {"mem", run.memory_s},
          {"lat", run.latency_s}})
      if (v > best) {
        best = v;
        bound = nm;
      }
    t.add_row({name, Table::num(total * 1e6, 2), bound,
               Table::num(run.issue_s * 1e6, 2),
               Table::num(run.flop_s * 1e6, 2),
               Table::num(run.memory_s * 1e6, 2),
               Table::num(run.latency_s * 1e6, 2),
               Table::num(static_cast<double>(c.gmem_bytes) / nnz, 1),
               Table::num(static_cast<double>(c.tex_bytes) / nnz, 1),
               Table::integer(static_cast<long long>(c.warps)),
               Table::integer(static_cast<long long>(c.atomic_ops)),
               Table::integer(static_cast<long long>(c.child_launches))});
  }
  t.print();
  std::cout << "\ngmem/tex B-per-nnz show each format's traffic "
               "efficiency; 'bound' names the roofline term that sets the "
               "kernel's duration.\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
