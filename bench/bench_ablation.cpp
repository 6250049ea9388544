// Ablations over ACSR's design knobs (DESIGN.md section 4):
//   * ThreadLoad — child-kernel thread coarsening (Algorithm 3's knob),
//   * BinMax — where bin-specific kernels hand over to dynamic parallelism,
//   * RowMax — dynamic parallelism off/capped/uncapped,
//   * concurrent vs serialised bin-grid launches.
#include "bench/bench_common.hpp"
#include "core/autotune.hpp"
#include "core/incremental_csr.hpp"
#include "graph/dynamic.hpp"

namespace {

using namespace acsr;

double acsr_spmv_us(const bench::BenchContext& ctx,
                    const mat::Csr<float>& m, const core::AcsrOptions& opt) {
  vgpu::Device dev(ctx.spec);
  core::AcsrEngine<float> engine(dev, m, opt);
  return engine.spmv_seconds() * 1e6;
}

}  // namespace

static int run_program(int argc, char** argv) {
  const Cli cli(argc, argv);
  auto ctx = bench::BenchContext::from_cli(cli);
  const auto& entry = graph::corpus_entry(cli.get_or("matrix", "RAL"));
  ctx.print_header("ACSR design-knob ablations on " + entry.abbrev);
  const auto m = ctx.build<float>(entry);

  {
    std::cout << "--- ThreadLoad (elements per child-kernel thread) ---\n";
    Table t({"ThreadLoad", "SpMV us"});
    for (int tl : {1, 2, 4, 8, 16, 32, 64}) {
      core::AcsrOptions opt;
      opt.thread_load = tl;
      t.add_row({Table::integer(tl), Table::num(acsr_spmv_us(ctx, m, opt), 2)});
    }
    t.print();
  }

  {
    std::cout << "\n--- BinMax (bins beyond this go to dynamic "
                 "parallelism) ---\n";
    Table t({"BinMax", "nnz threshold", "RS grids", "SpMV us"});
    for (int bm : {3, 5, 7, 8, 10, 12, 20}) {
      core::AcsrOptions opt;
      opt.binning.bin_max = bm;
      vgpu::Device dev(ctx.spec);
      core::AcsrEngine<float> engine(dev, m, opt);
      t.add_row({Table::integer(bm), Table::integer(1LL << bm),
                 Table::integer(engine.row_grids()),
                 Table::num(engine.spmv_seconds() * 1e6, 2)});
    }
    t.print();
  }

  {
    std::cout << "\n--- RowMax (dynamic-parallelism row cap) ---\n";
    Table t({"RowMax", "RS grids", "SpMV us"});
    for (int rm : {0, 8, 64, 512, 2048}) {
      core::AcsrOptions opt;
      opt.binning.row_max = rm;
      vgpu::Device dev(ctx.spec);
      core::AcsrEngine<float> engine(dev, m, opt);
      t.add_row({Table::integer(rm), Table::integer(engine.row_grids()),
                 Table::num(engine.spmv_seconds() * 1e6, 2)});
    }
    t.print();
  }

  {
    std::cout << "\n--- bin grids: concurrent streams vs serialised ---\n";
    Table t({"launch mode", "SpMV us"});
    core::AcsrOptions conc;
    conc.concurrent_streams = true;
    core::AcsrOptions seq;
    seq.concurrent_streams = false;
    t.add_row({"concurrent", Table::num(acsr_spmv_us(ctx, m, conc), 2)});
    t.add_row({"serialised", Table::num(acsr_spmv_us(ctx, m, seq), 2)});
    t.print();
    std::cout << "\nConcurrent per-bin grids overlap their resource use "
                 "and share L2 across the aligned row sweeps.\n";
  }

  {
    std::cout << "\n--- x through texture path vs plain global loads ---\n";
    Table t({"x path", "SpMV us"});
    core::AcsrOptions tex;
    tex.use_texture = true;
    core::AcsrOptions plain;
    plain.use_texture = false;
    t.add_row({"texture", Table::num(acsr_spmv_us(ctx, m, tex), 2)});
    t.add_row({"global", Table::num(acsr_spmv_us(ctx, m, plain), 2)});
    t.print();
    std::cout << "\nThe texture cache absorbs the scattered x gathers — "
                 "the reason the paper (and cuSPARSE) binds x to texture "
                 "memory.\n";
  }

  {
    std::cout << "\n--- dynamic-update kernel: warp-per-row (lane 0) vs "
                 "thread-per-row ---\n";
    // Use a square power-law matrix with varied row lengths.
    const auto& ue = graph::corpus_entry("YOT");
    const auto um = ctx.build<double>(ue);
    Table t({"kernel mode", "update kernel us"});
    for (const auto mode : {core::UpdateKernelMode::kWarpPerRowLane0,
                            core::UpdateKernelMode::kThreadPerRow}) {
      vgpu::Device dev(ctx.spec);
      core::IncrementalCsr<double> inc(dev, um, 0.5, 0.10, mode);
      graph::UpdateParams p;
      p.seed = 3;
      const auto batch = graph::generate_update(um, p);
      const auto r = inc.apply_update(batch);
      t.add_row({mode == core::UpdateKernelMode::kWarpPerRowLane0
                     ? "warp-per-row, lane 0"
                     : "thread-per-row (divergent)",
                 Table::num(r.kernel_s * 1e6, 2)});
    }
    t.print();
    std::cout << "\nThe paper assigns a warp per row with one active lane "
                 "precisely to avoid paying every warp the cost of its "
                 "slowest row.\n";
  }

  {
    std::cout << "\n--- parameter auto-tuning (extension) ---\n";
    vgpu::Device dev(ctx.spec);
    const auto tuned = core::autotune_acsr(dev, m);
    vgpu::Device d_def(ctx.spec);
    core::AcsrEngine<float> def(d_def, m);
    Table t({"configuration", "BinMax", "ThreadLoad", "SpMV us"});
    t.add_row({"default", Table::integer(core::AcsrOptions{}.binning.bin_max),
               Table::integer(core::AcsrOptions{}.thread_load),
               Table::num(def.spmv_seconds() * 1e6, 2)});
    t.add_row({"auto-tuned", Table::integer(tuned.best.binning.bin_max),
               Table::integer(tuned.best.thread_load),
               Table::num(tuned.best_spmv_s * 1e6, 2)});
    t.print();
    std::cout << "\ntuning cost: " << Table::num(tuned.tuning_cost_s * 1e6, 1)
              << " us over " << tuned.trials
              << " trials — tens of SpMVs, because only O(rows) metadata "
                 "is rebuilt per trial (vs BCCOO's 10^5 x one SpMV).\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
