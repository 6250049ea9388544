// acsr_prof — nvprof-style profiling CLI for the virtual GPU.
//
// Runs one simulated SpMV for every engine (or a --engine subset) on a
// corpus matrix, then prints the per-engine kernel summary and the
// engines-as-columns metric matrix. The full numbers can be written as a
// metrics JSON document (--out) and compared against a committed baseline
// (--diff), which is how scripts/check.sh watches for model drift.
//
//   acsr_prof [--matrix WIK] [--engine acsr ...] [--out metrics.json]
//             [--trace trace.json] [--diff baseline.json]
//             [--threshold 0.1] [--quiet] [--tenants] [--ooc]
//
// --tenants runs the deterministic three-tenant serving scenario
// (apps/rwr_batch.hpp) through the batch scheduler on the first selected
// engine and prints the per-tenant billing table (docs/SERVING.md).
//
// --ooc runs one streamed SpMV through the out-of-core tier (ooc-csr)
// and prints the storage-plane io.* metric table — read amplification,
// queue depth, overlap efficiency, stall/penalty time (docs/OOC.md).
//
// The tool force-enables the profiler; ACSR_PROF need not be set.
// docs/OBSERVABILITY.md documents the metric formulas and both schemas.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/models.hpp"
#include "apps/rwr_batch.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/factory.hpp"
#include "core/ooc_engine.hpp"
#include "graph/corpus.hpp"
#include "prof/capture.hpp"
#include "prof/metrics.hpp"
#include "prof/prof.hpp"
#include "prof/report.hpp"
#include "serve/scheduler.hpp"
#include "vgpu/device.hpp"

namespace {

using acsr::json::Value;

struct Options {
  std::string matrix = "WIK";
  std::vector<std::string> engines;
  std::string out_path;
  std::string trace_path;
  std::string diff_path;
  double threshold = 0.10;
  bool quiet = false;
  bool tenants = false;
  bool ooc = false;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--matrix ABBREV] [--engine NAME ...] [--out FILE]\n"
               "       [--trace FILE] [--diff BASELINE] [--threshold REL]"
               " [--quiet] [--tenants] [--ooc]\n";
  return 2;
}

/// The --tenants table: the deterministic three-tenant scenario through
/// the batch scheduler, one row per tenant, one column per registered
/// tenant metric. All model quantities — bit-reproducible.
void render_tenants(const std::string& engine_name,
                    const acsr::vgpu::DeviceSpec& spec,
                    const acsr::mat::Csr<double>& a,
                    const acsr::core::EngineConfig& cfg) {
  acsr::vgpu::Device dev(spec);
  auto engine = acsr::core::make_engine<double>(engine_name, dev, a, cfg);
  acsr::serve::BatchScheduler<double> sched(*engine);
  acsr::apps::run_tenant_scenario(sched, a.cols);
  std::cout << "\n==== tenant billing (" << engine_name << ", "
            << sched.served_requests() << " requests, " << sched.batches()
            << " batches, avg width " << sched.batch_width_avg()
            << ", makespan " << sched.clock_s() * 1e3 << " ms) ====\n";
  acsr::prof::print_metric_table(sched.tenants(), 24);
}

/// The --ooc table: one streamed SpMV through the out-of-core tier, one
/// row per registered io.* metric. The engine is built directly (not via
/// the factory) so the io accounting is reachable without a downcast
/// through the memo/verify wrappers.
void render_ooc(const acsr::vgpu::DeviceSpec& spec,
                const acsr::mat::Csr<double>& a,
                const acsr::core::EngineConfig& cfg) {
  acsr::vgpu::Device dev(spec);
  acsr::core::OocCsrEngine<double> engine(dev, a, cfg.ooc);
  const std::vector<double> x(static_cast<std::size_t>(a.cols), 1.0);
  std::vector<double> y;
  engine.simulate(x, y);
  const acsr::prof::IoAgg& io = engine.io_stats();
  std::cout << "\n==== out-of-core storage plane (ooc-csr, "
            << engine.num_slabs() << " slabs, budget "
            << engine.budget_bytes() << " B, makespan "
            << engine.last_makespan() * 1e3 << " ms) ====\n";
  for (const auto& m : acsr::prof::registry<acsr::prof::IoAgg>())
    std::printf("  %-26s %14.6g  %-8s %s\n", m.name, m.compute(io), m.unit,
                m.formula);
}

bool load_json(const std::string& path, Value* out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "acsr_prof: cannot open '" << path << "'\n";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!acsr::json::parse(ss.str(), out, &err)) {
    std::cerr << "acsr_prof: '" << path << "': " << err << "\n";
    return false;
  }
  return true;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "acsr_prof: cannot write '" << path << "'\n";
    return false;
  }
  out << text << "\n";
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--matrix") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.matrix = v;
    } else if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.engines.emplace_back(v);
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.out_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.trace_path = v;
    } else if (arg == "--diff") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.diff_path = v;
    } else if (arg == "--threshold") {
      const std::optional<double> t = acsr::parse_exact<double>(next());
      if (!t || !std::isfinite(*t) || *t < 0.0) return usage(argv[0]);
      opt.threshold = *t;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--tenants") {
      opt.tenants = true;
    } else if (arg == "--ooc") {
      opt.ooc = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "acsr_prof: unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  acsr::prof::set_profiler_enabled(true);
  acsr::prof::Profiler& prof = acsr::prof::Profiler::instance();
  prof.clear();

  const long long scale = acsr::graph::default_scale();
  const acsr::mat::Csr<double> a = acsr::graph::build_matrix(
      acsr::graph::corpus_entry(opt.matrix), scale);
  const acsr::vgpu::DeviceSpec spec =
      acsr::vgpu::DeviceSpec::by_name("titan").scaled_for_corpus(scale);
  acsr::core::EngineConfig cfg;
  cfg.hyb_breakeven = std::max<long long>(1, 4096 / scale);

  const std::vector<std::string>& engines =
      opt.engines.empty() ? acsr::analysis::all_engine_names()
                          : opt.engines;
  for (const std::string& name : engines) {
    // Fresh device per engine: each engine's trace and metrics start from
    // cold caches and a dedicated pid row in the trace.
    acsr::vgpu::Device dev(spec);
    try {
      acsr::prof::capture_engine_spmv<double>(name, dev, a, cfg);
    } catch (const acsr::InputError& e) {
      std::cerr << "acsr_prof: skipping " << name << ": " << e.what()
                << "\n";
    } catch (const acsr::vgpu::DeviceOom& e) {
      std::cerr << "acsr_prof: skipping " << name << ": " << e.what()
                << "\n";
    }
  }

  const Value doc =
      acsr::prof::metrics_doc(prof.launches(), prof.retry_backoff_s());
  if (!opt.quiet) {
    acsr::prof::render_summary(std::cout, prof.launches(),
                               prof.retry_backoff_s());
    std::cout << "\n==== engine metric matrix (" << opt.matrix
              << ", scale 1/" << scale << ") ====\n";
    acsr::prof::render_engine_matrix(std::cout, doc);
  }

  if (opt.tenants)
    render_tenants(opt.engines.empty() ? "acsr" : opt.engines.front(), spec,
                   a, cfg);
  if (opt.ooc) render_ooc(spec, a, cfg);

  if (!opt.out_path.empty() &&
      !write_text(opt.out_path, acsr::json::dump(doc, 1)))
    return 1;
  if (!opt.trace_path.empty() &&
      !write_text(opt.trace_path,
                  acsr::json::dump(prof.chrome_trace(), 1)))
    return 1;

  if (!opt.diff_path.empty()) {
    Value baseline;
    if (!load_json(opt.diff_path, &baseline)) return 1;
    const std::vector<acsr::prof::Drift> drifts =
        acsr::prof::diff_metrics(doc, baseline, opt.threshold);
    if (drifts.empty()) {
      std::cout << "acsr_prof: no metric drift beyond "
                << opt.threshold * 100.0 << "% vs " << opt.diff_path
                << "\n";
    } else {
      std::cout << "acsr_prof: " << drifts.size()
                << " metric(s) drifted beyond " << opt.threshold * 100.0
                << "% vs " << opt.diff_path << ":\n";
      for (const acsr::prof::Drift& d : drifts)
        std::printf("  %-55s %14.6g -> %14.6g  (%+.1f%%)\n",
                    d.path.c_str(), d.baseline, d.current, d.rel * 100.0);
      return 3;  // drift exit code: callers decide whether it is fatal
    }
  }
  return 0;
}
