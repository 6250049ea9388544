// acsr_slo — request tracing and SLO evaluation CLI (docs/SLO.md).
//
// Runs the deterministic multi-tenant serving scenario through the batch
// scheduler with the tracing/SLO plane force-enabled, then renders the
// per-tenant SLO table (the slo.* metric registry: latency/queue-wait
// percentiles, burn rate, breach counts) and, on request, the span
// forest one request's simulated time decomposes into.
//
//   acsr_slo [--matrix WIK] [--engine acsr] [--tenants N] [--spans]
//            [--trace out.json] [--check slo.json] [--quiet]
//
// --tenants N    requests per tenant in the scenario (default 16)
// --spans        print the span forest (kind, track, interval, nesting)
// --trace FILE   write the Chrome/Perfetto trace; request + execution
//                spans land on "slo:*" tracks of the prof trace
// --check FILE   install per-tenant objectives from an slo.json document
//                and exit 4 when any tenant breaches — the CI gate
//                scripts/check.sh runs against the committed slo.json
//
// The engine is wrapped in ResilientEngine, so an ACSR_FAULTS plan makes
// the scenario cross every plane (serve -> engine -> storage) and breach
// events land in the same recovery log as fault/recovery marks. Exit
// codes: 0 ok, 1 I/O error, 2 usage, 4 SLO breach (3 is taken by
// acsr_prof's drift gate; distinct codes let CI tell them apart).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/rwr_batch.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "core/resilient.hpp"
#include "graph/corpus.hpp"
#include "prof/metrics.hpp"
#include "prof/prof.hpp"
#include "prof/report.hpp"
#include "serve/scheduler.hpp"
#include "slo/slo.hpp"
#include "slo/trace.hpp"
#include "vgpu/device.hpp"

namespace {

struct Options {
  std::string matrix = "WIK";
  std::string engine = "acsr";
  int requests_per_tenant = 16;
  bool spans = false;
  std::string trace_path;
  std::string check_path;
  bool quiet = false;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--matrix ABBREV] [--engine NAME] [--tenants N]"
               " [--spans]\n"
               "       [--trace FILE] [--check SLO_JSON] [--quiet]\n";
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "acsr_slo: cannot open '" << path << "'\n";
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Indented span forest: every root (parent 0) with its subtree, in
/// recorded order — the human-readable view of one request's decomposed
/// simulated time.
void render_spans(const std::vector<acsr::slo::Span>& spans) {
  std::map<std::uint64_t, std::vector<const acsr::slo::Span*>> children;
  std::vector<const acsr::slo::Span*> roots;
  for (const acsr::slo::Span& s : spans) {
    if (s.parent == 0)
      roots.push_back(&s);
    else
      children[s.parent].push_back(&s);
  }
  std::printf("\n==== span forest (%zu spans, %zu roots) ====\n",
              spans.size(), roots.size());
  const auto render = [&](const acsr::slo::Span* s, int depth,
                          const auto& self) -> void {
    std::printf("  %*s%-13s %-28s [%11.6f, %11.6f] %9.3f ms  %s\n",
                2 * depth, "", acsr::slo::span_kind_name(s->kind),
                s->name.c_str(), s->start_s, s->end_s,
                s->duration() * 1e3, s->track.c_str());
    auto it = children.find(s->id);
    if (it == children.end()) return;
    for (const acsr::slo::Span* c : it->second) self(c, depth + 1, self);
  };
  for (const acsr::slo::Span* r : roots) render(r, 0, render);
}

/// The per-tenant SLO table: one row per tenant plus the "*" aggregate,
/// one column per registered slo.* metric (every SloAgg field has one,
/// checked at compile time).
void render_slo(const acsr::slo::SloMonitor& mon) {
  std::vector<std::pair<std::string, acsr::prof::SloAgg>> rows;
  for (const std::string& t : mon.tenant_names())
    rows.emplace_back(t, mon.snapshot(t));
  rows.emplace_back("*", mon.snapshot("*"));
  std::printf("\n==== tenant SLO plane ====\n");
  acsr::prof::print_metric_table(rows, 20);
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
      opt.engine = v;
    } else if (arg == "--tenants") {
      const std::optional<int> n = acsr::parse_exact<int>(next());
      if (!n || *n < 1) return usage(argv[0]);
      opt.requests_per_tenant = *n;
    } else if (arg == "--spans") {
      opt.spans = true;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.trace_path = v;
    } else if (arg == "--check") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.check_path = v;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "acsr_slo: unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  // Force-enable the slo plane; with --trace also the profiler, so
  // request spans land on the Chrome trace's "slo:*" tracks.
  acsr::slo::set_slo_enabled(true);
  acsr::slo::Tracer::instance().clear();
  if (!opt.trace_path.empty()) {
    acsr::prof::set_profiler_enabled(true);
    acsr::prof::Profiler::instance().clear();
  }

  const long long scale = acsr::graph::default_scale();
  const acsr::mat::Csr<double> a = acsr::graph::build_matrix(
      acsr::graph::corpus_entry(opt.matrix), scale);
  const acsr::vgpu::DeviceSpec spec =
      acsr::vgpu::DeviceSpec::by_name("titan").scaled_for_corpus(scale);
  acsr::core::EngineConfig cfg;
  cfg.hyb_breakeven = std::max<long long>(1, 4096 / scale);

  // Resilient wrapper: an ACSR_FAULTS plan exercises retry/degradation
  // under tracing, and SLO breaches join the fault plane's recovery log.
  acsr::vgpu::Device dev(spec);
  acsr::core::ResilientEngine<double> engine({&dev}, a, opt.engine, cfg);
  acsr::serve::BatchScheduler<double> sched(engine);

  if (!opt.check_path.empty()) {
    std::string text;
    if (!read_file(opt.check_path, &text)) return 1;
    for (acsr::slo::SloObjective o : acsr::slo::parse_objectives(text))
      sched.slo().set_objective(std::move(o));
  }
  sched.slo().on_breach = [&](const acsr::slo::BreachEvent& ev) {
    engine.note_event(ev.describe());
  };

  acsr::apps::run_tenant_scenario(sched, a.cols, opt.requests_per_tenant);

  const acsr::slo::Tracer& tracer = acsr::slo::Tracer::instance();
  if (!opt.quiet) {
    std::cout << "acsr_slo: " << opt.matrix << " via " << opt.engine
              << " (active " << engine.active_format() << "), "
              << sched.served_requests() << " requests in "
              << sched.batches() << " batches, makespan "
              << sched.clock_s() * 1e3 << " ms, " << tracer.spans().size()
              << " spans\n";
    render_slo(sched.slo());
  }
  if (opt.spans) render_spans(tracer.spans());

  if (!opt.trace_path.empty()) {
    std::ofstream out(opt.trace_path);
    if (!out) {
      std::cerr << "acsr_slo: cannot write '" << opt.trace_path << "'\n";
      return 1;
    }
    out << acsr::json::dump(acsr::prof::Profiler::instance().chrome_trace(),
                            1)
        << "\n";
    if (!out.good()) return 1;
  }

  if (!opt.check_path.empty()) {
    const auto& breaches = sched.slo().breaches();
    if (!breaches.empty()) {
      std::cout << "acsr_slo: " << breaches.size()
                << " SLO breach(es) vs " << opt.check_path << ":\n";
      for (const acsr::slo::BreachEvent& ev : breaches)
        std::cout << "  " << ev.describe() << "\n";
      return 4;  // breach exit code (acsr_prof owns 3 for metric drift)
    }
    if (!opt.quiet)
      std::cout << "acsr_slo: all tenants within objectives vs "
                << opt.check_path << "\n";
  }
  return 0;
}
