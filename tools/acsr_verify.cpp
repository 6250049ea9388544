// acsr_verify: run the static kernel verifier (src/analysis) from the
// command line.
//
//   acsr_verify --all                 every engine x every Table II device,
//                                     plus the defect corpus (exit 1 on any
//                                     engine violation or unflagged defect)
//   acsr_verify --engine=acsr         one engine on every device
//   acsr_verify --device=gtx580 ...   restrict to one device
//   acsr_verify --verbose             print each violation in full
//
// scripts/check.sh runs `acsr_verify --all` as the analysis stage.
#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/models.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "vgpu/device_spec.hpp"

namespace {

using acsr::analysis::Violation;

struct Options {
  bool all = false;
  bool verbose = false;
  std::string engine;
  std::string device;
};

const std::vector<std::string>& device_keys() {
  static const std::vector<std::string> keys = {"gtx580", "k10", "titan"};
  return keys;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--all] [--engine=NAME] [--device=gtx580|k10|titan]"
               " [--verbose]\n";
  return 2;
}

/// Engine sweep: prove every engine safe on every requested device spec.
/// Returns the number of (engine, device) cells with violations.
int sweep_engines(const Options& opt) {
  std::vector<std::string> engines;
  if (!opt.engine.empty())
    engines.push_back(opt.engine);
  else
    engines = acsr::analysis::all_engine_names();
  std::vector<std::string> devices;
  if (!opt.device.empty())
    devices.push_back(opt.device);
  else
    devices = device_keys();

  std::cout << std::left << std::setw(14) << "engine";
  for (const std::string& d : devices) std::cout << std::setw(10) << d;
  std::cout << "\n";

  int failed_cells = 0;
  std::vector<Violation> details;
  for (const std::string& e : engines) {
    std::cout << std::setw(14) << e;
    for (const std::string& d : devices) {
      const auto spec = acsr::vgpu::DeviceSpec::by_name(d);
      const std::vector<Violation> vs = acsr::analysis::verify_engine(e, spec);
      if (vs.empty()) {
        std::cout << std::setw(10) << "ok";
      } else {
        std::cout << std::setw(10) << ("FAIL:" + std::to_string(vs.size()));
        ++failed_cells;
        details.insert(details.end(), vs.begin(), vs.end());
      }
    }
    std::cout << "\n";
  }
  if (!details.empty() && opt.verbose) {
    std::cout << "\n";
    for (const Violation& v : details) std::cout << v.str() << "\n";
  }
  return failed_cells;
}

/// Defect sweep: every planted defect must be flagged with the expected
/// violation kind. Returns the number of missed defects.
int sweep_defects(const Options& opt) {
  int missed = 0;
  std::cout << "\ndefect corpus (each must be flagged):\n";
  for (const auto& d : acsr::analysis::all_defect_cases()) {
    const std::vector<Violation> vs = acsr::analysis::run_defect(d.name);
    bool hit = false;
    for (const Violation& v : vs) hit = hit || v.kind == d.expected;
    std::cout << "  " << std::left << std::setw(18) << d.name
              << (hit ? "flagged" : "MISSED") << "  ("
              << acsr::analysis::violation_kind_name(d.expected) << ")\n";
    if (!hit) ++missed;
    if (opt.verbose)
      for (const Violation& v : vs) std::cout << "      " << v.str() << "\n";
  }
  return missed;
}

}  // namespace

static int run_program(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--all") {
      opt.all = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a.rfind("--engine=", 0) == 0) {
      opt.engine = a.substr(std::strlen("--engine="));
    } else if (a.rfind("--device=", 0) == 0) {
      opt.device = a.substr(std::strlen("--device="));
    } else {
      return usage(argv[0]);
    }
  }
  if (!opt.all && opt.engine.empty()) return usage(argv[0]);
  if (!opt.engine.empty() && !acsr::analysis::knows_engine(opt.engine)) {
    std::cerr << "unknown engine '" << opt.engine << "'\n";
    return 2;
  }

  try {
    const int failed = sweep_engines(opt);
    const int missed = opt.all ? sweep_defects(opt) : 0;
    if (failed != 0)
      std::cout << "\n" << failed << " engine/device cell(s) FAILED"
                << (opt.verbose ? "" : " (re-run with --verbose)") << "\n";
    if (missed != 0)
      std::cout << missed << " defect(s) MISSED by the verifier\n";
    if (failed == 0 && missed == 0) std::cout << "\nall proofs hold\n";
    return (failed == 0 && missed == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "acsr_verify: " << e.what() << "\n";
    return 2;
  }
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
