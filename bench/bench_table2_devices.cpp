// Table II: the simulated GPUs, mirroring the paper's device table, plus
// the simulator's model parameters for transparency.
#include "bench/bench_common.hpp"

static int run_program(int, char**) {
  using namespace acsr;
  using vgpu::DeviceSpec;
  std::cout << "=== Table II: GPU devices (simulated) ===\n\n";
  Table t({"Device", "Arch", "CC", "SMs", "Cores/SM", "Clock GHz",
           "BW GB/s", "Mem GB", "DP ratio", "Dyn. par."});
  for (const auto& s : {DeviceSpec::gtx580(), DeviceSpec::tesla_k10(),
                        DeviceSpec::gtx_titan()}) {
    t.add_row({s.name,
               s.compute_major == 2 ? "Fermi" : "Kepler",
               std::to_string(s.compute_major) + "." +
                   std::to_string(s.compute_minor),
               Table::integer(s.sm_count), Table::integer(s.cores_per_sm),
               Table::num(s.clock_ghz, 3), Table::num(s.dram_bandwidth_gbs, 1),
               Table::num(static_cast<double>(s.global_mem_bytes) / (1 << 30),
                          0),
               "1/" + Table::num(1.0 / s.dp_throughput_ratio, 0),
               s.supports_dynamic_parallelism() ? "yes" : "no"});
  }
  t.print();
  std::cout << "\nTesla K10 has two GK104 dies per card; the row above is "
               "one die (section VIII uses both).\n";
  return 0;
}

int main(int argc, char** argv) {
  return acsr::guarded_main(argc, argv, run_program);
}
