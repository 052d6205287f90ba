// Hardware profiles for the simulated accelerators.
//
// The paper measures CUDA kernel times on NVIDIA P100 / V100 / RTX3090 and
// feeds them into its performance model. We have no GPUs, so a profile
// carries published peak numbers plus per-kernel-class efficiency factors;
// the cost model (cost_model.h) turns FLOP/byte counts into seconds. The
// efficiencies are chosen so the *relative* geometry of the paper's
// timelines (forward : backward : curvature : inversion : precondition)
// is reproduced; see DESIGN.md §2 for the substitution argument.
#pragma once

#include <string>

namespace pf {

struct HardwareProfile {
  std::string name;
  double peak_flops;        // fp32 FLOP/s
  double mem_bandwidth;     // bytes/s (device memory)
  double link_bandwidth;    // bytes/s per inter-device link (P2P / ring hop)
  double link_latency;      // seconds per message
  double kernel_overhead;   // seconds of launch overhead per logical work item

  // Fraction of peak achieved by each kernel class.
  double eff_gemm;          // large dense GEMMs (forward/backward)
  double eff_curvature;     // SYRK-style factor builds
  double eff_inversion;     // Cholesky + triangular solves (poorly parallel)
  double eff_precondition;  // medium GEMMs
  double eff_elementwise;   // fraction of mem_bandwidth for elementwise ops

  // Device memory capacity in bytes (P100: 16 GB).
  double memory_capacity;
};

// Published-spec presets used throughout the paper's evaluation.
HardwareProfile p100();
HardwareProfile v100();
HardwareProfile rtx3090();
// A deliberately slow profile for tests that need visible contention.
HardwareProfile toy_accelerator();

// Lookup by name ("p100", "v100", "rtx3090", "toy"); throws on unknown.
HardwareProfile hardware_by_name(const std::string& name);

}  // namespace pf
