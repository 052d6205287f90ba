#include "src/hw/hardware_profile.h"

#include "src/common/check.h"

namespace pf {

HardwareProfile p100() {
  return HardwareProfile{
      .name = "p100",
      .peak_flops = 9.3e12,        // fp32, P100 PCIe
      .mem_bandwidth = 732e9,      // HBM2
      .link_bandwidth = 10e9,      // cluster interconnect, one direction
      .link_latency = 5e-6,
      .kernel_overhead = 20e-6,
      .eff_gemm = 0.45,
      .eff_curvature = 0.40,
      .eff_inversion = 0.08,
      .eff_precondition = 0.35,
      .eff_elementwise = 0.70,
      .memory_capacity = 16e9,
  };
}

HardwareProfile v100() {
  return HardwareProfile{
      .name = "v100",
      .peak_flops = 15.7e12,
      .mem_bandwidth = 900e9,
      .link_bandwidth = 25e9,  // NVLink-class
      .link_latency = 4e-6,
      .kernel_overhead = 15e-6,
      .eff_gemm = 0.50,
      .eff_curvature = 0.45,
      .eff_inversion = 0.08,
      .eff_precondition = 0.40,
      .eff_elementwise = 0.72,
      .memory_capacity = 32e9,
  };
}

HardwareProfile rtx3090() {
  return HardwareProfile{
      .name = "rtx3090",
      .peak_flops = 35.6e12,
      .mem_bandwidth = 936e9,
      .link_bandwidth = 12e9,  // PCIe 4.0-class
      .link_latency = 6e-6,
      .kernel_overhead = 12e-6,
      .eff_gemm = 0.42,  // consumer part: lower sustained GEMM fraction
      .eff_curvature = 0.38,
      .eff_inversion = 0.06,
      .eff_precondition = 0.34,
      .eff_elementwise = 0.75,
      .memory_capacity = 24e9,
  };
}

HardwareProfile toy_accelerator() {
  return HardwareProfile{
      .name = "toy",
      .peak_flops = 1e9,
      .mem_bandwidth = 1e9,
      .link_bandwidth = 1e8,
      .link_latency = 1e-4,
      .kernel_overhead = 1e-5,
      .eff_gemm = 1.0,
      .eff_curvature = 1.0,
      .eff_inversion = 1.0,
      .eff_precondition = 1.0,
      .eff_elementwise = 1.0,
      .memory_capacity = 1e9,
  };
}

HardwareProfile hardware_by_name(const std::string& name) {
  if (name == "p100") return p100();
  if (name == "v100") return v100();
  if (name == "rtx3090") return rtx3090();
  if (name == "toy") return toy_accelerator();
  PF_CHECK(false) << "unknown hardware profile: " << name;
  __builtin_unreachable();
}

}  // namespace pf
