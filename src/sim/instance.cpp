#include "sim/instance.hpp"

#include <algorithm>

namespace vcdl {

SimTime subtask_exec_time(const InstanceType& type, double work,
                          std::size_t concurrent, const ComputeModel& model) {
  VCDL_CHECK(work > 0.0, "subtask_exec_time: non-positive work");
  VCDL_CHECK(concurrent > 0, "subtask_exec_time: zero concurrency");
  // Threads one subtask actually gets: capped by its intra-op parallelism and
  // by an even share of the instance's vCPUs.
  const double share =
      static_cast<double>(type.vcpus) / static_cast<double>(concurrent);
  const double eff_threads =
      std::min(static_cast<double>(type.threads_per_task), share);
  double t = work / (type.clock_ghz * eff_threads * type.accel_factor);
  // Memory pressure: once concurrent working sets exceed usable RAM the
  // instance starts swapping and everything slows down. This is what makes
  // high Tn regress on small-RAM clients (§IV-B).
  const double ram_needed =
      static_cast<double>(concurrent) * model.task_ram_gb;
  if (ram_needed > type.ram_gb - model.os_reserve_gb) {
    t *= model.swap_penalty;
  }
  return t;
}

FleetCatalog table1_catalog() {
  FleetCatalog cat;
  cat.server = InstanceType{
      .name = "server-8x2.3-61gb",
      .vcpus = 8,
      .clock_ghz = 2.3,
      .ram_gb = 61,
      .net_gbps = 10,
      .hourly_usd = 0.40,
      .preemptible_discount = 0.0,  // the server runs on a standard instance
      .interruption_per_hour = 0.0,
      .threads_per_task = 2,
  };
  // Client rows of Table I. Prices are chosen so the paper's 5-client fleet
  // (round-robin over these rows) costs $1.67/hr standard and $0.50/hr
  // preemptible, matching §IV-E.
  cat.client_types = {
      InstanceType{.name = "client-8x2.2-32gb", .vcpus = 8, .clock_ghz = 2.2,
                   .ram_gb = 32, .net_gbps = 5, .hourly_usd = 0.334,
                   .preemptible_discount = 0.70, .interruption_per_hour = 0.0,
                   .threads_per_task = 2},
      InstanceType{.name = "client-8x2.5-32gb", .vcpus = 8, .clock_ghz = 2.5,
                   .ram_gb = 32, .net_gbps = 5, .hourly_usd = 0.334,
                   .preemptible_discount = 0.70, .interruption_per_hour = 0.0,
                   .threads_per_task = 2},
      InstanceType{.name = "client-16x2.8-30gb", .vcpus = 16, .clock_ghz = 2.8,
                   .ram_gb = 30, .net_gbps = 2, .hourly_usd = 0.417,
                   .preemptible_discount = 0.70, .interruption_per_hour = 0.0,
                   .threads_per_task = 2},
      InstanceType{.name = "client-8x2.8-15gb", .vcpus = 8, .clock_ghz = 2.8,
                   .ram_gb = 15, .net_gbps = 2, .hourly_usd = 0.251,
                   .preemptible_discount = 0.70, .interruption_per_hour = 0.0,
                   .threads_per_task = 2},
  };
  return cat;
}

FleetCatalog gpu_catalog() {
  FleetCatalog cat = table1_catalog();
  // Single-GPU clients: ~10x per-subtask speedup, p3.2xlarge-like pricing.
  cat.client_types = {
      InstanceType{.name = "gpu-client-8x2.5-61gb-1v100", .vcpus = 8,
                   .clock_ghz = 2.5, .ram_gb = 61, .net_gbps = 10,
                   .hourly_usd = 3.06, .preemptible_discount = 0.70,
                   .interruption_per_hour = 0.0, .threads_per_task = 2,
                   .accel_factor = 10.0},
      InstanceType{.name = "gpu-client-4x2.5-30gb-1t4", .vcpus = 4,
                   .clock_ghz = 2.5, .ram_gb = 30, .net_gbps = 5,
                   .hourly_usd = 0.526, .preemptible_discount = 0.70,
                   .interruption_per_hour = 0.0, .threads_per_task = 2,
                   .accel_factor = 5.0},
  };
  return cat;
}

std::vector<InstanceType> make_client_fleet(const FleetCatalog& catalog,
                                            std::size_t count,
                                            bool preemptible,
                                            double interruption_per_hour) {
  VCDL_CHECK(!catalog.client_types.empty(), "make_client_fleet: empty catalog");
  std::vector<InstanceType> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    InstanceType t = catalog.client_types[i % catalog.client_types.size()];
    t.name += '#';
    t.name += std::to_string(i);
    t.interruption_per_hour = preemptible ? interruption_per_hour : 0.0;
    if (!preemptible) t.preemptible_discount = 0.0;
    fleet.push_back(std::move(t));
  }
  return fleet;
}

}  // namespace vcdl
