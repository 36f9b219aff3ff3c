// Table I — server and client instance configurations.
//
// Prints the instance catalogue the simulator uses (vCPU, clock, RAM,
// network bandwidth — the paper's columns) plus the pricing columns our
// §IV-E reproduction derives from it.
#include <iostream>

#include "bench_common.hpp"
#include "sim/cost.hpp"
#include "sim/instance.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  Config::from_args(argc, argv).reject_unread();
  bench::print_header("Table I — instance configurations",
                      "Table I (+ pricing used by §IV-E)");

  const FleetCatalog cat = table1_catalog();
  Table table({"role", "vCPU", "clock GHz", "RAM GB", "net Gbps", "$/hr std",
               "$/hr preempt", "discount"});
  auto add = [&table](const std::string& role, const InstanceType& t) {
    table.add_row({role, Table::fmt(t.vcpus), Table::fmt(t.clock_ghz, 1),
                   Table::fmt(t.ram_gb, 0), Table::fmt(t.net_gbps, 0),
                   Table::fmt(t.hourly_usd, 3),
                   Table::fmt(t.preemptible_hourly_usd(), 3),
                   Table::fmt(t.preemptible_discount * 100.0, 0) + "%"});
  };
  add("server", cat.server);
  for (const auto& c : cat.client_types) add("client", c);
  table.print(std::cout);

  const auto fleet = make_client_fleet(cat, 5, true, 0.05);
  std::cout << "\nP5 fleet (paper §IV-E): $"
            << Table::fmt(CostLedger::fleet_hourly_standard(fleet), 2)
            << "/hr standard, $"
            << Table::fmt(CostLedger::fleet_hourly_preemptible(fleet), 2)
            << "/hr preemptible (paper: $1.67 vs $0.50)\n";
  return 0;
}
