// Instance/compute model, network, preemption and cost-model tests —
// including the paper's §IV-E closed-form numbers.
#include <cmath>

#include <gtest/gtest.h>

#include "sim/cost.hpp"
#include "sim/instance.hpp"
#include "sim/network.hpp"
#include "sim/preemption.hpp"
#include "sim/trace.hpp"

namespace vcdl {
namespace {

InstanceType basic_client() {
  InstanceType t;
  t.vcpus = 8;
  t.clock_ghz = 2.5;
  t.ram_gb = 32;
  t.threads_per_task = 2;
  return t;
}

TEST(ComputeModel, TimeScalesWithWork) {
  const InstanceType t = basic_client();
  EXPECT_DOUBLE_EQ(subtask_exec_time(t, 1000.0, 1),
                   2.0 * subtask_exec_time(t, 500.0, 1));
}

TEST(ComputeModel, CalibrationPointMatchesPaperSubtaskTime) {
  // §IV-E: t_e ≤ 2.4 min. Our calibration: 720 work units on a 2.5 GHz
  // client at 2 threads ⇒ 144 s = 2.4 min.
  const InstanceType t = basic_client();
  EXPECT_NEAR(subtask_exec_time(t, 720.0, 2), 144.0, 1e-9);
}

TEST(ComputeModel, ThreadShareCapsAtThreadsPerTask) {
  const InstanceType t = basic_client();
  // 1..4 concurrent tasks all get 2 threads (8 vCPU / 4 = 2).
  const double t1 = subtask_exec_time(t, 720.0, 1);
  const double t4 = subtask_exec_time(t, 720.0, 4);
  EXPECT_DOUBLE_EQ(t1, t4);
  // 8 concurrent: each gets 1 thread ⇒ 2x slower per task.
  EXPECT_NEAR(subtask_exec_time(t, 720.0, 8), 2.0 * t4, 1e-9);
}

TEST(ComputeModel, ThroughputSaturates) {
  const InstanceType t = basic_client();
  auto throughput = [&](std::size_t conc) {
    return static_cast<double>(conc) / subtask_exec_time(t, 720.0, conc);
  };
  // T2 -> T4 doubles throughput; T4 -> T8 holds it flat (CPU-bound).
  EXPECT_NEAR(throughput(4), 2.0 * throughput(2), 1e-9);
  EXPECT_NEAR(throughput(8), throughput(4), 1e-9);
}

TEST(ComputeModel, SwapPenaltyOnSmallRam) {
  InstanceType small = basic_client();
  small.ram_gb = 15;
  ComputeModel model;  // 3.8 GB per task, 1 GB reserve
  // 4 tasks want 15.2 GB > 14 usable ⇒ swap penalty.
  const double no_swap = subtask_exec_time(small, 720.0, 2, model);
  const double swapped = subtask_exec_time(small, 720.0, 4, model);
  // Without swap, T4 would equal T2 per-task time; with swap it is 2.5x.
  EXPECT_NEAR(swapped, no_swap * model.swap_penalty, 1e-9);
}

TEST(ComputeModel, RejectsBadArguments) {
  const InstanceType t = basic_client();
  EXPECT_THROW(subtask_exec_time(t, 0.0, 1), Error);
  EXPECT_THROW(subtask_exec_time(t, 100.0, 0), Error);
}

TEST(Table1Catalog, MatchesPaperRows) {
  const FleetCatalog cat = table1_catalog();
  EXPECT_EQ(cat.server.vcpus, 8u);
  EXPECT_DOUBLE_EQ(cat.server.clock_ghz, 2.3);
  EXPECT_DOUBLE_EQ(cat.server.ram_gb, 61.0);
  EXPECT_DOUBLE_EQ(cat.server.net_gbps, 10.0);
  ASSERT_EQ(cat.client_types.size(), 4u);
  // The four client rows of Table I (any order): vCPU/clock/RAM/bandwidth.
  std::size_t vcpu_total = 0;
  for (const auto& c : cat.client_types) vcpu_total += c.vcpus;
  EXPECT_EQ(vcpu_total, 8u + 8u + 8u + 16u);
}

TEST(Table1Catalog, FleetPricingMatchesPaperSection4E) {
  // §IV-E: the P5C5T2 fleet costs $1.67/hr standard, $0.50/hr preemptible
  // (a 70 % saving).
  const FleetCatalog cat = table1_catalog();
  const auto fleet = make_client_fleet(cat, 5, /*preemptible=*/true, 0.05);
  EXPECT_NEAR(CostLedger::fleet_hourly_standard(fleet), 1.67, 0.01);
  EXPECT_NEAR(CostLedger::fleet_hourly_preemptible(fleet), 0.50, 0.01);
}

TEST(MakeClientFleet, RoundRobinAndPreemptibleFlag) {
  const FleetCatalog cat = table1_catalog();
  const auto fleet = make_client_fleet(cat, 6, true, 0.1);
  ASSERT_EQ(fleet.size(), 6u);
  EXPECT_EQ(fleet[0].vcpus, fleet[4].vcpus);  // wraps around 4 types
  for (const auto& t : fleet) {
    EXPECT_DOUBLE_EQ(t.interruption_per_hour, 0.1);
  }
  const auto standard = make_client_fleet(cat, 2, false, 0.1);
  for (const auto& t : standard) {
    EXPECT_DOUBLE_EQ(t.interruption_per_hour, 0.0);
    EXPECT_DOUBLE_EQ(t.preemptible_discount, 0.0);
  }
}

TEST(Network, TransferTimeComponents) {
  NetworkModel net;
  net.latency_sigma = 0.0;  // deterministic
  Rng rng(1);
  InstanceType a = basic_client();  // 5 Gbps default? set explicitly
  a.net_gbps = 8.0;
  InstanceType b = basic_client();
  b.net_gbps = 2.0;
  // Effective bandwidth = min(8, 2) Gbps * 0.6 efficiency = 150 MB/s.
  const double t = net.transfer_time(150'000'000, a, b, rng);
  EXPECT_NEAR(t, net.base_latency_s + 1.0, 1e-9);
}

TEST(Network, MoreBytesTakeLonger) {
  NetworkModel net;
  Rng rng(2);
  const InstanceType a = basic_client();
  double prev = 0;
  for (const std::size_t bytes : {1000ul, 1000000ul, 100000000ul}) {
    Rng fresh(2);  // same jitter draw
    const double t = net.transfer_time(bytes, a, a, fresh);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Network, WanFactorSlowsTransfers) {
  NetworkModel lan;
  lan.latency_sigma = 0;
  NetworkModel wan = lan;
  wan.wan_bandwidth_factor = 20.0;
  Rng rng(3);
  const InstanceType a = basic_client();
  const double t_lan = lan.transfer_time(100'000'000, a, a, rng);
  const double t_wan = wan.transfer_time(100'000'000, a, a, rng);
  EXPECT_GT(t_wan, t_lan * 10);
}

TEST(Preemption, DisabledProcessNeverFires) {
  PreemptionProcess p;  // rate 0
  Rng rng(1);
  EXPECT_TRUE(std::isinf(p.sample_next(rng)));
}

TEST(Preemption, ExponentialInterarrivalMean) {
  PreemptionProcess p;
  p.interruptions_per_hour = 2.0;
  Rng rng(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += p.sample_next(rng);
  EXPECT_NEAR(sum / n, 1800.0, 50.0);  // mean = 1/rate = 0.5 h
}

TEST(BinomialDelayModel, PaperNumbersP5C5T2) {
  // §IV-E: n_c=5, n_tc=2, n_s=2000, t_e ≤ 2.4 min, t_o = 5 min.
  BinomialDelayModel m;
  EXPECT_DOUBLE_EQ(m.slots(), 200.0);
  // p = 0.05 ⇒ 200·0.05 = 10 timeouts, an expected increase of
  // 10·300 s = 50 min.
  m.termination_probability = 0.05;
  EXPECT_DOUBLE_EQ(m.expected_timeouts(), 10.0);
  EXPECT_NEAR(m.expected_increase() / 60.0, 50.0, 1e-9);
  // p = 0.20 ⇒ 200 min.
  m.termination_probability = 0.20;
  EXPECT_NEAR(m.expected_increase() / 60.0, 200.0, 1e-9);
}

TEST(CostLedger, UsageAndSavings) {
  const FleetCatalog cat = table1_catalog();
  const auto fleet = make_client_fleet(cat, 5, true, 0.05);
  CostLedger ledger;
  for (const auto& t : fleet) ledger.add_usage(t, sim_hours(8.0));
  // §IV-E: 8 h run ⇒ $13.4 standard vs $4 preemptible.
  EXPECT_NEAR(ledger.standard_cost_usd(), 13.4, 0.1);
  EXPECT_NEAR(ledger.preemptible_cost_usd(), 4.0, 0.1);
  EXPECT_NEAR(ledger.savings_fraction(), 0.70, 0.01);
}

TEST(CostLedger, AccumulatesPerInstance) {
  CostLedger ledger;
  InstanceType t = basic_client();
  t.name = "x";
  t.hourly_usd = 1.0;
  ledger.add_usage(t, 1800.0);
  ledger.add_usage(t, 1800.0);
  EXPECT_NEAR(ledger.standard_cost_usd(), 1.0, 1e-9);
}

TEST(GpuCatalog, AcceleratorSpeedsUpSubtasks) {
  const FleetCatalog gpu = gpu_catalog();
  ASSERT_GE(gpu.client_types.size(), 1u);
  const InstanceType& v100 = gpu.client_types[0];
  EXPECT_GT(v100.accel_factor, 1.0);
  InstanceType cpu = v100;
  cpu.accel_factor = 1.0;
  EXPECT_NEAR(subtask_exec_time(cpu, 720.0, 2) / subtask_exec_time(v100, 720.0, 2),
              v100.accel_factor, 1e-9);
}

TEST(GpuCatalog, PreemptibleDiscountApplies) {
  for (const auto& t : gpu_catalog().client_types) {
    EXPECT_NEAR(t.preemptible_hourly_usd(), t.hourly_usd * 0.3, 1e-9);
  }
}

TEST(Trace, RecordFilterCount) {
  TraceLog log;
  log.record(1.0, TraceKind::assigned, "client-0", "e1/s1");
  log.record(2.0, TraceKind::assigned, "client-1", "e1/s2");
  log.record(3.0, TraceKind::preempted, "client-0");
  EXPECT_EQ(log.count(TraceKind::assigned), 2u);
  EXPECT_EQ(log.count(TraceKind::preempted), 1u);
  EXPECT_EQ(log.filter(TraceKind::assigned).size(), 2u);
  EXPECT_STREQ(trace_kind_name(TraceKind::preempted), "preempted");
}

TEST(Trace, DisabledRecordsNothing) {
  TraceLog log;
  log.set_enabled(false);
  log.record(1.0, TraceKind::assigned, "x");
  EXPECT_TRUE(log.events().empty());
}

}  // namespace
}  // namespace vcdl
