// Deterministic-telemetry suite for the observability layer (vcdl::obs).
//
// Three tiers of guarantees, all tier 1:
//   1. Registry semantics — counters, gauges, fixed-bucket histograms,
//      snapshot export and its percentile brackets — pinned by unit tests
//      on local Registry instances.
//   2. Instrumentation coverage — set-equality between the declared failure
//      taxonomies (scheduler_failure_kinds, fault_kind_names) and the
//      counters the components register in the registry they are given,
//      plus increment checks per kind. A new failure path added without its
//      counter fails here.
//   3. Determinism — two same-seed chaos runs must export byte-identical
//      snapshot JSON (the acceptance criterion the tier-2 trace-replay suite
//      extends), and a run's snapshot must not depend on runs before it or
//      beside it in the process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/wire_codec.hpp"
#include "core/trainer.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using obs::Counter;
using obs::FunctionTimeSource;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramOptions;
using obs::HistogramSnapshot;
using obs::MetricsSnapshot;
using obs::PercentileBracket;
using obs::Registry;
using obs::ScopedTimeSource;
using obs::SpanTimer;
using testing::PropConfig;
using testing::PropResult;
using testing::prop_assert;
using testing::run_property;
using testing::tiny_image_spec;

// --- Counter / gauge semantics ----------------------------------------------

TEST(ObsCounter, Increments) {
  Registry reg;
  Counter& c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(3);
  EXPECT_EQ(c.value(), 4u);
}

TEST(ObsGauge, LastSetWins) {
  Registry reg;
  Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-7.0);
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

// --- Registry registration contract -----------------------------------------

TEST(ObsRegistry, SameNameReturnsSameHandle) {
  Registry reg;
  EXPECT_EQ(&reg.counter("a.b"), &reg.counter("a.b"));
  EXPECT_NE(&reg.counter("a.b"), &reg.counter("a.c"));
  EXPECT_EQ(&reg.gauge("g"), &reg.gauge("g"));
  HistogramOptions opts{0.0, 2.0, 8};
  EXPECT_EQ(&reg.histogram("h", opts), &reg.histogram("h", opts));
}

TEST(ObsRegistry, RejectsInvalidNames) {
  Registry reg;
  EXPECT_THROW(reg.counter(""), Error);
  EXPECT_THROW(reg.counter("Upper.case"), Error);
  EXPECT_THROW(reg.counter(".leading"), Error);
  EXPECT_THROW(reg.counter("trailing."), Error);
  EXPECT_THROW(reg.gauge("has space"), Error);
  EXPECT_THROW(reg.histogram("dash-ed"), Error);
  // Valid charset: lowercase, digits, dot, underscore.
  EXPECT_NO_THROW(reg.counter("ok.name_2"));
}

TEST(ObsRegistry, HistogramOptionMismatchThrows) {
  Registry reg;
  reg.histogram("h", {0.0, 1.0, 4});
  EXPECT_THROW(reg.histogram("h", {0.0, 2.0, 4}), Error);
  EXPECT_THROW(reg.histogram("h", {0.0, 1.0, 8}), Error);
  EXPECT_NO_THROW(reg.histogram("h", {0.0, 1.0, 4}));
}

TEST(ObsRegistry, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&obs::registry(), &obs::registry());
}

// --- Histogram bucketing ----------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  Histogram h(HistogramOptions{0.0, 1.0, 4});  // width 0.25
  h.observe(-0.001);  // underflow
  h.observe(0.0);     // bucket 0 (lower edge inclusive)
  h.observe(0.2499);  // bucket 0
  h.observe(0.25);    // bucket 1
  h.observe(0.5);     // bucket 2
  h.observe(0.75);    // bucket 3
  h.observe(0.999);   // bucket 3
  h.observe(1.0);     // overflow (hi is exclusive)
  h.observe(42.0);    // overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 9u);  // under/overflow still count
}

TEST(ObsHistogram, RejectsDegenerateOptions) {
  EXPECT_THROW(Histogram(HistogramOptions{0.0, 0.0, 4}), Error);
  EXPECT_THROW(Histogram(HistogramOptions{1.0, 0.0, 4}), Error);
  EXPECT_THROW(Histogram(HistogramOptions{0.0, 1.0, 0}), Error);
}

// The snapshot of the one histogram `reg` holds, named "h".
HistogramSnapshot snapshot_of_h(const Registry& reg) {
  return reg.snapshot().histograms.at("h");
}

TEST(ObsHistogram, PercentileBrackets) {
  Registry reg;
  Histogram& h = reg.histogram("h", {0.0, 10.0, 10});
  // Empty: the documented {0, 0} sentinel.
  PercentileBracket empty = snapshot_of_h(reg).percentile_bracket(0.5);
  EXPECT_DOUBLE_EQ(empty.lo, 0.0);
  EXPECT_DOUBLE_EQ(empty.hi, 0.0);

  h.observe(0.5);
  h.observe(1.5);
  h.observe(2.5);
  h.observe(3.5);
  const HistogramSnapshot snap = snapshot_of_h(reg);
  // Nearest rank: rank = max(1, ceil(q*4)).
  PercentileBracket p0 = snap.percentile_bracket(0.0);   // rank 1 → sample 0.5
  EXPECT_DOUBLE_EQ(p0.lo, 0.0);
  EXPECT_DOUBLE_EQ(p0.hi, 1.0);
  PercentileBracket p50 = snap.percentile_bracket(0.5);  // rank 2 → sample 1.5
  EXPECT_DOUBLE_EQ(p50.lo, 1.0);
  EXPECT_DOUBLE_EQ(p50.hi, 2.0);
  PercentileBracket p100 = snap.percentile_bracket(1.0);  // rank 4 → sample 3.5
  EXPECT_DOUBLE_EQ(p100.lo, 3.0);
  EXPECT_DOUBLE_EQ(p100.hi, 4.0);
  EXPECT_THROW(snap.percentile_bracket(-0.1), Error);
  EXPECT_THROW(snap.percentile_bracket(1.1), Error);
}

TEST(ObsHistogram, UnderOverflowBracketsAndClamping) {
  Registry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0, 4});
  h.observe(0.0);   // underflow
  h.observe(5.0);   // overflow
  const HistogramSnapshot snap = snapshot_of_h(reg);
  PercentileBracket low = snap.percentile_bracket(0.0);  // rank 1: the underflow
  EXPECT_TRUE(std::isinf(low.lo) && low.lo < 0.0);
  EXPECT_DOUBLE_EQ(low.hi, 1.0);
  PercentileBracket high = snap.percentile_bracket(1.0);  // rank 2: the overflow
  EXPECT_DOUBLE_EQ(high.lo, 2.0);
  EXPECT_TRUE(std::isinf(high.hi) && high.hi > 0.0);
  // The scalar estimate clamps into [lo, hi] — exporters never emit inf.
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 2.0);
}

// --- Snapshot export and equality -------------------------------------------

Registry& populated_registry(Registry& reg) {
  reg.counter("c.one").inc(3);
  reg.counter("c.two").inc(7);
  reg.gauge("g.level").set(1.25);
  Histogram& h = reg.histogram("h.lat_s", {0.0, 1.0, 4});
  h.observe(0.1);
  h.observe(0.6);
  h.observe(2.0);
  return reg;
}

TEST(ObsSnapshot, JsonIsByteStableAndValueSensitive) {
  Registry reg;
  populated_registry(reg);
  const MetricsSnapshot a = reg.snapshot();
  const MetricsSnapshot b = reg.snapshot();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Any value change shows in the bytes and the fingerprint.
  reg.counter("c.one").inc();
  const MetricsSnapshot c = reg.snapshot();
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.to_json(), c.to_json());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // Spot-check content: names, values, embedded percentiles.
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"c.one\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"g.level\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// --- Span timers and time sources -------------------------------------------

TEST(ObsSpan, RecordsElapsedFromInstalledClock) {
  Registry reg;
  double now = 100.0;
  FunctionTimeSource clock([&now] { return now; });
  ScopedTimeSource guard(reg, clock);
  Histogram& h = reg.histogram("span.s", {0.0, 10.0, 10});
  {
    SpanTimer span(h, reg);
    now = 102.5;
    EXPECT_DOUBLE_EQ(span.elapsed(), 2.5);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
  EXPECT_EQ(h.bucket(2), 1u);
  // A frozen clock (the simulation case) records an exact zero.
  { SpanTimer span(h, reg); }
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5);
}

TEST(ObsSpan, ScopedTimeSourceRestoresOnExit) {
  Registry reg;
  double t1 = 1.0;
  double t2 = 50.0;
  FunctionTimeSource outer([&t1] { return t1; });
  FunctionTimeSource inner([&t2] { return t2; });
  ScopedTimeSource outer_guard(reg, outer);
  EXPECT_DOUBLE_EQ(reg.now(), 1.0);
  {
    ScopedTimeSource inner_guard(reg, inner);
    EXPECT_DOUBLE_EQ(reg.now(), 50.0);
  }
  EXPECT_DOUBLE_EQ(reg.now(), 1.0);
}

// --- Concurrency: the TSan target -------------------------------------------

// Hammers one registry from every pool worker. Run under TSan by
// ci/sanitize.sh; the exact final totals also catch lost updates in the
// relaxed-atomic and CAS paths.
TEST(ObsConcurrency, ParallelUpdatesLoseNothing) {
  Registry reg;
  Counter& c = reg.counter("hammer.count");
  Gauge& g = reg.gauge("hammer.level");
  Histogram& h = reg.histogram("hammer.lat", {0.0, 1.0, 8});
  ThreadPool pool(4);
  constexpr std::size_t kSamples = 20000;
  pool.parallel_for_indexed(
      0, kSamples, [&](std::size_t, std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          c.inc();
          g.set(static_cast<double>(i));
          h.observe(static_cast<double>(i % 100) / 100.0);
          // Snapshotting concurrently with updates must also be race-free.
          if (i % 4096 == 0) (void)reg.snapshot();
        }
      });
  EXPECT_EQ(c.value(), kSamples);
  // Last write wins: the level is one of the values set.
  EXPECT_LT(g.value(), static_cast<double>(kSamples));
  EXPECT_EQ(h.count(), kSamples);
  std::uint64_t bucket_total = h.underflow() + h.overflow();
  for (std::size_t i = 0; i < 8; ++i) bucket_total += h.bucket(i);
  EXPECT_EQ(bucket_total, kSamples);
  // The sum's CAS loop loses no sample: 200 rounds of 0.00 + ... + 0.99.
  EXPECT_NEAR(h.sum(), 9900.0, 1e-6);
}

// --- Property: brackets bracket the exact nearest-rank percentile -----------

TEST(ObsProperty, PercentileBracketContainsExactNearestRank) {
  PropConfig cfg;
  cfg.name = "obs.percentile-bracket-soundness";
  cfg.suite = "test_obs";
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    HistogramOptions opts;
    opts.lo = rng.uniform(-2.0, 1.0);
    opts.hi = opts.lo + rng.uniform(0.5, 4.0);
    opts.buckets = 1 + static_cast<std::size_t>(rng.uniform_index(16));
    Registry reg;
    Histogram& h = reg.histogram("h", opts);

    const std::size_t n = 1 + static_cast<std::size_t>(size) * 4;
    std::vector<double> samples;
    samples.reserve(n);
    const double span = opts.hi - opts.lo;
    for (std::size_t i = 0; i < n; ++i) {
      // Mostly in range, with deliberate under/overflow tails.
      const double x = opts.lo + rng.uniform(-0.3, 1.3) * span;
      samples.push_back(x);
      h.observe(x);
    }
    std::sort(samples.begin(), samples.end());
    prop_assert(h.count() == n, "count mismatch");
    const HistogramSnapshot snap = snapshot_of_h(reg);

    // The oracle computes nearest-rank by hand: the ceil(q*n)-th smallest
    // sample must land inside the bracket (inclusive edges; a hair of slack
    // absorbs float rounding at bucket boundaries).
    const double slack = 1e-9 * span;
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n))));
      const double exact = samples[rank - 1];
      const PercentileBracket b = snap.percentile_bracket(q);
      prop_assert(exact >= b.lo - slack && exact <= b.hi + slack,
                  "q=" + std::to_string(q) + ": nearest-rank sample " +
                      std::to_string(exact) + " outside bracket [" +
                      std::to_string(b.lo) + ", " + std::to_string(b.hi) +
                      "]");
      // And the scalar estimate stays inside the histogram's range.
      const double p = snap.percentile(q);
      prop_assert(p >= opts.lo && p <= opts.hi,
                  "percentile() escaped [lo, hi]");
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// --- Instrumentation coverage -----------------------------------------------

std::set<std::string> registered_with_prefix(const Registry& reg,
                                             const std::string& prefix) {
  std::set<std::string> out;
  for (const auto& [name, _] : reg.snapshot().counters) {
    if (name.rfind(prefix, 0) == 0) out.insert(name);
  }
  return out;
}

// Every declared scheduler failure kind has a registered counter, every
// registered scheduler.failure.* counter has a declared kind, and driving
// each failure path increments its counter.
TEST(ObsCoverage, SchedulerFailureKindsMatchRegisteredCounters) {
  Registry metrics;
  Scheduler s(metrics);
  s.register_client(1);
  auto make_unit = [](WorkunitId id) {
    Workunit u;
    u.id = id;
    u.deadline_s = 5.0;
    return u;
  };
  // timeout: assignment expires past its deadline.
  s.add_unit(make_unit(1));
  ASSERT_EQ(s.request_work(1, 1, 0.0).size(), 1u);
  EXPECT_EQ(s.expire_deadlines(100.0).size(), 1u);
  // fast_fail: the client abandons the assignment.
  s.add_unit(make_unit(2));
  ASSERT_EQ(s.request_work(1, 1, 100.0).size(), 1u);
  s.report_failure(1, 2, 101.0);
  // invalid_result: the validator rejects the payload.
  s.add_unit(make_unit(3));
  ASSERT_EQ(s.request_work(1, 1, 200.0).size(), 1u);
  s.report_invalid(1, 3, 201.0);
  // reissue_lost: a retired unit is un-retired after a crash.
  s.add_unit(make_unit(4));
  ASSERT_EQ(s.request_work(1, 1, 300.0).size(), 1u);
  EXPECT_TRUE(s.report_result(1, 4, 301.0));
  s.reissue_lost(4);
  // replica_lost: a consensus-held replica dies with the server and gets
  // reissued.
  s.add_unit(make_unit(5));
  ASSERT_EQ(s.request_work(1, 1, 400.0).size(), 1u);
  s.report_replica(1, 5);
  s.reissue_replica(5, 1);

  const MetricsSnapshot counted = metrics.snapshot();
  std::set<std::string> expected;
  for (const auto& k : scheduler_failure_kinds()) {
    expected.insert("scheduler.failure." + k);
    EXPECT_GT(counted.counter("scheduler.failure." + k), 0u)
        << "failure kind '" << k << "' never incremented its counter";
  }
  EXPECT_EQ(registered_with_prefix(metrics, "scheduler.failure."), expected);
}

// Same contract for the fault injector: every fault kind in
// fault_kind_names() maps to a registered "faults.<kind>" counter that its
// injection site actually increments.
TEST(ObsCoverage, FaultKindsMatchRegisteredCounters) {
  Registry metrics;

  // Probability-1 plans make each injector draw deterministic.
  {
    FaultPlan plan;
    plan.download.drop_prob = 1.0;
    FaultInjector inj(plan, Rng(1), metrics);
    EXPECT_TRUE(inj.on_transfer(FaultSite::download).dropped);
  }
  {
    FaultPlan plan;
    plan.upload.stall_prob = 1.0;
    FaultInjector inj(plan, Rng(2), metrics);
    EXPECT_GT(inj.on_transfer(FaultSite::upload).time_factor, 1.0);
  }
  {
    FaultPlan plan;
    plan.corruption_prob = 1.0;
    FaultInjector inj(plan, Rng(3), metrics);
    EXPECT_TRUE(inj.corrupt_result());
  }
  {
    // fail_prob must stay below 1 (retries would never end), so draw until
    // the failure fires — deterministic for the fixed seed.
    FaultPlan plan;
    plan.store.fail_prob = 0.9;
    FaultInjector inj(plan, Rng(4), metrics);
    bool dropped = false;
    for (int i = 0; i < 64 && !dropped; ++i) {
      dropped = inj.on_transfer(FaultSite::store).dropped;
    }
    EXPECT_TRUE(dropped);
  }
  {
    FaultPlan plan;
    plan.store.slow_prob = 1.0;
    FaultInjector inj(plan, Rng(5), metrics);
    EXPECT_GT(inj.on_transfer(FaultSite::store).time_factor, 1.0);
  }
  // server_crash is metered at its injection site, GridServer::crash().
  {
    SimEngine engine;
    Scheduler sched(metrics);
    TraceLog trace;
    GridServer server(engine, sched, trace, metrics, 1,
                      [](const Blob&) { return true; });
    server.crash();
    EXPECT_FALSE(server.is_up());
  }
  // byzantine_result is metered at its site too, AdversaryModel::draw().
  {
    AdversaryPlan plan;
    plan.fraction = 1.0;
    AdversaryModel adv(plan, 1, Rng(6), metrics);
    EXPECT_TRUE(adv.is_adversary(0));
    EXPECT_TRUE(adv.draw(1).has_value());
  }

  const MetricsSnapshot counted = metrics.snapshot();
  std::set<std::string> expected;
  for (const auto& k : fault_kind_names()) {
    expected.insert("faults." + k);
    EXPECT_GT(counted.counter("faults." + k), 0u)
        << "fault kind '" << k << "' never incremented its counter";
  }
  EXPECT_EQ(registered_with_prefix(metrics, "faults."), expected);
}

// --- End-to-end determinism (the tier-1 acceptance criterion) ---------------

ExperimentSpec chaos_spec() {
  ExperimentSpec spec = tiny_image_spec();
  spec.preemptible = true;
  spec.interruption_per_hour = 30.0;
  spec.preemption_downtime_s = 60.0;
  spec.faults.download.drop_prob = 0.10;
  spec.faults.upload.drop_prob = 0.10;
  spec.faults.corruption_prob = 0.03;
  spec.faults.store.fail_prob = 0.05;
  spec.faults.server_crashes = {180.0};
  spec.faults.server_recovery_s = 30.0;
  spec.checkpoint_interval_s = 60.0;
  spec.client_retry.base_backoff_s = 2.0;
  spec.client_retry.max_backoff_s = 30.0;
  return spec;
}

TEST(ObsDeterminism, SameSeedChaosRunsExportIdenticalSnapshots) {
  const ExperimentSpec spec = chaos_spec();
  VcTrainer a(spec);
  const TrainResult ra = a.run();
  VcTrainer b(spec);
  const TrainResult rb = b.run();

  // Byte-identical export — values, ordering, and double formatting.
  EXPECT_EQ(ra.metrics, rb.metrics);
  ASSERT_EQ(ra.metrics.to_json(), rb.metrics.to_json());
  EXPECT_EQ(ra.metrics.fingerprint(), rb.metrics.fingerprint());

  // The chaos actually registered: the fault taxonomy fired.
  EXPECT_GT(ra.metrics.counters.at("faults.transfer_drop"), 0u);
  EXPECT_GT(ra.metrics.counters.at("faults.server_crash"), 0u);
  EXPECT_GT(ra.metrics.counters.at("scheduler.dispatched"), 0u);
  EXPECT_GT(ra.metrics.counters.at("assimilator.updates_applied"), 0u);

  // A run's snapshot holds no wall-clock span.
  for (const auto& [name, h] : ra.metrics.histograms) {
    EXPECT_NE(name.rfind("exec.", 0), 0u) << name << " in a run snapshot";
  }
  const auto& exec = ra.metrics.histograms.at("client.subtask_exec_s");
  EXPECT_GT(exec.count, 0u);
  EXPECT_GT(exec.sum, 0.0);  // virtual-time client latency is real sim time
}

// Each run counts into a registry of its own, so its snapshot is a function
// of the run alone: the same whether it runs first, after a consensus run
// with faults, or beside another run on a second thread.
TEST(ObsDeterminism, RunsDoNotShareMetrics) {
  struct RunPrint {
    std::uint64_t digest = 0;
    std::uint64_t params = 0;
    std::string metrics;
  };
  const auto run = [](const ExperimentSpec& spec) {
    VcTrainer trainer(spec);
    const TrainResult r = trainer.run();
    return RunPrint{trainer.trace().digest().hash, params_hash(r.final_params),
                    r.metrics.to_json()};
  };
  const ExperimentSpec spec = tiny_image_spec(/*trace=*/true);
  const RunPrint alone = run(spec);

  ExperimentSpec noisy = chaos_spec();
  noisy.clients = 3;
  noisy.replication = 3;
  noisy.adversary.fraction = 1.0 / 3.0;
  noisy.adversary.mode = AttackMode::noise;
  noisy.consensus.enabled = true;
  noisy.consensus.quorum = 2;
  noisy.consensus.tolerance = 0.1;
  (void)run(noisy);
  const RunPrint after = run(spec);

  ExperimentSpec other = tiny_image_spec(/*trace=*/true);
  other.seed = 11;
  other.wire_codec = "delta";
  std::thread beside([&] { (void)run(other); });
  const RunPrint concurrent = run(spec);
  beside.join();

  for (const RunPrint* p : {&after, &concurrent}) {
    EXPECT_EQ(p->digest, alone.digest);
    EXPECT_EQ(p->params, alone.params);
    EXPECT_EQ(p->metrics, alone.metrics);
  }
}

}  // namespace
}  // namespace vcdl
