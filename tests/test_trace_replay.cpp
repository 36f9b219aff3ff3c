// Deterministic trace replay tier: the TraceDigest determinism contract
// (sim/trace.hpp) and the causality validator (testing/trace_check.hpp),
// pinned on the chaos fleet — faults, corruption, server crashes and
// preemption all enabled. Two same-seed runs must be event-for-event
// identical; a digest mismatch means hidden nondeterminism (iteration order,
// uninitialised reads, wall-clock leakage) somewhere in the stack.
#include <gtest/gtest.h>

#include <cmath>

#include "common/wire_codec.hpp"
#include "core/trainer.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"
#include "testing/trace_check.hpp"

namespace vcdl {
namespace {

using testing::CausalityReport;
using testing::PropConfig;
using testing::PropResult;
using testing::gen_experiment_spec;
using testing::prop_assert;
using testing::run_property;
using testing::tiny_image_spec;
using testing::validate_causality;

// --- TraceDigest unit behaviour ---------------------------------------------

TEST(TraceDigest, EmptyLogHasZeroEvents) {
  TraceLog log;
  const TraceDigest d = log.digest();
  EXPECT_EQ(d.events, 0u);
  EXPECT_NE(d.to_string().find("events=0"), std::string::npos);
}

TEST(TraceDigest, OrderSensitiveAndFieldSensitive) {
  TraceLog ab, ba, ab2;
  ab.record(1.0, TraceKind::exec_start, "client-0", "e1/s0");
  ab.record(2.0, TraceKind::exec_done, "client-0", "e1/s0");
  ba.record(1.0, TraceKind::exec_done, "client-0", "e1/s0");
  ba.record(2.0, TraceKind::exec_start, "client-0", "e1/s0");
  ab2.record(1.0, TraceKind::exec_start, "client-0", "e1/s0");
  ab2.record(2.0, TraceKind::exec_done, "client-0", "e1/s0");
  EXPECT_EQ(ab.digest(), ab2.digest());
  EXPECT_NE(ab.digest().hash, ba.digest().hash);

  // The string length-prefix keeps ("ab","c") and ("a","bc") apart.
  TraceLog split_a, split_b;
  split_a.record(1.0, TraceKind::upload, "ab", "c");
  split_b.record(1.0, TraceKind::upload, "a", "bc");
  EXPECT_NE(split_a.digest().hash, split_b.digest().hash);

  // Exact virtual-time bits are folded in: a ulp of drift changes the hash.
  TraceLog t1, t2;
  t1.record(1.0, TraceKind::upload, "client-0", "e1/s0");
  t2.record(std::nextafter(1.0, 2.0), TraceKind::upload, "client-0", "e1/s0");
  EXPECT_NE(t1.digest().hash, t2.digest().hash);
}

// --- Causality validator ----------------------------------------------------

TEST(Causality, AcceptsWellFormedLifecycle) {
  TraceLog log;
  log.record(1.0, TraceKind::assigned, "client-0", "e1/s0");
  log.record(2.0, TraceKind::download, "client-0", "e1/s0");
  log.record(3.0, TraceKind::exec_start, "client-0", "e1/s0");
  log.record(5.0, TraceKind::exec_done, "client-0", "e1/s0");
  log.record(6.0, TraceKind::upload, "client-0", "e1/s0");
  const CausalityReport report = validate_causality(log);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_EQ(report.events_checked, 5u);
}

TEST(Causality, FlagsTimeGoingBackwards) {
  TraceLog log;
  log.record(5.0, TraceKind::exec_start, "client-0", "e1/s0");
  log.record(4.0, TraceKind::exec_done, "client-0", "e1/s0");
  const CausalityReport report = validate_causality(log);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("backwards"), std::string::npos);
}

TEST(Causality, FlagsExecDoneWithoutStart) {
  TraceLog log;
  log.record(1.0, TraceKind::exec_done, "client-0", "e1/s0");
  const CausalityReport report = validate_causality(log);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("exec_done"), std::string::npos);
}

TEST(Causality, FlagsUploadWithoutExecDone) {
  TraceLog log;
  log.record(1.0, TraceKind::exec_start, "client-0", "e1/s0");
  log.record(2.0, TraceKind::upload, "client-0", "e1/s0");
  const CausalityReport report = validate_causality(log);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("upload"), std::string::npos);
}

TEST(Causality, ToleratesPreemptedExecutions) {
  // exec_start without exec_done is legal — the client was preempted.
  TraceLog log;
  log.record(1.0, TraceKind::exec_start, "client-0", "e1/s0");
  log.record(2.0, TraceKind::preempted, "client-0", "1 tasks dropped");
  log.record(9.0, TraceKind::exec_start, "client-0", "e1/s0");
  log.record(12.0, TraceKind::exec_done, "client-0", "e1/s0");
  log.record(13.0, TraceKind::upload, "client-0", "e1/s0");
  const CausalityReport report = validate_causality(log);
  EXPECT_TRUE(report.ok) << report.violation;
}

// --- The chaos-fleet determinism contract -----------------------------------

ExperimentSpec chaos_fleet_spec() {
  ExperimentSpec spec = tiny_image_spec(/*trace=*/true);
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

TEST(TraceReplay, ChaosFleetSameSeedRunsAreDigestIdentical) {
  const ExperimentSpec spec = chaos_fleet_spec();
  VcTrainer a(spec);
  const TrainResult ra = a.run();
  VcTrainer b(spec);
  const TrainResult rb = b.run();

  const TraceDigest da = a.trace().digest();
  const TraceDigest db = b.trace().digest();
  EXPECT_GT(da.events, 0u);
  EXPECT_EQ(da, db) << "run A " << da.to_string() << " vs run B "
                    << db.to_string();

  // Digest identity now extends to telemetry: the whole metrics snapshot —
  // fault counters, latency histograms — must export byte-identical JSON
  // across same-seed runs.
  EXPECT_EQ(ra.metrics, rb.metrics);
  EXPECT_EQ(ra.metrics.to_json(), rb.metrics.to_json());
  EXPECT_EQ(ra.metrics.fingerprint(), rb.metrics.fingerprint());
  EXPECT_GT(ra.metrics.counters.at("faults.transfer_drop"), 0u);

  // The chaos actually bit: faults and preemptions fired.
  EXPECT_GT(ra.metrics.counter("client.transfer_retries") +
                ra.metrics.counter("client.transfer_abandoned"),
            0u);
  EXPECT_GT(ra.metrics.counter("client.preemptions"), 0u);
  EXPECT_EQ(ra.metrics.counter("faults.server_crash"), 1u);
  ASSERT_EQ(ra.epochs.size(), rb.epochs.size());

  // Nothing in the trace or the metrics carries the params, and epoch_done
  // carries accuracy to 6 digits, so compare the trained bits themselves.
  ASSERT_FALSE(ra.final_params.empty());
  EXPECT_EQ(params_hash(ra.final_params), params_hash(rb.final_params));

  // And each trace individually respects causality.
  const CausalityReport report = validate_causality(a.trace());
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(TraceReplay, DifferentSeedsProduceDifferentDigests) {
  ExperimentSpec spec = chaos_fleet_spec();
  VcTrainer a(spec);
  (void)a.run();
  spec.seed += 1;
  VcTrainer b(spec);
  (void)b.run();
  EXPECT_NE(a.trace().digest().hash, b.trace().digest().hash);
}

TEST(TraceReplay, RandomChaosSpecsStayDeterministicAndCausal) {
  PropConfig cfg;
  cfg.name = "trace.random-chaos-determinism";
  cfg.suite = "test_trace_replay";
  cfg.trials = 4;  // each trial runs two full (miniature) experiments
  cfg.max_size = 20;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    ExperimentSpec spec = gen_experiment_spec(rng, size, /*chaos=*/true);
    spec.trace = true;
    VcTrainer a(spec);
    const TrainResult ra = a.run();
    VcTrainer b(spec);
    const TrainResult rb = b.run();
    prop_assert(a.trace().digest() == b.trace().digest(),
                spec.label() + " alpha=" + spec.alpha + " store=" + spec.store +
                    ": same-seed digests differ (" +
                    a.trace().digest().to_string() + " vs " +
                    b.trace().digest().to_string() + ")");
    prop_assert(ra.metrics.to_json() == rb.metrics.to_json(),
                spec.label() + ": same-seed metrics snapshots differ");
    prop_assert(params_hash(ra.final_params) == params_hash(rb.final_params),
                spec.label() + ": same-seed final params differ");
    const CausalityReport causality = validate_causality(a.trace());
    prop_assert(causality.ok, spec.label() + ": " + causality.violation);
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

}  // namespace
}  // namespace vcdl
