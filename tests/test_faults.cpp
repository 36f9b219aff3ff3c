// Fault injection + end-to-end failure recovery tests (sim/faults.hpp, and
// the chaos acceptance run through VcTrainer, whose crash recovery replays
// the run's checkpoint).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "core/trainer.hpp"
#include "nn/model_io.hpp"
#include "obs/snapshot.hpp"
#include "sim/faults.hpp"

namespace vcdl {
namespace {

// --- FaultInjector -----------------------------------------------------------

TEST(FaultInjector, DisabledPlanNeverFaults) {
  obs::Registry metrics;
  FaultInjector inj(FaultPlan{}, Rng(1), metrics);
  for (int i = 0; i < 100; ++i) {
    const auto out = inj.on_transfer(FaultSite::download);
    EXPECT_FALSE(out.dropped);
    EXPECT_DOUBLE_EQ(out.time_factor, 1.0);
    EXPECT_FALSE(inj.corrupt_result());
  }
  EXPECT_EQ(metrics.snapshot().counter("faults.transfer_drop"), 0u);
  EXPECT_EQ(metrics.snapshot().counter("faults.corruption"), 0u);
}

TEST(FaultInjector, DisabledPlanDrawsNothing) {
  // The injector must not consume randomness when the plan is all-zero —
  // this is what keeps fault-free runs bit-identical.
  Rng a(42);
  Rng b(42);
  obs::Registry metrics;
  FaultInjector inj(FaultPlan{}, std::move(b), metrics);
  for (int i = 0; i < 50; ++i) {
    (void)inj.on_transfer(FaultSite::download);
    (void)inj.on_transfer(FaultSite::upload);
    (void)inj.on_transfer(FaultSite::store);
    (void)inj.corrupt_result();
  }
  // Identical draw sequences would have diverged had the injector consumed
  // any — compare against an untouched twin.
  Rng c(42);
  EXPECT_EQ(a(), c());
}

TEST(FaultInjector, DeterministicForSeed) {
  FaultPlan plan;
  plan.download.drop_prob = 0.3;
  plan.download.stall_prob = 0.2;
  plan.corruption_prob = 0.1;
  obs::Registry metrics;
  FaultInjector a(plan, Rng(7), metrics);
  FaultInjector b(plan, Rng(7), metrics);
  for (int i = 0; i < 200; ++i) {
    const auto oa = a.on_transfer(FaultSite::download);
    const auto ob = b.on_transfer(FaultSite::download);
    EXPECT_EQ(oa.dropped, ob.dropped);
    EXPECT_DOUBLE_EQ(oa.time_factor, ob.time_factor);
    EXPECT_EQ(a.corrupt_result(), b.corrupt_result());
  }
}

TEST(FaultInjector, RatesMatchPlan) {
  FaultPlan plan;
  plan.upload.drop_prob = 0.25;
  plan.upload.stall_prob = 0.25;
  plan.upload.stall_factor = 6.0;
  obs::Registry metrics;
  FaultInjector inj(plan, Rng(3), metrics);
  int drops = 0, stalls = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const auto out = inj.on_transfer(FaultSite::upload);
    if (out.dropped) {
      ++drops;
    } else if (out.time_factor > 1.0) {
      EXPECT_DOUBLE_EQ(out.time_factor, 6.0);
      ++stalls;
    }
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.03);
  EXPECT_GT(stalls, 0);
  const obs::MetricsSnapshot counted = metrics.snapshot();
  EXPECT_EQ(counted.counter("faults.transfer_drop"),
            static_cast<std::uint64_t>(drops));
  EXPECT_EQ(counted.counter("faults.transfer_stall"),
            static_cast<std::uint64_t>(stalls));
}

TEST(FaultInjector, CorruptionBreaksParameterChecksum) {
  const std::vector<float> params = {1.0f, -2.5f, 3.25f, 0.0f, 9.5f};
  Blob blob = save_params(std::span<const float>(params));
  ASSERT_NO_THROW((void)load_params(blob));
  FaultPlan plan;
  plan.corruption_prob = 1.0;
  obs::Registry metrics;
  FaultInjector inj(plan, Rng(11), metrics);
  ASSERT_TRUE(inj.corrupt_result());  // certain at prob 1.0
  EXPECT_EQ(metrics.snapshot().counter("faults.corruption"), 1u);
  inj.corrupt(blob);
  EXPECT_THROW((void)load_params(blob), Error);
}

TEST(FaultInjector, InvalidPlanRejected) {
  obs::Registry metrics;
  FaultPlan bad;
  bad.download.drop_prob = 1.5;
  EXPECT_THROW(FaultInjector(bad, Rng(1), metrics), Error);
  bad = FaultPlan{};
  bad.store.fail_prob = 1.0;  // retries would never terminate
  EXPECT_THROW(FaultInjector(bad, Rng(1), metrics), Error);
  bad = FaultPlan{};
  bad.upload.stall_prob = 0.1;
  bad.upload.stall_factor = 0.5;  // a "stall" that speeds transfers up
  EXPECT_THROW(FaultInjector(bad, Rng(1), metrics), Error);
  bad = FaultPlan{};
  bad.server_crashes = {100.0};
  bad.server_recovery_s = 0.0;
  EXPECT_THROW(FaultInjector(bad, Rng(1), metrics), Error);
}

TEST(RetryPolicy, BackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.base_backoff_s = 5.0;
  policy.max_backoff_s = 60.0;
  policy.jitter = 0.5;
  Rng rng(5);
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    const SimTime d = policy.delay(attempt, rng);
    const SimTime base =
        std::min(60.0, 5.0 * static_cast<double>(1ull << attempt));
    EXPECT_GE(d, base);
    EXPECT_LE(d, base * 1.5);
  }
}

// --- End-to-end chaos runs ---------------------------------------------------

// Dropped download/upload attempts: each is either retried or abandoned.
std::uint64_t transfer_failures(const TrainResult& r) {
  return r.metrics.counter("client.transfer_retries") +
         r.metrics.counter("client.transfer_abandoned");
}

// Miniature job mirroring tests/test_trainer_integration.cpp.
ExperimentSpec tiny_spec() {
  ExperimentSpec spec;
  spec.parameter_servers = 2;
  spec.clients = 2;
  spec.tasks_per_client = 2;
  spec.num_shards = 8;
  spec.max_epochs = 2;
  spec.local_epochs = 1;
  spec.batch_size = 10;
  spec.validation_subsample = 32;
  spec.data.height = 8;
  spec.data.width = 8;
  spec.data.train = 160;
  spec.data.validation = 60;
  spec.data.test = 60;
  spec.model.height = 8;
  spec.model.width = 8;
  spec.model.base_filters = 4;
  spec.model.blocks = 1;
  spec.trace = true;
  return spec;
}

TEST(ChaosIntegration, ChaosMachineryIsFreeWhenIdle) {
  // A run with the retry policy tweaked and checkpointing enabled — but zero
  // faults — must be virtually identical to the untouched baseline: the
  // injector is never constructed, the retry policy never consulted, and
  // snapshots take no virtual time.
  const TrainResult base = run_experiment(tiny_spec());
  ExperimentSpec armed = tiny_spec();
  armed.client_retry.max_attempts = 9;
  armed.client_retry.base_backoff_s = 1.0;
  armed.checkpoint_interval_s = 60.0;
  const TrainResult b = run_experiment(armed);
  ASSERT_EQ(base.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < base.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(base.epochs[i].end_time, b.epochs[i].end_time);
    EXPECT_DOUBLE_EQ(base.epochs[i].mean_subtask_acc,
                     b.epochs[i].mean_subtask_acc);
    EXPECT_DOUBLE_EQ(base.epochs[i].val_acc, b.epochs[i].val_acc);
  }
  EXPECT_EQ(transfer_failures(b), 0u);
  EXPECT_EQ(b.metrics.counter("faults.server_crash"), 0u);
  EXPECT_EQ(b.metrics.counter("scheduler.failure.invalid_result"), 0u);
}

TEST(ChaosIntegration, TransferFaultsRetryAndComplete) {
  ExperimentSpec spec = tiny_spec();
  spec.faults.download.drop_prob = 0.15;
  spec.faults.upload.drop_prob = 0.15;
  spec.faults.download.stall_prob = 0.10;
  spec.client_retry.base_backoff_s = 2.0;
  const TrainResult result = run_experiment(spec);
  ASSERT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
  EXPECT_GT(transfer_failures(result), 0u);
}

TEST(ChaosIntegration, CorruptionIsCaughtAndRequeued) {
  ExperimentSpec spec = tiny_spec();
  spec.faults.corruption_prob = 0.3;
  VcTrainer trainer(spec);
  const TrainResult result = trainer.run();
  ASSERT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
  EXPECT_GT(result.metrics.counter("scheduler.failure.invalid_result"), 0u);
  EXPECT_EQ(trainer.trace().count(TraceKind::result_invalid),
            result.metrics.counter("scheduler.failure.invalid_result"));
}

TEST(ChaosIntegration, StoreFaultsRetryAndComplete) {
  ExperimentSpec spec = tiny_spec();
  spec.faults.store.fail_prob = 0.25;
  spec.faults.store.slow_prob = 0.20;
  VcTrainer trainer(spec);
  const TrainResult result = trainer.run();
  ASSERT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
  EXPECT_GT(trainer.trace().count(TraceKind::store_fault), 0u);
}

// The ISSUE acceptance run: >=10% transfer failures, >=1% corruption, two
// mid-run grid-server crashes — all workunits must retire, recovery must go
// through checkpoint replay, and the final accuracy must stay in the same
// band as the fault-free run.
TEST(ChaosIntegration, AcceptanceChaosRunRecoversEndToEnd) {
  const TrainResult clean = run_experiment(tiny_spec());

  ExperimentSpec spec = tiny_spec();
  spec.faults.download.drop_prob = 0.10;
  spec.faults.upload.drop_prob = 0.10;
  spec.faults.corruption_prob = 0.02;
  spec.faults.server_crashes = {150.0, 320.0};
  spec.faults.server_recovery_s = 30.0;
  spec.checkpoint_interval_s = 60.0;
  spec.client_retry.base_backoff_s = 2.0;
  spec.client_retry.max_backoff_s = 30.0;
  VcTrainer trainer(spec);
  const TrainResult chaos = trainer.run();

  // Every epoch retired all of its workunits despite the carnage.
  ASSERT_EQ(chaos.epochs.size(), 2u);
  for (const auto& e : chaos.epochs) EXPECT_EQ(e.results, 8u);

  // Both crashes happened and recovered via checkpoint replay.
  EXPECT_EQ(chaos.metrics.counter("faults.server_crash"), 2u);
  EXPECT_EQ(chaos.metrics.counter("checkpoint.restores"), 2u);
  const TraceLog& trace = trainer.trace();
  EXPECT_EQ(trace.count(TraceKind::server_crash), 2u);
  EXPECT_EQ(trace.count(TraceKind::server_recovered), 2u);
  EXPECT_EQ(trace.count(TraceKind::checkpoint_restored), 2u);
  EXPECT_GT(trace.count(TraceKind::checkpoint_saved), 0u);

  // Transfer faults actually fired and the run paid for them in time.
  EXPECT_GT(transfer_failures(chaos), 0u);
  EXPECT_GT(chaos.totals.duration_s, clean.totals.duration_s);

  // Accuracy lands in the same band as the fault-free run — chaos slows
  // training down but must not derail it.
  EXPECT_NEAR(chaos.epochs.back().mean_subtask_acc,
              clean.epochs.back().mean_subtask_acc, 0.35);
}

TEST(ChaosIntegration, ChaosRunIsDeterministic) {
  ExperimentSpec spec = tiny_spec();
  spec.faults.download.drop_prob = 0.10;
  spec.faults.upload.drop_prob = 0.10;
  spec.faults.corruption_prob = 0.05;
  const TrainResult a = run_experiment(spec);
  const TrainResult b = run_experiment(spec);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epochs[i].end_time, b.epochs[i].end_time);
    EXPECT_DOUBLE_EQ(a.epochs[i].mean_subtask_acc,
                     b.epochs[i].mean_subtask_acc);
  }
  EXPECT_EQ(transfer_failures(a), transfer_failures(b));
  EXPECT_EQ(a.metrics.counter("scheduler.failure.invalid_result"), b.metrics.counter("scheduler.failure.invalid_result"));
}

}  // namespace
}  // namespace vcdl
