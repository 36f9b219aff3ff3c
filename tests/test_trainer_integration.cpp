// End-to-end integration tests of the full VC-ASGD system on a miniature
#include <cstdlib>
// job. These exercise every moving part (data → shards → grid → clients →
// parameter servers → stores → epoch accounting) in one simulated run.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/report.hpp"
#include "core/trainer.hpp"
#include "testing/oracles.hpp"

namespace vcdl {
namespace {

// The shared miniature job (testing/oracles.hpp): 8 shards of a small
// dataset, 2 epochs, tiny model, with tracing on.
ExperimentSpec tiny_spec() { return testing::tiny_image_spec(/*trace=*/true); }

TEST(TrainerIntegration, CompletesAndRecordsEpochs) {
  const TrainResult result = run_experiment(tiny_spec());
  ASSERT_EQ(result.epochs.size(), 2u);
  EXPECT_EQ(result.epochs[0].epoch, 1u);
  EXPECT_EQ(result.epochs[1].epoch, 2u);
  EXPECT_EQ(result.epochs[0].results, 8u);
  EXPECT_EQ(result.epochs[1].results, 8u);
  EXPECT_GT(result.epochs[0].end_time, 0.0);
  EXPECT_GT(result.epochs[1].end_time, result.epochs[0].end_time);
  EXPECT_DOUBLE_EQ(result.totals.duration_s, result.epochs[1].end_time);
  EXPECT_GT(result.totals.parameter_count, 0u);
}

TEST(TrainerIntegration, AccuraciesAreValidAndOrdered) {
  const TrainResult result = run_experiment(tiny_spec());
  for (const auto& e : result.epochs) {
    EXPECT_GE(e.min_subtask_acc, 0.0);
    EXPECT_LE(e.max_subtask_acc, 1.0);
    EXPECT_LE(e.min_subtask_acc, e.mean_subtask_acc);
    EXPECT_LE(e.mean_subtask_acc, e.max_subtask_acc);
    EXPECT_GE(e.std_subtask_acc, 0.0);
    EXPECT_GE(e.val_acc, 0.0);
    EXPECT_LE(e.val_acc, 1.0);
    EXPECT_GE(e.test_acc, 0.0);
    EXPECT_LE(e.test_acc, 1.0);
  }
}

TEST(TrainerIntegration, DeterministicForSeed) {
  ExperimentSpec spec = tiny_spec();
  const TrainResult a = run_experiment(spec);
  const TrainResult b = run_experiment(spec);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epochs[i].end_time, b.epochs[i].end_time);
    EXPECT_DOUBLE_EQ(a.epochs[i].mean_subtask_acc, b.epochs[i].mean_subtask_acc);
    EXPECT_DOUBLE_EQ(a.epochs[i].val_acc, b.epochs[i].val_acc);
  }
  spec.seed = 1234;
  const TrainResult c = run_experiment(spec);
  EXPECT_NE(a.epochs.back().end_time, c.epochs.back().end_time);
}

TEST(TrainerIntegration, StrongConsistencyCompletesWithoutLostUpdates) {
  ExperimentSpec spec = tiny_spec();
  spec.store = "strong";
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_EQ(result.metrics.counter("store.lost_updates"), 0u);
  EXPECT_GE(result.metrics.counter("store.writes"), 16u);  // one per assimilation + init
}

TEST(TrainerIntegration, StrongConsistencyIsSlowerThanEventual) {
  ExperimentSpec eventual = tiny_spec();
  ExperimentSpec strong = tiny_spec();
  strong.store = "strong";
  const TrainResult re = run_experiment(eventual);
  const TrainResult rs = run_experiment(strong);
  // §IV-D: each update transaction costs 1.29 s vs 0.87 s, so the strong run
  // takes longer in virtual time for the same number of updates.
  EXPECT_GT(rs.totals.duration_s, re.totals.duration_s);
}

TEST(TrainerIntegration, PreemptionRunCompletesWithFaults) {
  ExperimentSpec spec = tiny_spec();
  spec.preemptible = true;
  spec.interruption_per_hour = 20.0;  // very hostile fleet
  spec.preemption_downtime_s = 60.0;
  spec.subtask_timeout_s = 240.0;
  spec.max_epochs = 2;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  EXPECT_GT(result.metrics.counter("client.preemptions"), 0u);
  // Every epoch still assimilated all its subtasks exactly once.
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
}

TEST(TrainerIntegration, PreemptionCostsTime) {
  ExperimentSpec calm = tiny_spec();
  ExperimentSpec hostile = tiny_spec();
  hostile.preemptible = true;
  hostile.interruption_per_hour = 20.0;
  hostile.subtask_timeout_s = 240.0;
  const TrainResult a = run_experiment(calm);
  const TrainResult b = run_experiment(hostile);
  EXPECT_GT(b.totals.duration_s, a.totals.duration_s);
  EXPECT_GE(b.metrics.counter("scheduler.failure.timeout"), 1u);
}

TEST(TrainerIntegration, LabelSkewShardsStillComplete) {
  ExperimentSpec spec = tiny_spec();
  spec.shard_policy = ShardPolicy::label_skew;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
}

TEST(TrainerIntegration, ReplicationProducesDuplicates) {
  ExperimentSpec spec = tiny_spec();
  spec.replication = 2;
  spec.clients = 3;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
  EXPECT_GT(result.metrics.counter("server.results_duplicate"), 0u);
}

TEST(TrainerIntegration, TargetAccuracyStopsEarly) {
  ExperimentSpec spec = tiny_spec();
  spec.max_epochs = 10;
  spec.target_accuracy = 0.0;  // any accuracy satisfies it
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 1u);
}

TEST(TrainerIntegration, StickyCacheReducesTraffic) {
  const TrainResult result = run_experiment(tiny_spec());
  // Architecture + shards are re-used across the 16 subtasks.
  EXPECT_GT(result.metrics.counter("file_server.cache_hits"), 0u);
  EXPECT_GT(result.metrics.counter("file_server.bytes_wire"), 0u);
}

TEST(TrainerIntegration, TraceCapturesLifecycle) {
  ExperimentSpec spec = tiny_spec();
  VcTrainer trainer(spec);
  (void)trainer.run();
  const TraceLog& trace = trainer.trace();
  EXPECT_EQ(trace.count(TraceKind::work_generated), 16u);
  EXPECT_EQ(trace.count(TraceKind::assimilated), 16u);
  EXPECT_EQ(trace.count(TraceKind::epoch_done), 2u);
  EXPECT_EQ(trace.count(TraceKind::job_done), 1u);
  // Causality: every exec_done is preceded by an exec_start.
  EXPECT_EQ(trace.count(TraceKind::exec_start),
            trace.count(TraceKind::exec_done));
}

TEST(TrainerIntegration, HelpersOnResult) {
  const TrainResult result = run_experiment(tiny_spec());
  EXPECT_EQ(&result.final_epoch(), &result.epochs.back());
}

TEST(TrainerIntegration, MoreClientsFinishFaster) {
  ExperimentSpec small = tiny_spec();
  small.clients = 1;
  small.parameter_servers = 1;
  ExperimentSpec big = tiny_spec();
  big.clients = 4;
  big.parameter_servers = 2;
  const TrainResult a = run_experiment(small);
  const TrainResult b = run_experiment(big);
  EXPECT_LT(b.totals.duration_s, a.totals.duration_s);
}

TEST(TrainerIntegration, InvalidSpecRejected) {
  ExperimentSpec spec = tiny_spec();
  spec.clients = 0;
  EXPECT_THROW(VcTrainer{spec}, Error);
  spec = tiny_spec();
  spec.parameter_servers = 0;
  EXPECT_THROW(VcTrainer{spec}, Error);
  spec = tiny_spec();
  spec.batch_size = 0;
  EXPECT_THROW(VcTrainer{spec}, Error);
  spec = tiny_spec();
  spec.poll_interval_s = 0.0;
  EXPECT_THROW(VcTrainer{spec}, Error);
}

TEST(TrainerIntegration, ReliabilityGateRunCompletes) {
  ExperimentSpec spec = tiny_spec();
  spec.reliability_gate = 0.45;
  spec.preemptible = true;
  spec.interruption_per_hour = 10.0;
  spec.subtask_timeout_s = 240.0;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) EXPECT_EQ(e.results, 8u);
}

TEST(TrainerIntegration, JsonExportOfRealRunIsBalanced) {
  const TrainResult result = run_experiment(tiny_spec());
  const std::string json = to_json(result);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"label\":\"P2C2T2\""), std::string::npos);
  EXPECT_NE(json.find("\"epochs\":[{"), std::string::npos);
}

TEST(TrainerIntegration, TimeseriesMlpWorkload) {
  ExperimentSpec spec = tiny_spec();
  spec.workload = ExperimentSpec::Workload::timeseries;
  spec.model_kind = ExperimentSpec::ModelKind::mlp;
  spec.timeseries.regimes = 4;
  spec.timeseries.window = 24;
  spec.timeseries.train = 160;
  spec.timeseries.validation = 60;
  spec.timeseries.test = 60;
  const TrainResult result = run_experiment(spec);
  ASSERT_EQ(result.epochs.size(), 2u);
  for (const auto& e : result.epochs) {
    EXPECT_EQ(e.results, 8u);
    EXPECT_GE(e.val_acc, 0.0);
    EXPECT_LE(e.val_acc, 1.0);
  }
}

TEST(TrainerIntegration, MlpOnImagesWorksToo) {
  ExperimentSpec spec = tiny_spec();
  spec.model_kind = ExperimentSpec::ModelKind::mlp;
  const TrainResult result = run_experiment(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
}

}  // namespace
}  // namespace vcdl
