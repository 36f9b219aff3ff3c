#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/baselines/downpour.hpp"
#include "core/baselines/easgd.hpp"
#include "core/baselines/serial.hpp"

namespace vcdl {
namespace {

SyntheticSpec tiny_data() {
  SyntheticSpec s;
  s.height = 8;
  s.width = 8;
  s.train = 400;
  s.validation = 80;
  s.test = 80;
  s.difficulty = 0.2;
  return s;
}

ResNetLiteSpec tiny_model() {
  return ResNetLiteSpec{.height = 8, .width = 8, .base_filters = 4, .blocks = 1};
}

TEST(SerialBaseline, LearnsAndTracksTime) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 8;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  const SerialResult result = run_serial_baseline(spec);
  ASSERT_EQ(result.epochs.size(), 8u);
  // Virtual time advances by a constant epoch duration.
  const double e1 = result.epochs[0].end_time;
  EXPECT_NEAR(result.epochs[1].end_time, 2 * e1, 1e-6);
  EXPECT_DOUBLE_EQ(result.duration_s, result.epochs.back().end_time);
  // Real learning: accuracy well above chance by the last epoch.
  EXPECT_GT(result.epochs.back().val_acc, 0.35);
  EXPECT_GT(result.epochs.back().val_acc, result.epochs.front().val_acc);
  EXPECT_NEAR(result.duration_s, 8 * result.epochs[0].end_time, 1e-6);
  EXPECT_GT(result.parameter_count, 0u);
}

TEST(SerialBaseline, DeterministicInSeed) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 2;
  const SerialResult a = run_serial_baseline(spec);
  const SerialResult b = run_serial_baseline(spec);
  EXPECT_DOUBLE_EQ(a.epochs.back().val_acc, b.epochs.back().val_acc);
}

TEST(DownpourBaseline, LearnsOnSmallProblem) {
  DownpourSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 8;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  const DownpourResult result = run_downpour_baseline(spec);
  ASSERT_EQ(result.epochs.size(), 8u);
  EXPECT_GT(result.pushes, 0u);
  EXPECT_GT(result.fetches, 0u);
  double best = 0.0;
  for (const auto& e : result.epochs) best = std::max(best, e.val_acc);
  EXPECT_GT(best, 0.22);
  EXPECT_GE(result.epochs.back().val_acc, 0.15);
}

TEST(DownpourBaseline, SlowWorkerStillContributes) {
  DownpourSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 2;
  spec.max_epochs = 2;
  spec.worker_speeds = {1.0, 0.25};  // heterogeneity -> stale pushes
  const DownpourResult result = run_downpour_baseline(spec);
  EXPECT_EQ(result.epochs.size(), 2u);
}

TEST(DownpourBaseline, FailedWorkerDataIsLost) {
  // §III-C: "Using Downpour SGD as-is can lead to consistent loss of updates
  // from a ... disconnected client". The failed worker's pushes stop; the
  // run still finishes but that share of the data never trains again.
  DownpourSpec healthy;
  healthy.data = tiny_data();
  healthy.model = tiny_model();
  healthy.workers = 4;
  healthy.max_epochs = 3;
  DownpourSpec faulty = healthy;
  faulty.fail_worker = 0;
  faulty.fail_after_epoch = 1;
  const DownpourResult a = run_downpour_baseline(healthy);
  const DownpourResult b = run_downpour_baseline(faulty);
  EXPECT_GT(a.pushes, b.pushes);
}

TEST(EasgdBaseline, LearnsOnSmallProblem) {
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 8;
  spec.batch_size = 10;
  spec.tau = 2;
  spec.learning_rate = 3e-3;
  spec.moving_rate = 0.3;
  const EasgdResult result = run_easgd_baseline(spec);
  ASSERT_EQ(result.epochs.size(), 8u);
  EXPECT_GT(result.exchanges, 0u);
  double best = 0.0;
  for (const auto& e : result.epochs) best = std::max(best, e.val_acc);
  EXPECT_GT(best, 0.18);
  EXPECT_GT(result.epochs.back().val_acc, result.epochs.front().val_acc);
}

TEST(EasgdBaseline, TinyMovingRateFreezesCenter) {
  // §IV-C treats VC-ASGD α = 0.999 as the analogue of EASGD moving rate
  // 0.001: the center variable barely moves and accuracy stays near chance.
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 2;
  spec.moving_rate = 0.001;
  const EasgdResult result = run_easgd_baseline(spec);
  EXPECT_LT(result.epochs.back().val_acc, 0.25);
}

TEST(EasgdBaseline, RejectsBadMovingRate) {
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.moving_rate = 0.0;
  EXPECT_THROW(run_easgd_baseline(spec), Error);
  spec.moving_rate = 1.0;
  EXPECT_THROW(run_easgd_baseline(spec), Error);
}

// --- Pinned goldens ---------------------------------------------------------
//
// Every baseline's per-epoch accuracies and its counters, captured before
// the baselines shared one minibatch step (core/local_sgd.hpp), so that
// fold must reproduce them bit for bit. Four epochs: at two, Downpour and
// EASGD both sit at chance and their accuracy hashes coincide.

// FNV-1a over the bit patterns of each epoch's val_acc and test_acc.
std::uint64_t accuracy_bits(const std::vector<EpochStats>& epochs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const EpochStats& e : epochs) {
    for (const double v : {e.val_acc, e.test_acc}) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(BaselineGoldens, Serial) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 4;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  const SerialResult r = run_serial_baseline(spec);
  ASSERT_EQ(r.epochs.size(), 4u);
  EXPECT_EQ(accuracy_bits(r.epochs), 0x4f64ada9df4381f3ULL);
}

TEST(BaselineGoldens, Downpour) {
  DownpourSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 4;
  spec.batch_size = 10;
  spec.learning_rate = 3e-3;
  spec.worker_speeds = {1.0, 0.5};
  spec.fail_worker = 2;
  spec.fail_after_epoch = 2;
  const DownpourResult r = run_downpour_baseline(spec);
  ASSERT_EQ(r.epochs.size(), 4u);
  EXPECT_EQ(accuracy_bits(r.epochs), 0x43488e05adaeeaf7ULL);
  EXPECT_EQ(r.pushes, 28u);
  EXPECT_EQ(r.fetches, 28u);
}

TEST(BaselineGoldens, Easgd) {
  EasgdSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.workers = 3;
  spec.max_epochs = 4;
  spec.batch_size = 10;
  spec.tau = 2;
  spec.learning_rate = 3e-3;
  spec.moving_rate = 0.3;
  spec.fail_worker = 0;
  spec.fail_after_epoch = 3;
  const EasgdResult r = run_easgd_baseline(spec);
  ASSERT_EQ(r.epochs.size(), 4u);
  EXPECT_EQ(accuracy_bits(r.epochs), 0x253bdcfce62a559fULL);
  EXPECT_EQ(r.exchanges, 77u);
}

TEST(Baselines, ValidationTracksTest) {
  SerialSpec spec;
  spec.data = tiny_data();
  spec.model = tiny_model();
  spec.max_epochs = 4;
  const SerialResult result = run_serial_baseline(spec);
  // Same-distribution splits: validation and test accuracies move together.
  const auto& last = result.epochs.back();
  EXPECT_NEAR(last.val_acc, last.test_acc, 0.15);
}

}  // namespace
}  // namespace vcdl
