#include "testing/generators.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/init.hpp"
#include "nn/misc_layers.hpp"
#include "nn/pool2d.hpp"

namespace vcdl::testing {

Shape gen_shape(Rng& rng, int size, std::size_t min_rank,
                std::size_t max_rank) {
  VCDL_CHECK(size >= 1, "gen_shape: size >= 1");
  VCDL_CHECK(min_rank >= 1 && min_rank <= max_rank, "gen_shape: bad rank range");
  const auto rank =
      min_rank + rng.uniform_index(max_rank - min_rank + 1);
  std::vector<std::size_t> dims(rank);
  for (auto& d : dims) {
    d = 1 + rng.uniform_index(static_cast<std::uint64_t>(size));
  }
  return Shape(std::move(dims));
}

Tensor gen_tensor(Rng& rng, const Shape& shape, float scale) {
  return Tensor::randn(shape, rng, 0.0f, scale);
}

Tensor gen_separated_tensor(Rng& rng, const Shape& shape, float step) {
  VCDL_CHECK(step > 0.0f, "gen_separated_tensor: step > 0");
  const std::size_t n = shape.numel();
  // Grid point i sits at ±(0.5 + i)·step, jittered by at most step/8, so any
  // two values (same or opposite sign) stay ≥ 3·step/4 apart and every value
  // keeps |v| ≥ 3·step/8.
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
    const double jitter = rng.uniform(-0.125, 0.125);
    values[i] = static_cast<float>(
        sign * (0.5 + static_cast<double>(i) + jitter) * step);
  }
  rng.shuffle(values.begin(), values.end());
  return Tensor(shape, std::move(values));
}

std::vector<std::uint16_t> gen_labels(Rng& rng, std::size_t batch,
                                      std::size_t classes) {
  VCDL_CHECK(classes >= 1, "gen_labels: classes >= 1");
  std::vector<std::uint16_t> labels(batch);
  for (auto& l : labels) {
    l = static_cast<std::uint16_t>(rng.uniform_index(classes));
  }
  return labels;
}

Blob gen_blob(Rng& rng, std::size_t max_bytes) {
  const auto n = rng.uniform_index(max_bytes + 1);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) {
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  return Blob(std::move(bytes));
}

ModelCase gen_model_case(Rng& rng, int size) {
  VCDL_CHECK(size >= 1, "gen_model_case: size >= 1");
  ModelCase mc;
  const std::size_t batch = 1 + rng.uniform_index(3);
  mc.classes = 2 + rng.uniform_index(6);
  Model model;

  if (rng.bernoulli(0.5)) {
    // Convolutional stack: conv → ReLU → (residual conv) → pool → flatten →
    // dense head.
    const std::size_t channels = 1 + rng.uniform_index(2);
    const std::size_t hw = 4 + 2 * rng.uniform_index(
                                   static_cast<std::uint64_t>((size + 3) / 4));
    const std::size_t filters = 2 + rng.uniform_index(3);
    model.emplace<Conv2D>(channels, filters, 3, 1, Init::he_normal, rng);
    model.emplace<ReLU>();
    if (rng.bernoulli(0.5)) {
      std::vector<std::unique_ptr<Layer>> inner;
      inner.push_back(std::make_unique<Conv2D>(filters, filters, 3, 1,
                                               Init::he_normal, rng));
      inner.push_back(std::make_unique<ReLU>());
      model.add(std::make_unique<Residual>(std::move(inner)));
    }
    if (rng.bernoulli(0.5)) {
      model.emplace<MaxPool2D>(2);
      model.emplace<Flatten>();
      const std::size_t flat = filters * (hw / 2) * (hw / 2);
      model.emplace<Dense>(flat, mc.classes, Init::xavier_uniform, rng);
    } else {
      model.emplace<GlobalAvgPool>();
      model.emplace<Dense>(filters, mc.classes, Init::xavier_uniform, rng);
    }
    mc.input = gen_tensor(rng, Shape{batch, channels, hw, hw}, 1.0f);
    mc.desc = "conv stack " + std::to_string(channels) + "x" +
              std::to_string(hw) + "x" + std::to_string(hw);
  } else {
    // MLP: dense → ReLU chain.
    const std::size_t inputs =
        2 + rng.uniform_index(static_cast<std::uint64_t>(size) + 2);
    std::size_t width = inputs;
    const std::size_t depth = 1 + rng.uniform_index(2);
    for (std::size_t d = 0; d < depth; ++d) {
      const std::size_t next = 2 + rng.uniform_index(6);
      model.emplace<Dense>(width, next, Init::he_normal, rng);
      model.emplace<ReLU>();
      width = next;
    }
    model.emplace<Dense>(width, mc.classes, Init::xavier_uniform, rng);
    mc.input = gen_tensor(rng, Shape{batch, inputs}, 1.0f);
    mc.desc = "mlp " + std::to_string(inputs) + " wide, depth " +
              std::to_string(depth);
  }

  mc.labels = gen_labels(rng, batch, mc.classes);
  mc.model = std::move(model);
  return mc;
}

ExperimentSpec gen_experiment_spec(Rng& rng, int size, bool chaos) {
  VCDL_CHECK(size >= 1, "gen_experiment_spec: size >= 1");
  ExperimentSpec spec;
  spec.parameter_servers = 1 + rng.uniform_index(3);
  spec.clients = 1 + rng.uniform_index(3);
  spec.tasks_per_client = 1 + rng.uniform_index(2);
  spec.num_shards = 3 + rng.uniform_index(4);
  spec.max_epochs = 1 + rng.uniform_index(2);
  spec.local_epochs = 1;
  spec.batch_size = 8;
  spec.validation_subsample = 16;
  static const char* kAlphas[] = {"0", "0.5", "0.95", "var"};
  spec.alpha = kAlphas[rng.uniform_index(4)];
  spec.store = rng.bernoulli(0.5) ? "eventual" : "strong";
  static const char* kOptimizers[] = {"sgd", "momentum", "adam"};
  spec.optimizer = kOptimizers[rng.uniform_index(3)];
  // Every wire mode must uphold the same-seed determinism contract
  // (docs/SIMULATION.md §4b), so the replay properties draw across all three.
  static const char* kWireCodecs[] = {"full", "delta", "delta_q8"};
  spec.wire_codec = kWireCodecs[rng.uniform_index(3)];
  // Sharded parameter plane: the replay, checkpoint-restore and chaos
  // digest-identity properties must hold at every shard count, so the
  // generator draws across the whole supported range.
  static const std::size_t kParamShards[] = {1, 2, 4, 8};
  spec.param_shards = kParamShards[rng.uniform_index(4)];
  // Substitute workload kept miniature so a full run is sub-second.
  spec.data.height = 8;
  spec.data.width = 8;
  spec.data.train = 24 * spec.num_shards;
  spec.data.validation = 40;
  spec.data.test = 40;
  if (rng.bernoulli(0.5)) {
    spec.model_kind = ExperimentSpec::ModelKind::mlp;
  } else {
    spec.model.height = 8;
    spec.model.width = 8;
    spec.model.base_filters = 4;
    spec.model.blocks = 1;
  }
  if (chaos) {
    spec.preemptible = rng.bernoulli(0.5);
    if (spec.preemptible) spec.interruption_per_hour = 20.0;
    spec.faults.download.drop_prob = 0.05 + 0.1 * rng.uniform();
    spec.faults.upload.drop_prob = 0.05 + 0.1 * rng.uniform();
    spec.faults.corruption_prob = 0.02;
    spec.faults.store.fail_prob = 0.05;
    spec.client_retry.base_backoff_s = 2.0;
    spec.client_retry.max_backoff_s = 30.0;
    if (rng.bernoulli(0.5)) {
      spec.faults.server_crashes = {120.0 + 60.0 * rng.uniform()};
      spec.faults.server_recovery_s = 30.0;
      spec.checkpoint_interval_s = 60.0;
    }
    // Byzantine adversaries + replica consensus ride the chaos regime: the
    // determinism and quorum invariants must hold under attack too.
    if (rng.bernoulli(0.5)) {
      spec.clients = std::max<std::size_t>(spec.clients, 3);
      spec.adversary.fraction = 0.2 + 0.3 * rng.uniform();
      spec.adversary.mode = static_cast<AttackMode>(rng.uniform_index(4));
      spec.adversary.collude = rng.bernoulli(0.5);
      spec.replication = 3;
      spec.consensus.enabled = true;
      spec.consensus.quorum = 2;
      spec.consensus.tolerance = 0.1;
      if (rng.bernoulli(0.5)) spec.blend_outlier_threshold = 4.0;
      if (rng.bernoulli(0.5)) spec.adaptive_replication = true;
    }
  }
  spec.seed = rng();
  // `size` widens the cluster a little at the top of the range so bigger
  // cases exercise more interleaving without blowing up runtime.
  if (size > 16) spec.clients = std::min<std::size_t>(spec.clients + 1, 4);
  return spec;
}

}  // namespace vcdl::testing
