#include "testing/oracles.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/shards.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"

namespace vcdl::testing {

ExperimentSpec tiny_image_spec(bool trace) {
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
  spec.trace = trace;
  return spec;
}

Model tiny_resnet(std::uint64_t seed) {
  return make_resnet_lite(ResNetLiteSpec{.channels = 3,
                                         .height = 8,
                                         .width = 8,
                                         .base_filters = 4,
                                         .blocks = 1,
                                         .classes = 10},
                          seed);
}

std::vector<float> serial_vcasgd_reference(const ExperimentSpec& spec,
                                           const TraceLog& trace) {
  VCDL_CHECK(spec.parameter_servers == 1 && spec.clients == 1 &&
                 spec.tasks_per_client == 1,
             "serial_vcasgd_reference: needs a P1C1T1 run");
  VCDL_CHECK(spec.alpha == "0",
             "serial_vcasgd_reference: needs α=0 (publish == client params)");
  VCDL_CHECK(!spec.faults.any() && !spec.preemptible,
             "serial_vcasgd_reference: needs a fault-free run");

  // Rebuild data, shards and model with the trainer's exact stream
  // discipline (core/trainer.cpp).
  VCDL_CHECK(spec.workload == ExperimentSpec::Workload::image_classification,
             "serial_vcasgd_reference: image workload only");
  SyntheticSpec images = spec.data;
  images.seed = mix64(spec.seed, 0xDA7A);
  const SyntheticData data = make_synthetic_cifar(images);
  const ShardSet shards = make_shards(data.train, spec.num_shards,
                                      spec.shard_policy,
                                      mix64(spec.seed, 0x5AAD));
  Model model = [&] {
    if (spec.model_kind == ExperimentSpec::ModelKind::mlp) {
      MlpSpec mlp = spec.mlp;
      if (mlp.inputs == 0) mlp.inputs = data.train.pixels_per_image();
      mlp.classes = data.train.classes();
      return make_mlp(mlp, mix64(spec.seed, 0x30DE1));
    }
    return make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  }();
  const Rng master(spec.seed);

  // With one client and one task slot, subtask k's parameters are published
  // (store commit + in-memory copy) long before subtask k+1 starts: the
  // commit trails the upload by only the store read+write latencies, while
  // the next exec_start waits for at least a poll interval plus a download.
  // So replaying the exec_start events in trace order, each step training
  // from the previous step's output, reproduces the run exactly.
  std::vector<float> params = model.flat_params();
  std::uint64_t subtask_counter = 0;
  for (const TraceEvent& event : trace.filter(TraceKind::exec_start)) {
    // Workunit labels are "e<epoch>/s<shard>" (grid/workunit.hpp).
    const auto slash = event.detail.find("/s");
    VCDL_CHECK(event.detail.size() > 1 && event.detail[0] == 'e' &&
                   slash != std::string::npos,
               "serial_vcasgd_reference: unexpected exec_start label '" +
                   event.detail + "'");
    const std::size_t shard_index = static_cast<std::size_t>(
        std::stoull(event.detail.substr(slash + 2)));
    VCDL_CHECK(shard_index < shards.count(),
               "serial_vcasgd_reference: shard out of range");
    const Dataset& shard = shards.shards[shard_index];

    // Mirror of the trainer's execute callback, draw for draw.
    model.set_flat_params(params);
    auto optimizer = make_optimizer(spec.optimizer, spec.learning_rate);
    Rng task_rng = master.fork(0xE0E0 + (++subtask_counter));
    std::vector<std::size_t> order(shard.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t pass = 0; pass < spec.local_epochs; ++pass) {
      task_rng.shuffle(order.begin(), order.end());
      for (std::size_t first = 0; first < order.size();
           first += spec.batch_size) {
        const std::size_t count =
            std::min(spec.batch_size, order.size() - first);
        std::span<const std::size_t> idx(order.data() + first, count);
        const Tensor x = shard.gather_tensor(idx);
        std::vector<std::uint16_t> labels(count);
        for (std::size_t i = 0; i < count; ++i) labels[i] = shard.label(idx[i]);
        const Tensor logits =
            model.forward(x, serial_exec_context(), /*training=*/true);
        const auto loss = softmax_cross_entropy(logits, labels);
        model.zero_grads();
        model.backward(loss.grad, serial_exec_context());
        optimizer->step(model);
      }
    }
    // α = 0 publish: server·0 + client·1 — exactly the client's parameters.
    params = model.flat_params();
  }
  return params;
}

}  // namespace vcdl::testing
