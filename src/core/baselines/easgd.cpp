#include "core/baselines/easgd.hpp"

#include "core/baselines/common.hpp"
#include "core/local_sgd.hpp"

namespace vcdl {

EasgdResult run_easgd_baseline(const EasgdSpec& spec) {
  VCDL_CHECK(spec.workers >= 1, "easgd: need >= 1 worker");
  VCDL_CHECK(spec.tau >= 1, "easgd: tau >= 1");
  VCDL_CHECK(spec.moving_rate > 0.0 && spec.moving_rate < 1.0,
             "easgd: moving rate in (0, 1)");
  SyntheticSpec data_spec = spec.data;
  data_spec.seed = mix64(spec.seed, 0xDA7A);
  const SyntheticData data = make_synthetic_cifar(data_spec);

  Model center_model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  std::vector<float> center = center_model.flat_params();  // x̃
  const std::size_t dim = center.size();

  struct Worker {
    Model replica;
    std::unique_ptr<Optimizer> optimizer;
    WorkerData data;
    std::size_t steps = 0;
  };

  Rng rng(mix64(spec.seed, 0xEA5D));
  std::vector<WorkerData> dealt =
      deal_indices(data.train.size(), spec.workers, rng);
  std::vector<Worker> workers;
  workers.reserve(spec.workers);
  for (std::size_t w = 0; w < spec.workers; ++w) {
    workers.push_back(
        Worker{center_model, make_optimizer(spec.optimizer, spec.learning_rate),
               std::move(dealt[w])});
  }

  EasgdResult result;
  const std::size_t rounds =
      rounds_per_epoch(data.train.size(), spec.workers, spec.batch_size);
  const auto beta = static_cast<float>(spec.moving_rate);

  for (std::size_t epoch = 1; epoch <= spec.max_epochs; ++epoch) {
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (!worker_alive(w, epoch, spec.fail_worker, spec.fail_after_epoch)) {
          continue;
        }
        Worker& wk = workers[w];
        compute_gradients(wk.replica, data.train,
                          wk.data.next_batch(spec.batch_size),
                          serial_exec_context());
        wk.optimizer->step(wk.replica);
        ++wk.steps;
        if (wk.steps % spec.tau == 0) {
          // Elastic exchange with the center variable.
          std::vector<float> x_i = wk.replica.flat_params();
          for (std::size_t i = 0; i < dim; ++i) {
            const float diff = x_i[i] - center[i];
            x_i[i] -= beta * diff;
            center[i] += beta * diff;
          }
          wk.replica.set_flat_params(x_i);
          ++result.exchanges;
        }
      }
    }
    center_model.set_flat_params(center);
    result.epochs.push_back(baseline_epoch_stats(
        epoch, static_cast<double>(epoch), center_model, data, spec.workers));
  }
  return result;
}

}  // namespace vcdl
