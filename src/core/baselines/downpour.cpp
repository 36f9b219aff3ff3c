#include "core/baselines/downpour.hpp"

#include <algorithm>

#include "core/baselines/common.hpp"
#include "core/local_sgd.hpp"

namespace vcdl {
namespace {

struct Worker {
  Model replica;
  std::unique_ptr<Optimizer> optimizer;
  std::vector<float> push_buffer;   // accumulated gradients since last push
  WorkerData data;                  // this worker's data indices
  std::size_t steps = 0;
  double speed = 1.0;
  double credit = 0.0;  // fractional steps earned per round
};

// Appends the replica's current gradients into the push buffer.
void accumulate_grads(Model& m, std::vector<float>& buffer) {
  std::size_t pos = 0;
  for (Tensor* g : m.grads()) {
    for (const float v : g->flat()) buffer[pos++] += v;
  }
}

}  // namespace

DownpourResult run_downpour_baseline(const DownpourSpec& spec) {
  VCDL_CHECK(spec.workers >= 1, "downpour: need >= 1 worker");
  VCDL_CHECK(spec.n_push >= 1 && spec.n_fetch >= 1, "downpour: n_push/n_fetch >= 1");
  SyntheticSpec data_spec = spec.data;
  data_spec.seed = mix64(spec.seed, 0xDA7A);
  const SyntheticData data = make_synthetic_cifar(data_spec);

  Model server_model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  const std::size_t dim = server_model.parameter_count();
  // Server-side adaptive update rule applied to pushed gradients (DistBelief
  // used Adagrad; we use Adam). A plain SGD server stalls: replicas re-fetch
  // an almost static parameter copy every n_fetch steps.
  auto server_optimizer = make_optimizer(spec.optimizer, spec.learning_rate);

  Rng rng(mix64(spec.seed, 0xD00D));
  // Partition the training data across workers (data parallel).
  std::vector<WorkerData> dealt =
      deal_indices(data.train.size(), spec.workers, rng);
  std::vector<Worker> workers;
  workers.reserve(spec.workers);
  for (std::size_t w = 0; w < spec.workers; ++w) {
    Worker wk{server_model, make_optimizer(spec.optimizer, spec.learning_rate),
              std::vector<float>(dim, 0.0f), std::move(dealt[w])};
    if (w < spec.worker_speeds.size()) wk.speed = spec.worker_speeds[w];
    workers.push_back(std::move(wk));
  }

  DownpourResult result;
  const std::size_t rounds =
      rounds_per_epoch(data.train.size(), spec.workers, spec.batch_size);

  auto worker_step = [&](Worker& wk) {
    compute_gradients(wk.replica, data.train,
                      wk.data.next_batch(spec.batch_size),
                      serial_exec_context());
    accumulate_grads(wk.replica, wk.push_buffer);
    wk.optimizer->step(wk.replica);  // local progress between fetches
    ++wk.steps;
    if (wk.steps % spec.n_push == 0) {
      // Server applies the accumulated gradient with its optimizer.
      std::size_t pos = 0;
      for (Tensor* g : server_model.grads()) {
        for (auto& v : g->flat()) v = wk.push_buffer[pos++];
      }
      server_optimizer->step(server_model);
      std::fill(wk.push_buffer.begin(), wk.push_buffer.end(), 0.0f);
      ++result.pushes;
    }
    if (wk.steps % spec.n_fetch == 0) {
      wk.replica.set_flat_params(server_model.flat_params());
      ++result.fetches;
    }
  };

  for (std::size_t epoch = 1; epoch <= spec.max_epochs; ++epoch) {
    // Round-robin with speed skew: a worker earns `speed` step credits per
    // round and executes the whole ones, so slow workers push staler grads.
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t w = 0; w < workers.size(); ++w) {
        if (!worker_alive(w, epoch, spec.fail_worker, spec.fail_after_epoch)) {
          continue;
        }
        Worker& wk = workers[w];
        wk.credit += wk.speed;
        while (wk.credit >= 1.0) {
          wk.credit -= 1.0;
          worker_step(wk);
        }
      }
    }
    // Epoch index as nominal time.
    result.epochs.push_back(baseline_epoch_stats(
        epoch, static_cast<double>(epoch), server_model, data, spec.workers));
  }
  return result;
}

}  // namespace vcdl
