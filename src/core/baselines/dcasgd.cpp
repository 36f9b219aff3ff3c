#include "core/baselines/dcasgd.hpp"

#include <deque>

#include "core/baselines/common.hpp"
#include "core/local_sgd.hpp"

namespace vcdl {

DcAsgdResult run_dcasgd_baseline(const DcAsgdSpec& spec) {
  VCDL_CHECK(spec.workers >= 1, "dcasgd: need >= 1 worker");
  VCDL_CHECK(spec.lambda >= 0.0, "dcasgd: lambda must be non-negative");
  SyntheticSpec data_spec = spec.data;
  data_spec.seed = mix64(spec.seed, 0xDA7A);
  const SyntheticData data = make_synthetic_cifar(data_spec);

  Model server_model = make_resnet_lite(spec.model, mix64(spec.seed, 0x30DE1));
  std::vector<float> w = server_model.flat_params();
  const std::size_t dim = w.size();

  Rng rng(mix64(spec.seed, 0xDCA5));
  std::vector<WorkerData> workers =
      deal_indices(data.train.size(), spec.workers, rng);

  // In-flight gradients: each entry is (gradient, w_bak) computed on an
  // older server copy; it lands `staleness` pops later.
  struct Pending {
    std::vector<float> grad;
    std::vector<float> w_bak;
  };
  std::deque<Pending> inflight;

  Model scratch = server_model;  // replica used to compute worker gradients
  DcAsgdResult result;
  double comp_sq_total = 0.0;
  std::size_t comp_terms = 0;

  const std::size_t rounds =
      rounds_per_epoch(data.train.size(), spec.workers, spec.batch_size);

  auto apply_update = [&](const Pending& p) {
    const auto eta = static_cast<float>(spec.learning_rate);
    const auto lambda = static_cast<float>(spec.lambda);
    for (std::size_t i = 0; i < dim; ++i) {
      const float g = p.grad[i];
      // Diagonal Hessian approximation: λ g² (w_now − w_bak).
      const float comp = lambda * g * g * (w[i] - p.w_bak[i]);
      w[i] -= eta * (g + comp);
      comp_sq_total += static_cast<double>(comp) * comp;
    }
    comp_terms += dim;
    ++result.updates;
  };

  for (std::size_t epoch = 1; epoch <= spec.max_epochs; ++epoch) {
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t worker = 0; worker < workers.size(); ++worker) {
        if (!worker_alive(worker, epoch, spec.fail_worker,
                          spec.fail_after_epoch)) {
          continue;
        }
        // Worker computes a gradient on the CURRENT server copy (w_bak = w).
        scratch.set_flat_params(w);
        compute_gradients(scratch, data.train,
                          workers[worker].next_batch(spec.batch_size),
                          serial_exec_context());
        Pending p;
        p.grad.reserve(dim);
        for (Tensor* g : scratch.grads()) {
          p.grad.insert(p.grad.end(), g->flat().begin(), g->flat().end());
        }
        p.w_bak = w;
        inflight.push_back(std::move(p));
        // The gradient that lands now was computed `staleness` steps ago.
        if (inflight.size() > spec.staleness) {
          apply_update(inflight.front());
          inflight.pop_front();
        }
      }
    }
    // Drain at the epoch boundary (synchronization point for evaluation).
    while (!inflight.empty()) {
      apply_update(inflight.front());
      inflight.pop_front();
    }
    server_model.set_flat_params(w);
    result.epochs.push_back(baseline_epoch_stats(
        epoch, static_cast<double>(epoch), server_model, data, spec.workers));
  }
  result.mean_compensation =
      comp_terms ? comp_sq_total / static_cast<double>(comp_terms) : 0.0;
  return result;
}

}  // namespace vcdl
