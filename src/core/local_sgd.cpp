#include "core/local_sgd.hpp"

#include <algorithm>
#include <numeric>

#include "nn/loss.hpp"

namespace vcdl {

Tensor compute_gradients(Model& model, const Tensor& x,
                         std::span<const std::uint16_t> labels,
                         ExecContext& exec) {
  Tensor logits = model.forward(x, exec, /*training=*/true);
  const LossResult loss = softmax_cross_entropy(logits, labels);
  model.zero_grads();
  model.backward(loss.grad, exec);
  return logits;
}

Tensor compute_gradients(Model& model, const Dataset& data,
                         std::span<const std::size_t> idx, ExecContext& exec) {
  std::vector<std::uint16_t> labels(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) labels[i] = data.label(idx[i]);
  return compute_gradients(model, data.gather_tensor(idx), labels, exec);
}

void train_local(Model& model, Optimizer& optimizer, const Dataset& data,
                 std::span<std::size_t> order, std::size_t passes,
                 std::size_t batch_size, Rng& rng, ExecContext& exec) {
  for (std::size_t pass = 0; pass < passes; ++pass) {
    rng.shuffle(order.begin(), order.end());
    for (std::size_t first = 0; first < order.size(); first += batch_size) {
      const std::size_t count = std::min(batch_size, order.size() - first);
      compute_gradients(model, data, order.subspan(first, count), exec);
      optimizer.step(model);
    }
  }
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

}  // namespace vcdl
