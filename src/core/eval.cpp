#include "core/eval.hpp"

#include <algorithm>
#include <numeric>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace vcdl {

double evaluate_accuracy(Model& model, const Dataset& ds, ExecContext& ctx,
                         std::size_t batch_size) {
  VCDL_CHECK(!ds.empty(), "evaluate_accuracy: empty dataset");
  std::size_t correct_weighted = 0;
  for (std::size_t first = 0; first < ds.size(); first += batch_size) {
    const std::size_t count = std::min(batch_size, ds.size() - first);
    const Tensor logits =
        model.forward(ds.batch_tensor(first, count), ctx, false);
    correct_weighted += static_cast<std::size_t>(
        accuracy(logits, ds.batch_labels(first, count)) *
            static_cast<double>(count) + 0.5);
  }
  return static_cast<double>(correct_weighted) / static_cast<double>(ds.size());
}

double evaluate_accuracy_subsample(Model& model, const Dataset& ds,
                                   std::size_t subsample, Rng& rng,
                                   ExecContext& ctx, std::size_t batch_size) {
  if (subsample == 0 || subsample >= ds.size()) {
    return evaluate_accuracy(model, ds, ctx, batch_size);
  }
  std::vector<std::size_t> indices(ds.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // Partial Fisher–Yates: draw `subsample` distinct indices.
  for (std::size_t i = 0; i < subsample; ++i) {
    const std::size_t j = i + rng.uniform_index(indices.size() - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(subsample);
  std::size_t correct = 0;
  for (std::size_t first = 0; first < indices.size(); first += batch_size) {
    const std::size_t count = std::min(batch_size, indices.size() - first);
    std::span<const std::size_t> slice(indices.data() + first, count);
    const Tensor logits = model.forward(ds.gather_tensor(slice), ctx, false);
    for (std::size_t b = 0; b < count; ++b) {
      const auto row = logits.flat().subspan(b * ds.classes(), ds.classes());
      if (ops::argmax(row) == ds.label(slice[b])) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(subsample);
}

}  // namespace vcdl
