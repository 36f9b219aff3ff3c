// Pieces the cluster-paradigm baselines share: the per-epoch stats every
// baseline reports, and, for the Downpour and EASGD workers, the data deal,
// the minibatch cursor and the fail-worker rule.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "core/eval.hpp"
#include "core/job.hpp"
#include "core/local_sgd.hpp"

namespace vcdl {

/// One worker's share of the training set and its place in it.
struct WorkerData {
  std::vector<std::size_t> order;
  std::size_t cursor = 0;

  /// The next `batch_size` indices (fewer at the end of `order`); the
  /// cursor then wraps to the start.
  std::span<const std::size_t> next_batch(std::size_t batch_size) {
    const std::size_t count = std::min(batch_size, order.size() - cursor);
    const std::span<const std::size_t> batch(order.data() + cursor, count);
    cursor = (cursor + count) % order.size();
    return batch;
  }
};

/// Shuffles 0..n-1 with `rng` and deals it round-robin: worker w gets the
/// shuffled positions w, w + workers, w + 2·workers, ...
inline std::vector<WorkerData> deal_indices(std::size_t n,
                                            std::size_t workers, Rng& rng) {
  std::vector<std::size_t> all = identity_order(n);
  rng.shuffle(all.begin(), all.end());
  std::vector<WorkerData> dealt(workers);
  for (std::size_t i = 0; i < all.size(); ++i) {
    dealt[i % workers].order.push_back(all[i]);
  }
  return dealt;
}

/// Round-robin rounds per epoch: each worker's share of `train_size` rows,
/// in batches.
inline std::size_t rounds_per_epoch(std::size_t train_size,
                                    std::size_t workers,
                                    std::size_t batch_size) {
  return (train_size / workers + batch_size - 1) / batch_size;
}

/// The fail-worker rule: worker `fail_worker` (none when negative) drops
/// out for good once `epoch` passes `fail_after_epoch`.
inline bool worker_alive(std::size_t worker, std::size_t epoch,
                         int fail_worker, std::size_t fail_after_epoch) {
  return fail_worker < 0 || static_cast<std::size_t>(fail_worker) != worker ||
         epoch <= fail_after_epoch;
}

/// A baseline epoch's stats: `model`'s validation and test accuracy, with
/// the subtask fields mirroring val_acc.
inline EpochStats baseline_epoch_stats(std::size_t epoch, SimTime end_time,
                                       Model& model, const SyntheticData& data,
                                       std::size_t results) {
  EpochStats es;
  es.epoch = epoch;
  es.end_time = end_time;
  es.val_acc = evaluate_accuracy(model, data.validation, serial_exec_context());
  es.test_acc = evaluate_accuracy(model, data.test, serial_exec_context());
  es.mean_subtask_acc = es.val_acc;
  es.min_subtask_acc = es.val_acc;
  es.max_subtask_acc = es.val_acc;
  es.results = results;
  return es;
}

}  // namespace vcdl
