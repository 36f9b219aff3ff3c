// Execution context for the training hot path.
//
// An ExecContext bundles the two resources the compute-heavy layers share: a
// worker pool that Conv2D splits its batch over, and a scratch arena of
// reusable tensors that removes per-step allocation churn from
// forward/backward. One context is owned per training driver — a grid
// client, an assimilator's validator, a bench loop — and threaded by
// reference through Model::forward/backward into every Layer. Layers never
// own pools or scratch, so model clones stay cheap and the degree of
// parallelism remains a per-driver runtime decision.
//
// Determinism contract (see DESIGN.md "Execution & threading model"):
//   * any pool width, called on the dispatching thread or nested inside a
//     pool task, is bit-identical to the serial kernels: every output and
//     gradient element is produced whole by exactly one worker, in the
//     serial arithmetic order (Conv2D splits the batch for y and dX, dW by
//     column and db by channel; every GEMM runs whole on the thread that
//     calls it);
//   * the SIMD tier is NOT part of the contract's state: the AVX2 GEMM tier
//     preserves the scalar reference's per-element mul-then-add sequence,
//     zero A elements included, and never contracts mul+add into FMA, so
//     scalar and AVX2 produce bitwise-equal results (enforced by
//     tests/test_kernels.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace vcdl {

class ThreadPool;

/// Slot-addressed pool of reusable scratch tensors. `get` hands out the same
/// storage every step, resizing in place (which reallocates only on growth),
/// so steady-state training does no scratch allocation at all.
///
/// Not thread-safe: borrow every buffer on the coordinating thread *before*
/// fanning work out to a pool; the returned references stay valid until
/// release() (slots are held behind stable pointers). Each slot is a Tensor,
/// whose backing store is 64-byte aligned (CacheAlignedAllocator), so two
/// adjacent slots used as per-chunk blocks can never false-share a cache
/// line.
class ScratchArena {
 public:
  /// Borrows slot `slot` resized to `shape`. Contents are unspecified.
  Tensor& get(std::size_t slot, const Shape& shape);

  std::size_t slots() const { return slots_.size(); }
  /// Total bytes currently held across all slots.
  std::size_t bytes() const;
  /// Drops all slots (e.g. a simulated preemption wiping local memory).
  void release();

 private:
  std::vector<std::unique_ptr<Tensor>> slots_;
};

struct ExecContext {
  ThreadPool* pool = nullptr;  // nullptr ⇒ single-threaded
  ScratchArena arena;
};

/// Shared serial context (no pool) for callers that own no pool;
/// thread-local so concurrent callers — e.g. store benches driving models
/// from real threads — never race on it.
ExecContext& serial_exec_context();

}  // namespace vcdl
