// Execution-context & threading regression suite.
//
// Pins down the determinism contract of the ExecContext plumbing:
//   * the serial path (worker_threads == 1, no pool) is bit-identical to the
//     pre-ExecContext implementation (hardcoded golden values),
//   * any pool width, called on the dispatching thread or nested inside a
//     pool task, gives the serial bits: forward outputs, every gradient, and
//     a whole run's trace digest, metrics and final params,
//   * activation caches exist only between a training forward and its
//     backward — inference forwards and clones carry none.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/wire_codec.hpp"
#include "core/local_sgd.hpp"
#include "core/trainer.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "tensor/exec_context.hpp"
#include "tensor/ops.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

// The shared miniature job + helpers (testing/oracles.hpp). The golden
// values below are pinned to tiny_image_spec — see its doc comment.
using testing::tiny_resnet;

ExperimentSpec tiny_spec() { return testing::tiny_image_spec(); }

// Logits and every gradient of two replicas after one training step must
// match bit for bit.
void expect_same_step(const Tensor& ya, Model& a, const Tensor& yb, Model& b) {
  ASSERT_TRUE(ya.shape() == yb.shape());
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
  const auto ga = a.grads();
  const auto gb = b.grads();
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t t = 0; t < ga.size(); ++t) {
    ASSERT_EQ(ga[t]->numel(), gb[t]->numel());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < ga[t]->numel(); ++i) {
      differing += (*ga[t])[i] != (*gb[t])[i];
    }
    EXPECT_EQ(differing, 0u) << "of " << ga[t]->numel()
                             << " values differ in grad tensor " << t;
  }
}

// A traced run of `spec` at a given pool width.
struct RunOutput {
  TraceDigest digest;
  TrainResult result;
};

RunOutput run_at(ExperimentSpec spec, std::size_t worker_threads) {
  spec.trace = true;
  spec.worker_threads = worker_threads;
  VcTrainer trainer(spec);
  TrainResult result = trainer.run();
  return {trainer.trace().digest(), std::move(result)};
}

// Lists which of trace digest (epoch count and virtual times included),
// metrics fingerprint, epoch accuracies and final params differ between two
// runs; empty when none does.
std::string run_difference(const RunOutput& a, const RunOutput& b) {
  std::ostringstream os;
  if (!(a.digest == b.digest)) {
    os << " trace digest (" << a.digest.to_string() << " vs "
       << b.digest.to_string() << ")";
  }
  if (a.result.metrics.fingerprint() != b.result.metrics.fingerprint()) {
    os << " metrics fingerprint";
  }
  const auto& ea = a.result.epochs;
  const auto& eb = b.result.epochs;
  for (std::size_t e = 0; e < std::min(ea.size(), eb.size()); ++e) {
    if (ea[e].mean_subtask_acc != eb[e].mean_subtask_acc ||
        ea[e].val_acc != eb[e].val_acc || ea[e].test_acc != eb[e].test_acc) {
      os << " epoch " << e + 1 << " accuracy";
    }
  }
  if (a.result.final_params != b.result.final_params) {
    os << " final params (hash " << std::hex << std::setfill('0')
       << std::setw(16) << params_hash(a.result.final_params) << " vs "
       << std::setw(16) << params_hash(b.result.final_params) << ")";
  }
  return os.str();
}

// --- Golden regression: serial path is bit-identical to the pre-PR seed ----
//
// Values captured from the seed commit (before the ExecContext refactor) by
// running the identical specs through run_experiment. EXPECT_DOUBLE_EQ: any
// change in float arithmetic order in the serial hot path trips these.

TEST(GoldenSerial, ConvRunMatchesPreRefactorSeedBitExactly) {
  const TrainResult r = run_experiment(tiny_spec());
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.epochs[0].end_time, 360.98574768936663);
  EXPECT_DOUBLE_EQ(r.epochs[0].mean_subtask_acc, 0.10546875);
  EXPECT_DOUBLE_EQ(r.epochs[0].val_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[0].test_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[1].end_time, 734.06203398916170);
  EXPECT_DOUBLE_EQ(r.epochs[1].mean_subtask_acc, 0.12109374999999999);
  EXPECT_DOUBLE_EQ(r.epochs[1].val_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[1].test_acc, 0.10000000000000001);
}

TEST(GoldenSerial, MlpRunMatchesPreRefactorSeedBitExactly) {
  ExperimentSpec spec = tiny_spec();
  spec.model_kind = ExperimentSpec::ModelKind::mlp;
  const TrainResult r = run_experiment(spec);
  ASSERT_EQ(r.epochs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.epochs[0].end_time, 360.98602395869995);
  EXPECT_DOUBLE_EQ(r.epochs[0].mean_subtask_acc, 0.0859375);
  EXPECT_DOUBLE_EQ(r.epochs[0].val_acc, 0.11666666666666667);
  EXPECT_DOUBLE_EQ(r.epochs[0].test_acc, 0.10000000000000001);
  EXPECT_DOUBLE_EQ(r.epochs[1].end_time, 734.06231026916157);
  EXPECT_DOUBLE_EQ(r.epochs[1].mean_subtask_acc, 0.1171875);
  EXPECT_DOUBLE_EQ(r.epochs[1].val_acc, 0.11666666666666667);
  EXPECT_DOUBLE_EQ(r.epochs[1].test_acc, 0.10000000000000001);
}

// --- Pool-vs-serial determinism at the model level -------------------------

TEST(ExecThreading, OneThreadPoolBitIdenticalToSerial) {
  Model serial = tiny_resnet(11);
  Model pooled = serial;  // identical weights
  ThreadPool pool(1);
  ExecContext pooled_ctx;
  pooled_ctx.pool = &pool;
  Rng rng(3);
  const Tensor x = Tensor::randn(Shape{6, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5};

  const Tensor ys = compute_gradients(serial, x, labels, serial_exec_context());
  const Tensor yp = compute_gradients(pooled, x, labels, pooled_ctx);
  expect_same_step(ys, serial, yp, pooled);
}

// One training step on a 4-thread pool, called on the dispatching thread and
// called inside a pool task, where every parallel region runs inline as one
// chunk over its whole range. Both give the serial step's bits.
TEST(ExecThreading, FourThreadTrainStepBitIdenticalToSerialDirectAndNested) {
  Model serial = tiny_resnet(17);
  Model pooled = serial;
  Model nested = serial;
  ThreadPool pool(4);
  ExecContext pooled_ctx;
  pooled_ctx.pool = &pool;
  ExecContext nested_ctx;
  nested_ctx.pool = &pool;
  Rng rng(5);
  const Tensor x = Tensor::randn(Shape{8, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5, 6, 7};

  const Tensor ys = compute_gradients(serial, x, labels, serial_exec_context());
  const Tensor yp = compute_gradients(pooled, x, labels, pooled_ctx);
  Tensor yn;
  pool.submit([&] {
        ASSERT_TRUE(pool.on_worker_thread());
        yn = compute_gradients(nested, x, labels, nested_ctx);
      })
      .get();
  expect_same_step(ys, serial, yp, pooled);
  expect_same_step(ys, serial, yn, nested);
}

// --- Pool-vs-serial determinism at the run level ---------------------------

TEST(ExecThreading, RunBitIdenticalAtOneTwoAndFourThreads) {
  const RunOutput serial = run_at(tiny_spec(), 1);
  for (const std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(run_difference(run_at(tiny_spec(), threads), serial), "")
        << threads << " threads";
  }
}

// The same over random miniature runs, fault-free and under chaos (faults,
// crashes, preemption, adversaries): a 3-thread pool reproduces the serial
// run. Few trials, because the TSan stage runs this suite too.
void expect_thread_count_invariant(const char* name, bool chaos) {
  testing::PropConfig cfg;
  cfg.name = name;
  cfg.suite = "test_exec_threading";
  cfg.trials = 3;
  cfg.max_size = 20;
  const testing::PropResult r =
      testing::run_property(cfg, [chaos](Rng& rng, int size) {
        const ExperimentSpec spec =
            testing::gen_experiment_spec(rng, size, chaos);
        const std::string diff =
            run_difference(run_at(spec, 3), run_at(spec, 1));
        testing::prop_assert(diff.empty(), spec.label() +
                                               " at 3 threads differs from "
                                               "serial in:" + diff);
      });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

TEST(ExecThreading, RandomRunsIndependentOfThreadCount) {
  expect_thread_count_invariant("exec.thread-count-invariance",
                                /*chaos=*/false);
  expect_thread_count_invariant("exec.thread-count-invariance-chaos",
                                /*chaos=*/true);
}

// --- Activation-cache lifecycle --------------------------------------------

TEST(CacheLifecycle, TrainingCachesInferenceDoesNot) {
  Model m = tiny_resnet(23);
  Rng rng(7);
  const Tensor x = Tensor::randn(Shape{4, 3, 8, 8}, rng);
  EXPECT_EQ(m.cache_bytes(), 0u);
  (void)m.forward(x, serial_exec_context(), /*training=*/true);
  const std::size_t trained = m.cache_bytes();
  EXPECT_GT(trained, 0u);
  // An inference pass must not just skip caching — it must free stale caches.
  (void)m.forward(x, serial_exec_context(), /*training=*/false);
  EXPECT_EQ(m.cache_bytes(), 0u);
}

TEST(CacheLifecycle, CloneCarriesNoCaches) {
  Model m = tiny_resnet(29);
  Rng rng(9);
  const Tensor x = Tensor::randn(Shape{4, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3};
  (void)compute_gradients(m, x, labels, serial_exec_context());
  ASSERT_GT(m.cache_bytes(), 0u);
  const Model clone = m;
  EXPECT_EQ(clone.cache_bytes(), 0u);
  // Same parameters though: the clone is a faithful replica.
  EXPECT_EQ(clone.flat_params(), m.flat_params());
}

TEST(CacheLifecycle, BackwardAfterInferenceForwardThrows) {
  Rng rng(13);
  Dense dense(4, 3, Init::he_normal, rng);
  const Tensor x = Tensor::randn(Shape{2, 4}, rng);
  (void)dense.forward(x, serial_exec_context(), /*training=*/false);
  EXPECT_THROW(dense.backward(Tensor(Shape{2, 3}),
                              serial_exec_context()), Error);

  Conv2D conv(1, 2, 3, 1, Init::he_normal, rng);
  const Tensor img = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  (void)conv.forward(img, serial_exec_context(), /*training=*/false);
  EXPECT_THROW(conv.backward(Tensor(Shape{2, 2, 4, 4}),
                             serial_exec_context()), Error);
}

TEST(CacheLifecycle, BackwardOnFreshCloneThrows) {
  Rng rng(31);
  Conv2D conv(1, 2, 3, 1, Init::he_normal, rng);
  const Tensor img = Tensor::randn(Shape{2, 1, 4, 4}, rng);
  (void)conv.forward(img, serial_exec_context(), /*training=*/true);
  const auto clone = conv.clone();
  EXPECT_THROW(clone->backward(Tensor(Shape{2, 2, 4, 4}),
                               serial_exec_context()), Error);
  // The original still has its cache and can run backward.
  (void)conv.backward(Tensor(Shape{2, 2, 4, 4}), serial_exec_context());
}

// --- Conv2D pool-vs-serial invariants --------------------------------------

TEST(Conv2DThreading, PoolForwardAndAllGradsBitIdenticalToSerial) {
  Rng rng(41);
  Conv2D serial(3, 4, 3, 1, Init::he_normal, rng);
  Conv2D pooled(serial);
  ThreadPool pool(3);
  ExecContext ctx;
  ctx.pool = &pool;
  const Tensor x = Tensor::randn(Shape{7, 3, 6, 6}, rng);
  const Tensor dy = Tensor::randn(Shape{7, 4, 6, 6}, rng);

  const Tensor ys = serial.forward(x, serial_exec_context(), /*training=*/true);
  const Tensor yp = pooled.forward(x, ctx, /*training=*/true);
  for (std::size_t i = 0; i < ys.numel(); ++i) EXPECT_EQ(ys[i], yp[i]);

  serial.zero_grads();
  pooled.zero_grads();
  const Tensor dxs = serial.backward(dy, serial_exec_context());
  const Tensor dxp = pooled.backward(dy, ctx);
  for (std::size_t i = 0; i < dxs.numel(); ++i) EXPECT_EQ(dxs[i], dxp[i]);
  // dW and db split by column, each element summed over the whole batch.
  for (std::size_t t = 0; t < 2; ++t) {
    const auto gs = serial.grads()[t]->flat();
    const auto gp = pooled.grads()[t]->flat();
    for (std::size_t i = 0; i < gs.size(); ++i) {
      EXPECT_EQ(gs[i], gp[i]) << "grad tensor " << t << " at " << i;
    }
  }
}

// --- ScratchArena ------------------------------------------------------------

TEST(ScratchArena, ReusesSlotsAndTracksBytes) {
  ScratchArena arena;
  Tensor& a = arena.get(0, Shape{4, 8});
  const float* storage = a.data();
  a.fill(3.0f);
  // Same slot, same shape: same tensor, same storage, contents preserved.
  Tensor& again = arena.get(0, Shape{4, 8});
  EXPECT_EQ(&again, &a);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(again[0], 3.0f);
  // Shrinking reshape keeps the allocation.
  Tensor& small = arena.get(0, Shape{2, 4});
  EXPECT_EQ(&small, &a);
  EXPECT_TRUE(small.shape() == (Shape{2, 4}));
  EXPECT_EQ(small.data(), storage);
  // Slots are independent and bytes() sums them.
  (void)arena.get(2, Shape{10});
  EXPECT_EQ(arena.slots(), 3u);
  EXPECT_EQ(arena.bytes(), (2 * 4 + 0 + 10) * sizeof(float));
  arena.release();
  EXPECT_EQ(arena.slots(), 0u);
  EXPECT_EQ(arena.bytes(), 0u);
}

// --- False-sharing guard ----------------------------------------------------

// Conv2D::backward accumulates each chunk's dW columns in a private block,
// and the blocks live in adjacent arena slots. If two chunks' blocks shared
// a cache line, every parallel backward would ping-pong that line between
// cores — a silent scaling killer that no correctness test catches. The
// Tensor backing store is 64-byte aligned precisely to rule this out; pin it.
TEST(ExecThreading, TensorStorageIsCacheLineAligned) {
  for (const Shape& s : {Shape{1}, Shape{3}, Shape{4, 9}, Shape{2, 3, 5, 7}}) {
    Tensor t(s);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u)
        << s.to_string();
  }
  // The arena hands out the same guarantee — these are the actual per-chunk
  // block allocations.
  ScratchArena arena;
  for (std::size_t slot = 0; slot < 8; ++slot) {
    Tensor& t = arena.get(slot, Shape{3});  // small: adjacent lines if packed
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % 64, 0u)
        << "slot " << slot;
  }
}

// --- SIMD tier vs model-level determinism ----------------------------------

// The contract behind the GoldenSerial pins above: whichever vector tier the
// host dispatches to, a full train step is bitwise the scalar result — not
// just per-GEMM, but through conv's im2col/col2im and the loss.
TEST(ExecThreading, ForcedScalarTierBitIdenticalToActiveTierTrainStep) {
  Model active = tiny_resnet(47);
  Model scalar = active;
  Rng rng(53);
  const Tensor x = Tensor::randn(Shape{6, 3, 8, 8}, rng);
  const std::vector<std::uint16_t> labels = {0, 1, 2, 3, 4, 5};

  const Tensor ya = compute_gradients(active, x, labels, serial_exec_context());
  ops::set_simd_tier_override(ops::SimdTier::scalar);
  const Tensor ys = compute_gradients(scalar, x, labels, serial_exec_context());
  ops::set_simd_tier_override(std::nullopt);
  expect_same_step(ya, active, ys, scalar);
}

}  // namespace
}  // namespace vcdl
