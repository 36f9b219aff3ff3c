// Hot-path throughput — training steps/sec vs worker-pool width.
//
// Measures the ExecContext-threaded forward/backward path (DESIGN.md
// "Execution & threading model") on a CIFAR-scale resnet_lite, sweeping the
// training step's pool over {1, 2, 4, 8} threads. Thread count 1 uses no pool
// at all — it is the serial bit-exact reference path. Writes BENCH_hotpath.json
// (schema v3, consumed by EXPERIMENTS.md) next to the working directory.
//
// The sweep is capped at the host's hardware threads by default: a width
// beyond the core count measures scheduler context-switching, not scaling —
// exactly the mistake the committed v1 numbers encoded (a 1-core host
// "showing" 8-thread slowdown). Pass oversub=1 to include the over-wide rows
// anyway; they are marked "oversubscribed": true in the JSON so downstream
// readers can never mistake them for a scaling regression.
//
// Overrides: batch=32 steps=20 warmup=3 base_filters=16 blocks=2 image=32
//            oversub=0 smoke=0
//
// smoke=1 shrinks the job to seconds and exits nonzero if the pooled path is
// slower than serial at the widest non-oversubscribed width — the CI guard
// against reintroducing a thread-scaling regression (ci/sanitize.sh).
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "core/local_sgd.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "tensor/exec_context.hpp"
#include "tensor/ops.hpp"

namespace {

struct ThreadResult {
  std::size_t threads = 1;
  double steps_per_sec = 0.0;
  double speedup_vs_1 = 0.0;
  bool oversubscribed = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const bool oversub = cfg.get_bool("oversub", false);
  bench::print_header("Hot-path throughput — steps/sec vs pool width",
                      "execution-context layer (not a paper figure)");

  // Smoke mode: CI-sized job. Small enough to finish in seconds under a
  // sanitizer, big enough that the pooled path's win/loss is not noise.
  const auto batch =
      static_cast<std::size_t>(cfg.get_int("batch", smoke ? 16 : 32));
  const auto steps =
      static_cast<std::size_t>(cfg.get_int("steps", smoke ? 4 : 20));
  const auto warmup =
      static_cast<std::size_t>(cfg.get_int("warmup", smoke ? 1 : 3));
  const auto image =
      static_cast<std::size_t>(cfg.get_int("image", smoke ? 16 : 32));

  ResNetLiteSpec spec;
  spec.channels = 3;
  spec.height = image;
  spec.width = image;
  spec.base_filters =
      static_cast<std::size_t>(cfg.get_int("base_filters", smoke ? 8 : 16));
  spec.blocks = static_cast<std::size_t>(cfg.get_int("blocks", smoke ? 1 : 2));
  const std::string json_path = cfg.get_string("out", "BENCH_hotpath.json");
  cfg.reject_unread();

  // Fixed input batch: contents don't matter for throughput, determinism does.
  Rng rng(7);
  const Tensor x =
      Tensor::randn(Shape{batch, spec.channels, spec.height, spec.width}, rng);
  std::vector<std::uint16_t> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    labels[i] = static_cast<std::uint16_t>(i % spec.classes);
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<ThreadResult> results;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const bool over = threads > hw;
    if (over && !oversub) continue;
    Model model = make_resnet_lite(spec, /*seed=*/42);
    auto optimizer = make_optimizer("sgd", 0.01);
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    ExecContext exec;
    exec.pool = pool.get();

    // The minibatch step training runs (core/local_sgd.hpp).
    auto step = [&] {
      compute_gradients(model, x, labels, exec);
      optimizer->step(model);
    };
    for (std::size_t i = 0; i < warmup; ++i) step();

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < steps; ++i) step();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();

    ThreadResult r;
    r.threads = threads;
    r.steps_per_sec = static_cast<double>(steps) / secs;
    r.oversubscribed = over;
    results.push_back(r);
  }
  for (ThreadResult& r : results) {
    r.speedup_vs_1 = r.steps_per_sec / results.front().steps_per_sec;
  }

  const char* simd = ops::simd_tier_name(ops::active_simd_tier());
  Table table({"threads", "steps/sec", "speedup vs 1", "note"});
  for (const ThreadResult& r : results) {
    table.add_row({Table::fmt(r.threads), Table::fmt(r.steps_per_sec, 3),
                   Table::fmt(r.speedup_vs_1, 2),
                   r.oversubscribed ? "oversubscribed" : ""});
  }
  table.print(std::cout);
  std::cout << "\nhardware_threads=" << hw << "  simd=" << simd
            << "  build=" << VCDL_BENCH_BUILD_TYPE
            << (hw < 4 ? "  (speedup capped by host core count)" : "") << "\n";

  // Schema v2: sweep capped at hardware_threads unless oversub=1, rows carry
  // "oversubscribed", and the dispatched SIMD tier is recorded. v1 files had
  // neither — their multi-thread rows on a 1-core host measured pure
  // context-switch overhead and are not comparable. v3 adds the CMake build
  // type, which fixes the optimization level the steps ran at.
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"schema_version\": 3,\n"
      << "  \"bench\": \"hotpath\",\n"
      << "  \"model\": \"resnet_lite\",\n"
      << "  \"image\": " << image << ",\n"
      << "  \"base_filters\": " << spec.base_filters << ",\n"
      << "  \"blocks\": " << spec.blocks << ",\n"
      << "  \"batch\": " << batch << ",\n"
      << "  \"steps\": " << steps << ",\n"
      << "  \"warmup\": " << warmup << ",\n"
      << "  \"hardware_threads\": " << hw << ",\n"
      << "  \"simd\": \"" << simd << "\",\n"
      << "  \"build_type\": \"" << VCDL_BENCH_BUILD_TYPE << "\",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ThreadResult& r = results[i];
    out << "    {\"threads\": " << r.threads
        << ", \"steps_per_sec\": " << r.steps_per_sec
        << ", \"speedup_vs_1\": " << r.speedup_vs_1 << ", \"oversubscribed\": "
        << (r.oversubscribed ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";

  if (smoke) {
    // CI gate: the widest in-core pool must not lose to serial. On a 1-core
    // host only the serial row exists and the gate passes trivially (there is
    // nothing to scale into).
    const ThreadResult* widest = nullptr;
    for (const ThreadResult& r : results) {
      if (!r.oversubscribed) widest = &r;
    }
    if (widest != nullptr && widest->threads > 1 && widest->speedup_vs_1 < 1.0) {
      std::cerr << "SMOKE FAIL: " << widest->threads
                << "-thread speedup_vs_1 = " << widest->speedup_vs_1
                << " < 1.0 — the pooled hot path is slower than serial\n";
      return 1;
    }
    std::cout << "smoke: pooled path >= serial at every in-core width\n";
  }
  return 0;
}
