// Supporting micro-benchmarks (google-benchmark): the substrate hot paths.
//
// Not a paper figure — these verify the building blocks are fast enough that
// the *modeled* latencies, not our implementation, dominate simulated
// behaviour: GEMM throughput, wire-codec speed and ratio, store update cost,
// the Eq. (1) blend, the sticky-affinity scheduler path, and what one
// parallel region of the worker pool costs.
#include <benchmark/benchmark.h>

#include <chrono>

#include "common/compress.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/vcasgd.hpp"
#include "data/synthetic.hpp"
#include "grid/scheduler.hpp"
#include "nn/model_zoo.hpp"
#include "storage/kvstore.hpp"
#include "tensor/ops.hpp"

namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  vcdl::Rng rng(1);
  const vcdl::Tensor a = vcdl::Tensor::randn(vcdl::Shape{n, n}, rng);
  const vcdl::Tensor b = vcdl::Tensor::randn(vcdl::Shape{n, n}, rng);
  vcdl::Tensor c;
  for (auto _ : state) {
    vcdl::ops::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_VcAsgdBlend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<float> server(n, 1.0f), client(n, 2.0f);
  for (auto _ : state) {
    vcdl::vcasgd_update(server, client, 0.95);
    benchmark::DoNotOptimize(server.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float) * 2));
}
BENCHMARK(BM_VcAsgdBlend)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_CompressShard(benchmark::State& state) {
  vcdl::SyntheticSpec spec;
  spec.train = 200;
  spec.validation = 10;
  spec.test = 10;
  const auto data = vcdl::make_synthetic_cifar(spec);
  const vcdl::Blob raw = data.train.encode();
  for (auto _ : state) {
    const vcdl::Blob packed = vcdl::compress(raw);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
  state.counters["ratio"] =
      static_cast<double>(vcdl::compress(raw).size()) /
      static_cast<double>(raw.size());
}
BENCHMARK(BM_CompressShard);

void BM_DecompressShard(benchmark::State& state) {
  vcdl::SyntheticSpec spec;
  spec.train = 200;
  spec.validation = 10;
  spec.test = 10;
  const auto data = vcdl::make_synthetic_cifar(spec);
  const vcdl::Blob packed = vcdl::compress(data.train.encode());
  for (auto _ : state) {
    const vcdl::Blob raw = vcdl::decompress(packed);
    benchmark::DoNotOptimize(raw.data());
  }
}
BENCHMARK(BM_DecompressShard);

void BM_StoreUpdate(benchmark::State& state, const char* name) {
  const auto store = vcdl::make_store(name);
  const std::vector<std::uint8_t> value(64 * 1024, 0x42);
  store->put("params", vcdl::Blob(std::vector<std::uint8_t>(value)), 0);
  for (auto _ : state) {
    store->update("params", [&value](const vcdl::Blob*) {
      return vcdl::Blob(std::vector<std::uint8_t>(value));
    });
  }
}
BENCHMARK_CAPTURE(BM_StoreUpdate, strong, "strong");
BENCHMARK_CAPTURE(BM_StoreUpdate, eventual, "eventual");

void BM_SchedulerRequest(benchmark::State& state) {
  const bool affinity = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    vcdl::Scheduler s;
    s.register_client(0);
    if (affinity) s.note_cached(0, "shard/500");
    for (vcdl::WorkunitId id = 1; id <= 1000; ++id) {
      vcdl::Workunit wu;
      wu.id = id;
      wu.shard = id - 1;
      wu.inputs = {{"shard/" + std::to_string(id - 1), true}};
      s.add_unit(wu);
    }
    state.ResumeTiming();
    auto units = s.request_work(0, 8, 0.0);
    benchmark::DoNotOptimize(units.data());
  }
}
BENCHMARK(BM_SchedulerRequest)->Arg(0)->Arg(1)
    ->ArgNames({"affinity"});

void BM_ResNetLiteForward(benchmark::State& state) {
  vcdl::Model model = vcdl::make_resnet_lite({}, 1);
  vcdl::Rng rng(2);
  const vcdl::Tensor x = vcdl::Tensor::randn(vcdl::Shape{10, 3, 12, 12}, rng);
  for (auto _ : state) {
    vcdl::Tensor y = model.forward(x, vcdl::serial_exec_context());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10);
}
BENCHMARK(BM_ResNetLiteForward);

// One parallel_for of 4 chunks on a pool of 4 participants, each chunk
// busy for `chunk_us` microseconds: 0 times the region's own cost, 10 how
// close four 10 µs chunks come to 10 µs. A training step opens about 20
// such regions (each conv layer in both directions, the Dense head's dW).
void BM_PoolRegion(benchmark::State& state) {
  const std::chrono::microseconds chunk_us(state.range(0));
  vcdl::ThreadPool pool(4);
  for (auto _ : state) {
    pool.parallel_for(0, 4, [&](std::size_t, std::size_t) {
      const auto until = std::chrono::steady_clock::now() + chunk_us;
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  }
}
BENCHMARK(BM_PoolRegion)->Arg(0)->Arg(10)->ArgNames({"chunk_us"})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
