// §IV-D — impact of the eventual-consistency database.
//
// Reproduces the paper's store comparison:
//   * per-update latency: Redis-like 0.87 s vs MySQL-like 1.29 s (1.5x);
//   * cumulative overhead: ~2,000 updates per CIFAR10-scale job ⇒ +14 min
//     with the strong store; ImageNet-scale (~1,600,000 updates) ⇒ +187 h;
//   * end-to-end: the same training job run against both stores — the strong
//     store loses nothing but takes longer; the eventual store drops a few
//     percent of updates with no material accuracy loss;
//   * raw in-memory throughput of the store under each consistency with real
//     concurrent threads (ours, not the paper's — shows the data structure
//     is not the bottleneck; the modeled transaction latency is).
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "storage/kvstore.hpp"

namespace {

double measure_throughput(vcdl::KvStore& store, int threads, int ops) {
  using clock = std::chrono::steady_clock;
  std::vector<std::uint8_t> value(4096, 0x5A);
  store.put("params", vcdl::Blob(std::vector<std::uint8_t>(value)), 0);
  const auto start = clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&store, &value, ops] {
      for (int i = 0; i < ops; ++i) {
        store.update("params", [&value](const vcdl::Blob*) {
          return vcdl::Blob(std::vector<std::uint8_t>(value));
        });
      }
    });
  }
  for (auto& t : pool) t.join();
  const double seconds =
      std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(threads) * ops / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Section IV-D — eventual vs strong consistency store",
                      "§IV-D (Redis vs MySQL parameter store)");
  const ExperimentSpec base = bench::base_spec(cfg, /*default_epochs=*/6);
  const int threads = static_cast<int>(cfg.get_int("threads", 4));
  const int ops = static_cast<int>(cfg.get_int("ops", 2000));
  cfg.reject_unread();

  // 1. Modeled per-update latency (calibrated to the paper's measurements).
  const auto redis = redis_like_latency();
  const auto mysql = mysql_like_latency();
  Table latency({"store", "read s", "write s", "update s", "vs eventual"});
  latency.add_row({"eventual (Redis-like)", Table::fmt(redis.read_s, 2),
                   Table::fmt(redis.write_s, 2), Table::fmt(redis.update_s(), 2),
                   "1.00x"});
  latency.add_row({"strong (MySQL-like)", Table::fmt(mysql.read_s, 2),
                   Table::fmt(mysql.write_s, 2), Table::fmt(mysql.update_s(), 2),
                   Table::fmt(mysql.update_s() / redis.update_s(), 2) + "x"});
  latency.print(std::cout);
  std::cout << "(paper: 0.87 s vs 1.29 s, 1.5x)\n\n";

  // 2. Cumulative overhead extrapolation (the paper's arithmetic).
  const double per_update_overhead = mysql.update_s() - redis.update_s();
  Table overhead({"workload", "updates", "strong-store overhead"});
  const auto fmt_hours = [](double seconds) {
    if (seconds < 3600.0) return Table::fmt(seconds / 60.0, 0) + " min";
    return Table::fmt(seconds / 3600.0, 0) + " h";
  };
  overhead.add_row({"CIFAR10-scale, 40 epochs", "2000",
                    fmt_hours(2000 * per_update_overhead)});
  overhead.add_row({"ImageNet-scale, 40 epochs", "1600000",
                    fmt_hours(1600000 * per_update_overhead)});
  overhead.print(std::cout);
  std::cout << "(paper: +14 min and +187 h)\n\n";

  // 3. End-to-end: same job against both stores.
  std::cout << "End-to-end P3C3T4 job on each store:\n";
  Table end2end({"store", "hours", "final acc", "lost updates", "writes"});
  for (const char* kind : {"eventual", "strong"}) {
    ExperimentSpec spec = base;
    spec.parameter_servers = 3;
    spec.clients = 3;
    spec.tasks_per_client = 4;
    spec.store = kind;
    const TrainResult r = run_experiment(spec);
    bench::print_run_summary(r);
    end2end.add_row({kind, Table::fmt(r.totals.duration_s / 3600.0, 2),
                     Table::fmt(r.final_epoch().mean_subtask_acc, 3),
                     Table::fmt(r.metrics.counter("store.lost_updates")),
                     Table::fmt(r.metrics.counter("store.writes"))});
  }
  std::cout << "\n";
  end2end.print(std::cout);

  // 4. Raw data-structure throughput with real threads.
  Table raw({"store", "threads", "updates/s (in-memory)"});
  for (const char* kind : {"eventual", "strong"}) {
    raw.add_row({kind, Table::fmt(static_cast<std::size_t>(threads)),
                 Table::fmt(measure_throughput(*make_store(kind), threads, ops),
                            0)});
  }
  std::cout << "\n";
  raw.print(std::cout);
  std::cout << "(in-memory structure cost is negligible against the modeled "
               "0.87/1.29 s transaction latencies)\n";
  return 0;
}
