// Focused SimClient behaviour tests: polling cadence, concurrency limits,
// cache lifecycle across preemptions, stop semantics, jitter determinism.
#include <gtest/gtest.h>

#include "grid/client.hpp"
#include "grid/file_server.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"
#include "obs/snapshot.hpp"

namespace vcdl {
namespace {

struct CountingBackend : AssimilatorBackend {
  SimEngine& engine;
  std::size_t count = 0;
  explicit CountingBackend(SimEngine& e) : engine(e) {}
  void assimilate(ResultEnvelope, std::size_t,
                  std::function<void()> on_done) override {
    ++count;
    engine.schedule(0.5, [cb = std::move(on_done)] { cb(); });
  }
};

struct ClientHarness {
  SimEngine engine;
  TraceLog trace;
  obs::Registry metrics;
  Scheduler scheduler{metrics};
  FileServer files{metrics};
  NetworkModel network;
  FleetCatalog catalog = table1_catalog();
  GridServer server{engine, scheduler, trace, metrics, 1,
                    [](const Blob& b) { return !b.empty(); }};
  CountingBackend backend{engine};

  ClientHarness() {
    server.set_backend(&backend);
    files.publish("arch", Blob(std::vector<std::uint8_t>(32, 1)), true);
    files.publish("params", Blob(std::vector<std::uint8_t>(128, 2)), true);
    files.publish("shard/0", Blob(std::vector<std::uint8_t>(256, 3)), true);
  }

  void add_units(std::size_t n, SimTime deadline = 900.0) {
    for (WorkunitId id = 1; id <= n; ++id) {
      Workunit wu;
      wu.id = id;
      wu.epoch = 1;
      wu.shard = 0;
      wu.deadline_s = deadline;
      wu.inputs = {FileRef{"arch", true}, FileRef{"params", false},
                   FileRef{"shard/0", true}};
      scheduler.add_unit(wu);
    }
  }

  std::unique_ptr<SimClient> make(ClientConfig cfg, double work = 50.0,
                                  std::uint64_t seed = 1) {
    return std::make_unique<SimClient>(
        0, catalog.client_types[0], cfg, engine, network, catalog.server,
        files, scheduler, server, trace, metrics, Rng(seed),
        [work](const Workunit&, ClientId) {
          return ExecOutcome{Blob(std::vector<std::uint8_t>(16, 7)), work};
        });
  }

  std::uint64_t count(const std::string& name) const {
    return metrics.snapshot().counter(name);
  }
  /// Summed virtual execution time of every subtask the clients ran.
  double busy_s() const {
    return metrics.snapshot().histograms.at("client.subtask_exec_s").sum;
  }
};

TEST(SimClientTest, ConcurrencyNeverExceedsTn) {
  ClientHarness h;
  h.add_units(12);
  ClientConfig cfg;
  cfg.max_concurrent = 3;
  auto client = h.make(cfg);
  client->start();
  // Step through the whole run, checking the invariant at every event.
  std::size_t peak = 0;
  while (h.engine.step()) {
    peak = std::max(peak, client->active_subtasks());
    ASSERT_LE(client->active_subtasks(), 3u);
    if (h.scheduler.all_done()) client->stop();
  }
  EXPECT_EQ(peak, 3u);  // the limit is actually reached
  EXPECT_EQ(h.count("client.completed"), 12u);
}

TEST(SimClientTest, IdleClientPollsAtConfiguredInterval) {
  ClientHarness h;  // no units
  ClientConfig cfg;
  cfg.poll_interval_s = 30.0;
  auto client = h.make(cfg);
  client->start();
  h.engine.run_until(301.0);
  client->stop();
  h.engine.run();
  // ~10 polls in 300 s; nothing completed, nothing downloaded.
  EXPECT_EQ(h.count("client.completed"), 0u);
  EXPECT_EQ(h.count("file_server.fetches"), 0u);
}

TEST(SimClientTest, CacheWarmsAcrossSequentialUnits) {
  ClientHarness h;
  h.add_units(2, /*deadline=*/120.0);
  ClientConfig cfg;
  cfg.max_concurrent = 1;
  cfg.preemption.interruptions_per_hour = 0.0;  // manual control below
  auto client = h.make(cfg, /*work=*/50.0);
  client->start();
  h.engine.run_until(400.0);
  // First unit(s) done with warm cache.
  const auto hits_before = h.count("file_server.cache_hits");
  EXPECT_GT(hits_before, 0u);
  client->stop();
  h.engine.run();
  EXPECT_TRUE(h.scheduler.all_done());
}

TEST(SimClientTest, StopCancelsEverythingPending) {
  ClientHarness h;
  h.add_units(4);
  ClientConfig cfg;
  cfg.max_concurrent = 2;
  auto client = h.make(cfg, /*work=*/5000.0);  // long tasks
  client->start();
  h.engine.run_until(10.0);  // mid-download/exec
  client->stop();
  h.engine.run();  // must drain instantly — no lingering events
  EXPECT_LT(h.engine.now(), 3600.0);
  EXPECT_EQ(h.count("client.completed"), 0u);
}

TEST(SimClientTest, ForgetsEventsOnceTheyRun) {
  ClientHarness h;
  h.add_units(40);
  ClientConfig cfg;
  cfg.max_concurrent = 2;
  auto client = h.make(cfg);
  client->start();
  // Every event the client scheduled has run, been cancelled or is still in
  // the engine's queue; only the last kind may stay tracked.
  while (!h.scheduler.all_done() && h.engine.step()) {
    ASSERT_LE(client->pending_events(), h.engine.pending());
  }
  EXPECT_EQ(h.count("client.completed"), 40u);
  client->stop();
  EXPECT_EQ(client->pending_events(), 0u);
}

TEST(SimClientTest, ExecJitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    ClientHarness h;
    h.add_units(5);
    ClientConfig cfg;
    cfg.max_concurrent = 2;
    auto client = h.make(cfg, 50.0, seed);
    client->start();
    h.engine.run_until(sim_hours(2.0));
    client->stop();
    h.engine.run();
    return h.busy_s();
  };
  EXPECT_DOUBLE_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

TEST(SimClientTest, BusyTimeAccountsForAllExecutions) {
  ClientHarness h;
  h.add_units(6);
  ClientConfig cfg;
  cfg.max_concurrent = 2;
  cfg.compute.exec_jitter_sigma = 0.0;  // deterministic for the arithmetic
  auto client = h.make(cfg, /*work=*/44.0);  // 44/(2.2*2) = 10 s per task
  client->start();
  h.engine.run_until(sim_hours(1.0));
  client->stop();
  h.engine.run();
  EXPECT_EQ(h.count("client.completed"), 6u);
  EXPECT_NEAR(h.busy_s(), 6 * 10.0, 1e-6);
}

TEST(SimClientTest, RejectsBadConfig) {
  ClientHarness h;
  ClientConfig cfg;
  cfg.max_concurrent = 0;
  EXPECT_THROW(h.make(cfg), Error);
  // A zero interval re-polls a full client at the same instant forever.
  cfg = ClientConfig{};
  cfg.poll_interval_s = 0.0;
  EXPECT_THROW(h.make(cfg), Error);
}

}  // namespace
}  // namespace vcdl
