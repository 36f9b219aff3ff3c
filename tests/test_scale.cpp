// Scale stress: the grid machinery must stay correct (and fast) well beyond
// the paper's 5-client/50-subtask shape — hundreds of clients, thousands of
// workunits, aggressive preemption. The execute callback is a stub so this
// exercises the middleware, not the math.
#include <gtest/gtest.h>

#include "obs/snapshot.hpp"
#include "grid/client.hpp"
#include "grid/file_server.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"

namespace vcdl {
namespace {

struct NullBackend : AssimilatorBackend {
  SimEngine& engine;
  std::size_t done = 0;
  explicit NullBackend(SimEngine& e) : engine(e) {}
  void assimilate(ResultEnvelope, std::size_t,
                  std::function<void()> on_done) override {
    engine.schedule(0.3, [this, cb = std::move(on_done)] {
      ++done;
      cb();
    });
  }
};

TEST(Scale, HundredClientsThousandUnits) {
  SimEngine engine;
  TraceLog trace;
  trace.set_enabled(false);
  obs::Registry metrics;
  Scheduler scheduler(metrics);
  FileServer files(metrics);
  NetworkModel network;
  const FleetCatalog catalog = table1_catalog();
  GridServer server(engine, scheduler, trace, metrics, 8,
                    [](const Blob&) { return true; });
  NullBackend backend(engine);
  server.set_backend(&backend);

  files.publish("params", Blob(std::vector<std::uint8_t>(64, 1)), false);
  for (std::size_t sh = 0; sh < 16; ++sh) {
    files.publish("shard/" + std::to_string(sh),
                  Blob(std::vector<std::uint8_t>(64, 2)), false);
  }
  constexpr std::size_t kUnits = 1500;
  for (WorkunitId id = 1; id <= kUnits; ++id) {
    Workunit wu;
    wu.id = id;
    wu.shard = id % 16;
    wu.deadline_s = 1200.0;
    wu.inputs = {FileRef{"params", false},
                 FileRef{"shard/" + std::to_string(wu.shard), true}};
    scheduler.add_unit(wu);
  }

  const ExecuteFn exec = [](const Workunit&, ClientId) {
    return ExecOutcome{Blob(std::vector<std::uint8_t>(8, 9)), 40.0};
  };
  const auto fleet = make_client_fleet(catalog, 100, true, 0.2);
  std::vector<std::unique_ptr<SimClient>> clients;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    ClientConfig cfg;
    cfg.max_concurrent = 2;
    cfg.preemption.interruptions_per_hour = 0.2;
    cfg.preemption.downtime_s = 60.0;
    clients.push_back(std::make_unique<SimClient>(
        i, fleet[i], cfg, engine, network, catalog.server, files, scheduler,
        server, trace, metrics, Rng(1000 + i), exec));
    clients.back()->start();
  }
  bool running = true;
  std::function<void()> sweep = [&] {
    if (!running) return;
    (void)scheduler.expire_deadlines(engine.now());
    engine.schedule(30.0, sweep);
  };
  engine.schedule(30.0, sweep);

  // Drive until every unit is assimilated (or a generous cutoff).
  for (int rounds = 0; rounds < 4000 && backend.done < kUnits; ++rounds) {
    engine.run_until(engine.now() + 60.0);
  }
  running = false;
  for (auto& c : clients) c->stop();
  engine.run();

  EXPECT_EQ(backend.done, kUnits);
  EXPECT_TRUE(scheduler.all_done());
  // Faults actually happened along the way.
  EXPECT_GT(metrics.snapshot().counter("client.preemptions"), 0u);
}

TEST(Scale, EngineHandlesQuarterMillionEvents) {
  SimEngine engine;
  std::size_t fired = 0;
  Rng rng(3);
  for (int i = 0; i < 250000; ++i) {
    engine.schedule(rng.uniform(0.0, 1000.0), [&fired] { ++fired; });
  }
  engine.run();
  EXPECT_EQ(fired, 250000u);
}

}  // namespace
}  // namespace vcdl
