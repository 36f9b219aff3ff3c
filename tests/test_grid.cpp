#include <set>

#include <gtest/gtest.h>

#include "grid/client.hpp"
#include "grid/file_server.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"
#include "obs/snapshot.hpp"

namespace vcdl {
namespace {

Blob payload_of(std::size_t n) {
  return Blob(std::vector<std::uint8_t>(n, 0xAB));
}

// --- FileServer --------------------------------------------------------------

TEST(FileServer, PublishFetchVersion) {
  FileServer fs;
  fs.publish("a", payload_of(100), false);
  EXPECT_TRUE(fs.has("a"));
  EXPECT_EQ(fs.version("a"), 1u);
  EXPECT_EQ(fs.raw_size("a"), 100u);
  EXPECT_EQ(fs.wire_size("a"), 100u);
  fs.publish("a", payload_of(50), false);
  EXPECT_EQ(fs.version("a"), 2u);
  EXPECT_EQ(fs.raw_size("a"), 50u);
}

TEST(FileServer, CompressedWireSizeSmallerForRuns) {
  FileServer fs;
  fs.publish("runs", payload_of(10000), /*compress=*/true);
  EXPECT_LT(fs.wire_size("runs"), 1000u);
  EXPECT_EQ(fs.raw_size("runs"), 10000u);
  // A pull returns the uncompressed bytes.
  EXPECT_EQ(fs.pull("runs", 0).payload->size(), 10000u);
}

TEST(FileServer, MissingFileThrows) {
  FileServer fs;
  EXPECT_THROW(fs.pull("nope", 0), NotFound);
  EXPECT_THROW(fs.version("nope"), NotFound);
}

TEST(FileServer, StatsAccumulate) {
  obs::Registry metrics;
  FileServer fs(metrics);
  fs.publish("f", payload_of(1000), true);
  (void)fs.pull("f", 0);
  (void)fs.pull("f", 0);
  fs.record_cache_hit();
  const obs::MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counter("file_server.publishes"), 1u);
  EXPECT_EQ(s.counter("file_server.fetches"), 2u);
  EXPECT_EQ(s.counter("file_server.bytes_raw"), 2000u);
  EXPECT_LT(s.counter("file_server.bytes_wire"),
            s.counter("file_server.bytes_raw"));
  EXPECT_EQ(s.counter("file_server.cache_hits"), 1u);
}

// --- Scheduler ---------------------------------------------------------------

Workunit make_unit(WorkunitId id, std::size_t shard = 0,
                   SimTime deadline = 100.0, std::size_t replication = 1) {
  Workunit wu;
  wu.id = id;
  wu.epoch = 1;
  wu.shard = shard;
  wu.deadline_s = deadline;
  wu.replication = replication;
  wu.inputs = {FileRef{"shard/" + std::to_string(shard), true}};
  return wu;
}

TEST(Scheduler, AssignsUpToRequested) {
  Scheduler s;
  s.register_client(0);
  for (WorkunitId id = 1; id <= 5; ++id) s.add_unit(make_unit(id));
  const auto got = s.request_work(0, 3, 0.0);
  EXPECT_EQ(got.size(), 3u);
  EXPECT_EQ(s.ready_count(), 2u);
  EXPECT_EQ(s.inflight_count(), 3u);
}

TEST(Scheduler, UnregisteredClientThrows) {
  Scheduler s;
  EXPECT_THROW(s.request_work(9, 1, 0.0), Error);
}

TEST(Scheduler, DuplicateUnitIdThrows) {
  Scheduler s;
  s.add_unit(make_unit(1));
  EXPECT_THROW(s.add_unit(make_unit(1)), Error);
}

TEST(Scheduler, FirstResultWinsDuplicatesFlagged) {
  Scheduler s;
  s.register_client(0);
  s.register_client(1);
  s.add_unit(make_unit(1, 0, 100.0, /*replication=*/2));
  const auto a = s.request_work(0, 1, 0.0);
  const auto b = s.request_work(1, 1, 0.0);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_TRUE(s.report_result(0, 1, 10.0));
  EXPECT_FALSE(s.report_result(1, 1, 11.0));  // a duplicate
  EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, ReplicaNeverIssuedTwiceToSameClient) {
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1, 0, 100.0, /*replication=*/2));
  const auto first = s.request_work(0, 5, 0.0);
  EXPECT_EQ(first.size(), 1u);  // second replica withheld from same client
  const auto again = s.request_work(0, 5, 0.0);
  EXPECT_TRUE(again.empty());
}

TEST(Scheduler, DeadlineExpiryRequeues) {
  Scheduler s;
  s.register_client(0);
  s.register_client(1);
  s.add_unit(make_unit(1, 0, 50.0));
  (void)s.request_work(0, 1, 0.0);
  EXPECT_TRUE(s.expire_deadlines(49.0).empty());
  const auto expired = s.expire_deadlines(50.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  EXPECT_EQ(s.stats().timeouts, 1u);
  // The unit is assignable again (even to the client that missed it).
  const auto retry = s.request_work(1, 1, 60.0);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].id, 1u);
}

TEST(Scheduler, LateResultAfterTimeoutStillFirst) {
  Scheduler s;
  s.register_client(0);
  s.register_client(1);
  s.add_unit(make_unit(1, 0, 50.0));
  (void)s.request_work(0, 1, 0.0);
  (void)s.expire_deadlines(60.0);
  (void)s.request_work(1, 1, 61.0);
  // The original client's slow result arrives before the replacement's.
  EXPECT_TRUE(s.report_result(0, 1, 70.0));
  EXPECT_FALSE(s.report_result(1, 1, 80.0));
  EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, ReliabilityMovesWithOutcomes) {
  Scheduler s;
  s.register_client(0);
  const double initial = s.reliability(0);
  for (WorkunitId id = 1; id <= 5; ++id) {
    s.add_unit(make_unit(id, 0, 10.0));
    (void)s.request_work(0, 1, 0.0);
    s.report_result(0, id, 1.0);
  }
  EXPECT_GT(s.reliability(0), initial);
  s.add_unit(make_unit(99, 0, 10.0));
  (void)s.request_work(0, 1, 100.0);
  const double before = s.reliability(0);
  (void)s.expire_deadlines(200.0);
  EXPECT_LT(s.reliability(0), before);
}

TEST(Scheduler, StickyAffinityPreferred) {
  obs::Registry metrics;
  Scheduler s(metrics);
  s.register_client(0);
  s.note_cached(0, "shard/7");
  s.add_unit(make_unit(1, 3));
  s.add_unit(make_unit(2, 7));  // matches client 0's cache
  const auto got = s.request_work(0, 1, 0.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].shard, 7u);
  EXPECT_EQ(metrics.snapshot().counter("scheduler.affinity_hits"), 1u);
}

TEST(Scheduler, ReliabilityGateLimitsFlakyClients) {
  Scheduler s;
  s.set_reliability_gate(0.4);
  s.register_client(0);
  for (WorkunitId id = 1; id <= 8; ++id) s.add_unit(make_unit(id, 0, 10.0));
  // Fresh client (reliability 0.5) is above the gate: full grant.
  auto got = s.request_work(0, 4, 0.0);
  EXPECT_EQ(got.size(), 4u);
  // Miss all four deadlines: reliability collapses below the gate.
  (void)s.expire_deadlines(100.0);
  EXPECT_LT(s.reliability(0), 0.4);
  got = s.request_work(0, 4, 101.0);
  EXPECT_EQ(got.size(), 1u);  // gated to one unit per request
  // Returning results rebuilds trust and lifts the gate again.
  s.report_result(0, got[0].id, 102.0);
  for (int i = 0; i < 6; ++i) {
    const auto one = s.request_work(0, 1, 103.0 + i);
    if (one.empty()) break;
    s.report_result(0, one[0].id, 104.0 + i);
  }
  EXPECT_GT(s.reliability(0), 0.4);
  (void)s.request_work(0, 4, 200.0);
}

// --- Active-recovery fast paths ----------------------------------------------

TEST(Scheduler, ReadyQueueDropsRetiredReplicatedUnits) {
  Scheduler s;
  s.register_client(0);
  for (WorkunitId id = 1; id <= 16; ++id) {
    s.add_unit(make_unit(id, 0, 100.0, /*replication=*/2));
  }
  // One replica of each unit issued; the second replica of every unit stays
  // queued when the first result retires it.
  (void)s.request_work(0, 16, 0.0);
  EXPECT_EQ(s.ready_count(), 16u);
  for (WorkunitId id = 1; id <= 16; ++id) s.report_result(0, id, 1.0);
  EXPECT_TRUE(s.all_done());
  // Leak regression: retired ids used to sit in the ready deque forever and
  // get re-examined on every subsequent request.
  EXPECT_EQ(s.ready_count(), 0u);
}

TEST(Scheduler, ReportFailureRequeuesReplicaImmediately) {
  obs::Registry metrics;
  Scheduler s(metrics);
  s.register_client(0);
  s.register_client(1);
  s.add_unit(make_unit(1, 0, 1000.0));
  (void)s.request_work(0, 1, 0.0);
  const double before = s.reliability(0);
  s.report_failure(0, 1, 5.0);
  EXPECT_EQ(s.inflight_count(), 0u);
  EXPECT_EQ(metrics.snapshot().counter("scheduler.failure.fast_fail"), 1u);
  EXPECT_LT(s.reliability(0), before);  // same hit a timeout would cost
  // Requeued at once — no waiting out the 1000 s deadline.
  const auto got = s.request_work(1, 1, 6.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
  EXPECT_EQ(s.stats().timeouts, 0u);
}

TEST(Scheduler, ReportFailureAfterExpiryIsHarmless) {
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1, 0, 50.0));
  (void)s.request_work(0, 1, 0.0);
  (void)s.expire_deadlines(60.0);  // sweep wins the race
  s.report_failure(0, 1, 61.0);    // late abandon: no double-requeue
  const auto got = s.request_work(0, 1, 62.0);
  ASSERT_EQ(got.size(), 1u);
  s.report_result(0, 1, 63.0);
  EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, ReportInvalidPenalizesAndRequeues) {
  obs::Registry metrics;
  Scheduler s(metrics);
  s.register_client(0);
  s.add_unit(make_unit(1, 0, 1000.0));
  (void)s.request_work(0, 1, 0.0);
  const double before = s.reliability(0);
  s.report_invalid(0, 1, 5.0);
  EXPECT_EQ(metrics.snapshot().counter("scheduler.failure.invalid_result"), 1u);
  EXPECT_LT(s.reliability(0), before);
  EXPECT_FALSE(s.all_done());
  // The same client may retry (it is the only machine).
  const auto got = s.request_work(0, 1, 6.0);
  ASSERT_EQ(got.size(), 1u);
  s.report_result(0, 1, 7.0);
  EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, ReissueLostUnretiresUnit) {
  obs::Registry metrics;
  Scheduler s(metrics);
  s.register_client(0);
  s.add_unit(make_unit(1));
  s.add_unit(make_unit(2));
  (void)s.request_work(0, 2, 0.0);
  s.report_result(0, 1, 1.0);
  s.reissue_lost(1);
  EXPECT_FALSE(s.all_done());
  EXPECT_EQ(metrics.snapshot().counter("scheduler.failure.reissue_lost"), 1u);
  // Reissuing a unit that was never retired is a no-op (deadline recovery
  // owns pending units).
  s.reissue_lost(2);
  EXPECT_EQ(metrics.snapshot().counter("scheduler.failure.reissue_lost"), 1u);
  // The producing client itself can pick the unit back up — essential when
  // it is the only client in the fleet.
  const auto got = s.request_work(0, 1, 2.0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 1u);
  s.report_result(0, 1, 3.0);
  s.report_result(0, 2, 3.5);
  EXPECT_TRUE(s.all_done());
}

TEST(Scheduler, LateResultAfterExpiryIsDuplicateAndStillCredits) {
  Scheduler s;
  s.register_client(0);
  s.register_client(1);
  s.add_unit(make_unit(1, 0, 50.0));
  (void)s.request_work(0, 1, 0.0);
  (void)s.expire_deadlines(60.0);  // client 0 penalized for the miss
  const double after_timeout = s.reliability(0);
  (void)s.request_work(1, 1, 61.0);
  EXPECT_TRUE(s.report_result(1, 1, 70.0));   // replacement retires the unit
  EXPECT_FALSE(s.report_result(0, 1, 80.0));  // straggler: duplicate
  EXPECT_EQ(s.stats().results, 1u);
  EXPECT_TRUE(s.all_done());
  // The late upload still counts toward reliability — the machine is slow,
  // not lost, and it should be able to earn trust back.
  EXPECT_GT(s.reliability(0), after_timeout);
}

TEST(Scheduler, ReliabilityGateEarnBackAfterFailures) {
  obs::Registry metrics;
  Scheduler s(metrics);
  s.set_reliability_gate(0.4);
  s.register_client(0);
  for (WorkunitId id = 1; id <= 8; ++id) s.add_unit(make_unit(id, 0, 100.0));
  auto got = s.request_work(0, 4, 0.0);
  ASSERT_EQ(got.size(), 4u);
  for (const auto& wu : got) s.report_failure(0, wu.id, 1.0);
  EXPECT_EQ(metrics.snapshot().counter("scheduler.failure.fast_fail"), 4u);
  EXPECT_LT(s.reliability(0), 0.4);
  // Below the gate: one unit per request (the abandoned units are issuable
  // again immediately).
  got = s.request_work(0, 4, 2.0);
  ASSERT_EQ(got.size(), 1u);
  s.report_result(0, got[0].id, 3.0);
  while (s.reliability(0) < 0.4) {
    got = s.request_work(0, 1, 4.0);
    ASSERT_EQ(got.size(), 1u);
    s.report_result(0, got[0].id, 5.0);
  }
  // Trust earned back: full grants resume.
  got = s.request_work(0, 4, 6.0);
  EXPECT_EQ(got.size(), 4u);
}

TEST(Scheduler, NextDeadlineReported) {
  Scheduler s;
  s.register_client(0);
  s.add_unit(make_unit(1, 0, 30.0));
  s.add_unit(make_unit(2, 1, 80.0));
  (void)s.request_work(0, 2, 0.0);
  const auto next = s.next_deadline();
  ASSERT_TRUE(next.has_value());
  EXPECT_DOUBLE_EQ(*next, 30.0);
}

// --- GridServer + SimClient integration --------------------------------------

struct Harness {
  SimEngine engine;
  TraceLog trace;
  obs::Registry metrics;
  Scheduler scheduler{metrics};
  FileServer files{metrics};
  NetworkModel network;
  FleetCatalog catalog = table1_catalog();
  GridServer server{engine, scheduler, trace, metrics, 2,
                    [](const Blob& b) { return !b.empty(); }};

  // Records assimilations and finishes after a fixed service time.
  struct RecordingBackend : AssimilatorBackend {
    SimEngine& engine;
    std::vector<WorkunitId> seen;
    std::set<std::size_t> parameter_servers;  // ps_index of each assimilation
    explicit RecordingBackend(SimEngine& e) : engine(e) {}
    void assimilate(ResultEnvelope env, std::size_t ps_index,
                    std::function<void()> on_done) override {
      seen.push_back(env.unit.id);
      parameter_servers.insert(ps_index);
      engine.schedule(1.0, [cb = std::move(on_done)] { cb(); });
    }
  };
  RecordingBackend backend{engine};

  Harness() {
    server.set_backend(&backend);
    files.publish("arch", Blob(std::vector<std::uint8_t>(64, 1)), true);
    files.publish("params", Blob(std::vector<std::uint8_t>(256, 2)), true);
    for (std::size_t sh = 0; sh < 8; ++sh) {
      files.publish("shard/" + std::to_string(sh),
                    Blob(std::vector<std::uint8_t>(512, 3)), true);
    }
  }

  Workunit unit(WorkunitId id, std::size_t shard, SimTime deadline = 600.0) {
    Workunit wu = make_unit(id, shard, deadline);
    wu.inputs = {FileRef{"arch", true}, FileRef{"params", false},
                 FileRef{"shard/" + std::to_string(shard), true}};
    return wu;
  }

  std::unique_ptr<SimClient> make_client(ClientId id, ClientConfig cfg,
                                         ExecuteFn exec) {
    return std::make_unique<SimClient>(
        id, catalog.client_types[0], cfg, engine, network, catalog.server,
        files, scheduler, server, trace, metrics, Rng(id + 1),
        std::move(exec));
  }

  std::uint64_t count(const std::string& name) const {
    return metrics.snapshot().counter(name);
  }
};

ExecuteFn ok_exec(double work = 10.0) {
  return [work](const Workunit&, ClientId) {
    return ExecOutcome{Blob(std::vector<std::uint8_t>(32, 9)), work};
  };
}

TEST(GridIntegration, SingleClientCompletesUnits) {
  Harness h;
  for (WorkunitId id = 1; id <= 4; ++id) h.scheduler.add_unit(h.unit(id, id % 8));
  ClientConfig cfg;
  cfg.max_concurrent = 2;
  auto client = h.make_client(0, cfg, ok_exec());
  client->start();
  h.engine.run_until(sim_hours(1.0));
  client->stop();
  h.engine.run();
  EXPECT_TRUE(h.scheduler.all_done());
  EXPECT_EQ(h.backend.seen.size(), 4u);
  EXPECT_EQ(h.count("server.results_assimilated"), 4u);
  EXPECT_EQ(h.count("client.completed"), 4u);
}

TEST(GridIntegration, StickyFilesCachedAcrossUnits) {
  Harness h;
  // Two units on the same shard: second download hits the cache for arch+shard.
  h.scheduler.add_unit(h.unit(1, 5));
  h.scheduler.add_unit(h.unit(2, 5));
  ClientConfig cfg;
  cfg.max_concurrent = 1;
  auto client = h.make_client(0, cfg, ok_exec());
  client->start();
  h.engine.run_until(sim_hours(1.0));
  client->stop();
  h.engine.run();
  EXPECT_GE(h.count("file_server.cache_hits"), 2u);
}

TEST(GridIntegration, InvalidResultIsDroppedAndRecovered) {
  Harness h;
  h.scheduler.add_unit(h.unit(1, 0, /*deadline=*/120.0));
  ClientConfig cfg;
  int calls = 0;
  // First attempt returns an empty (invalid) payload; retry succeeds.
  ExecuteFn flaky = [&calls](const Workunit&, ClientId) {
    ++calls;
    if (calls == 1) return ExecOutcome{Blob(), 10.0};
    return ExecOutcome{Blob(std::vector<std::uint8_t>(8, 1)), 10.0};
  };
  auto client = h.make_client(0, cfg, flaky);
  client->start();
  // Pump deadline sweeps like the trainer does.
  std::function<void()> sweep = [&] {
    (void)h.scheduler.expire_deadlines(h.engine.now());
    if (!h.scheduler.all_done()) h.engine.schedule(30.0, sweep);
  };
  h.engine.schedule(30.0, sweep);
  h.engine.run_until(sim_hours(2.0));
  client->stop();
  h.engine.run();
  EXPECT_TRUE(h.scheduler.all_done());
  EXPECT_EQ(h.count("server.results_invalid"), 1u);
  EXPECT_EQ(h.count("server.results_assimilated"), 1u);
  // The invalid result is requeued immediately via report_invalid — recovery
  // no longer has to wait for the deadline sweep.
  EXPECT_EQ(h.count("scheduler.failure.invalid_result"), 1u);
  EXPECT_EQ(h.scheduler.stats().timeouts, 0u);
}

TEST(GridIntegration, PreemptionLosesInflightThenRecovers) {
  Harness h;
  for (WorkunitId id = 1; id <= 3; ++id) {
    h.scheduler.add_unit(h.unit(id, 0, /*deadline=*/200.0));
  }
  ClientConfig cfg;
  cfg.max_concurrent = 3;
  cfg.preemption.interruptions_per_hour = 60.0;  // aggressive: ~1/minute
  cfg.preemption.downtime_s = 30.0;
  auto client = h.make_client(0, cfg, ok_exec(500.0));  // long tasks
  client->start();
  std::function<void()> sweep = [&] {
    (void)h.scheduler.expire_deadlines(h.engine.now());
    if (!h.scheduler.all_done()) h.engine.schedule(20.0, sweep);
  };
  h.engine.schedule(20.0, sweep);
  h.engine.run_until(sim_hours(12.0));
  client->stop();
  h.engine.run();
  EXPECT_TRUE(h.scheduler.all_done());
  EXPECT_GT(h.count("client.preemptions"), 0u);
  EXPECT_GT(h.scheduler.stats().timeouts, 0u);
  EXPECT_EQ(h.backend.seen.size(), 3u);
  EXPECT_GT(h.trace.count(TraceKind::preempted), 0u);
}

TEST(GridIntegration, RoundRobinAcrossParameterServers) {
  Harness h;
  for (WorkunitId id = 1; id <= 6; ++id) h.scheduler.add_unit(h.unit(id, 0));
  ClientConfig cfg;
  cfg.max_concurrent = 6;
  auto client = h.make_client(0, cfg, ok_exec());
  client->start();
  h.engine.run_until(sim_hours(1.0));
  client->stop();
  h.engine.run();
  EXPECT_EQ(h.count("server.results_assimilated"), 6u);
  EXPECT_EQ(h.backend.parameter_servers, (std::set<std::size_t>{0, 1}));
}

TEST(GridIntegration, ReplicatedUnitSurvivesPreemptedHolder) {
  Harness h;
  Workunit wu = h.unit(1, 0, /*deadline=*/400.0);
  wu.replication = 2;
  h.scheduler.add_unit(wu);
  // Replica holder 0: long-running and violently preemptible — it will lose
  // its copy. Replica holder 1: quick and steady.
  ClientConfig flaky_cfg;
  flaky_cfg.preemption.interruptions_per_hour = 600.0;  // MTBF ~6 s
  flaky_cfg.preemption.downtime_s = 3600.0;             // stays down
  auto flaky = h.make_client(0, flaky_cfg, ok_exec(5000.0));
  auto steady = h.make_client(1, ClientConfig{}, ok_exec(10.0));
  flaky->start();
  steady->start();
  h.engine.run_until(sim_hours(1.0));
  flaky->stop();
  steady->stop();
  h.engine.run();
  // The surviving replica retires the unit; nothing waits for the deadline.
  EXPECT_TRUE(h.scheduler.all_done());
  EXPECT_EQ(h.count("server.results_assimilated"), 1u);
  EXPECT_EQ(h.backend.seen.size(), 1u);
  EXPECT_EQ(h.scheduler.stats().results, 1u);
}

TEST(GridServer, CrashDropsQueuedResultsAndRecovers) {
  Harness h;
  h.scheduler.register_client(0);
  for (WorkunitId id = 1; id <= 4; ++id) h.scheduler.add_unit(h.unit(id, 0));
  const auto units = h.scheduler.request_work(0, 4, 0.0);
  ASSERT_EQ(units.size(), 4u);
  for (const auto& wu : units) {
    EXPECT_TRUE(h.server.submit_result(0, wu, payload_of(8)));
  }
  // Two PS workers busy, two results queued, nothing assimilated yet.
  EXPECT_EQ(h.server.active_assimilations(), 2u);
  EXPECT_EQ(h.server.queued_results(), 2u);
  EXPECT_TRUE(h.scheduler.all_done());

  h.server.crash();
  EXPECT_FALSE(h.server.is_up());
  EXPECT_EQ(h.server.generation(), 1u);
  EXPECT_EQ(h.count("server.lost_results"), 4u);
  EXPECT_EQ(h.server.queued_results(), 0u);
  EXPECT_EQ(h.server.active_assimilations(), 0u);
  // All four accepted-but-unassimilated units are un-retired.
  EXPECT_EQ(h.count("scheduler.failure.reissue_lost"), 4u);
  EXPECT_FALSE(h.scheduler.all_done());
  // Uploads are rejected while down.
  EXPECT_FALSE(h.server.submit_result(0, h.unit(99, 0), payload_of(8)));
  EXPECT_EQ(h.count("server.rejected_down"), 1u);
  // Draining the engine fires the stale backend completions; the generation
  // guard must stop them from freeing slots or counting assimilations.
  h.engine.run();
  EXPECT_EQ(h.count("server.results_assimilated"), 0u);
  EXPECT_EQ(h.server.active_assimilations(), 0u);

  h.server.restore();
  EXPECT_TRUE(h.server.is_up());
  // The reissued units run again — the original producer included.
  const auto again = h.scheduler.request_work(0, 4, 100.0);
  ASSERT_EQ(again.size(), 4u);
  for (const auto& wu : again) {
    EXPECT_TRUE(h.server.submit_result(0, wu, payload_of(8)));
  }
  h.engine.run();
  EXPECT_TRUE(h.scheduler.all_done());
  EXPECT_EQ(h.count("server.results_assimilated"), 4u);
  EXPECT_EQ(h.trace.count(TraceKind::server_crash), 1u);
  EXPECT_EQ(h.trace.count(TraceKind::server_recovered), 1u);
}

TEST(GridServer, NoBackendIsAnError) {
  SimEngine engine;
  TraceLog trace;
  obs::Registry metrics;
  Scheduler scheduler(metrics);
  scheduler.register_client(0);
  GridServer server(engine, scheduler, trace, metrics, 1,
                    [](const Blob&) { return true; });
  Workunit wu = make_unit(1);
  scheduler.add_unit(wu);
  (void)scheduler.request_work(0, 1, 0.0);
  EXPECT_THROW(server.submit_result(0, wu, payload_of(4)), Error);
}

}  // namespace
}  // namespace vcdl
