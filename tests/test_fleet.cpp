// Fleet-scale regression suite (docs/SIMULATION.md §6).
//
// The 100k-client scaling work rebuilt the simulator's two hot structures —
// the engine's calendar event queue and the scheduler's assignment indexes —
// under a hard behavioral contract: same-seed runs stay bit-identical to the
// pre-index linear scans. This suite pins that contract from three sides:
//   * engine: compaction/slot-pool bookkeeping cannot change pending() or
//     firing order, and the calendar ring's window mechanics (far-heap
//     refill, ring laps, active-bucket inserts) preserve (time, seq) order;
//   * scheduler: the indexed state is cross-checked by check_invariants()
//     after every op of a randomized workload, and the checks are proven to
//     have teeth by the grid_hooks sabotage mutations;
//   * end to end: three pinned P5C5T2 goldens captured from the pre-index
//     scheduler — grant order, expiry order, reputation EMAs and final
//     parameters must reproduce every bit.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/wire_codec.hpp"
#include "core/trainer.hpp"
#include "grid/scheduler.hpp"
#include "grid/test_hooks.hpp"
#include "sim/engine.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

// --- engine: lazy compaction vs pending() and firing order ------------------

TEST(FleetEngine, PendingExcludesCancelledHeapSizeIncludesThem) {
  SimEngine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(engine.schedule(1.0 + i, [] {}));
  }
  EXPECT_EQ(engine.pending(), 10u);
  EXPECT_EQ(engine.heap_size(), 10u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(engine.cancel(ids[i]));
  // Below the compaction floor stale entries linger in the queue; pending()
  // must already exclude them.
  EXPECT_EQ(engine.pending(), 6u);
  EXPECT_EQ(engine.heap_size(), 10u);
  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.heap_size(), 0u);
  EXPECT_EQ(engine.executed(), 6u);
}

TEST(FleetEngine, CompactionBoundsQueueUnderScheduleCancelChurn) {
  // Schedule/cancel churn with a small survivor set: without the
  // stale-majority compaction the raw queue grows with every cancelled
  // event; with it, stale entries can never outnumber live ones (plus the
  // compaction floor) for long.
  SimEngine engine;
  Rng rng(0xf1ee7u);
  std::vector<EventId> live;
  int fired = 0;
  for (int round = 0; round < 4000; ++round) {
    const double when = 1.0 + rng.uniform(0.0, 400.0);
    live.push_back(engine.schedule(when, [&] { ++fired; }));
    // Cancel ~15/16 of what we schedule, keeping the live set small.
    if (live.size() > 16) {
      const std::size_t victim = rng.uniform_index(live.size());
      EXPECT_TRUE(engine.cancel(live[victim]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // The compaction rule: stale entries may be at most half the queue once
    // it is past the floor, so raw size is bounded by live entries, not by
    // cancel history.
    EXPECT_LE(engine.heap_size(), 2 * engine.pending() + 64)
        << "round " << round;
    EXPECT_EQ(engine.pending(), live.size()) << "round " << round;
  }
  EXPECT_GT(engine.compactions(), 0u);
  engine.run();
  EXPECT_EQ(fired, static_cast<int>(live.size()));
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.heap_size(), 0u);
}

TEST(FleetEngine, CompactionCannotReorderSurvivors) {
  // Interleave survivors and cancellations at colliding timestamps; the
  // survivors must fire in exact (time, seq) order however many compactions
  // happened in between.
  SimEngine engine;
  Rng rng(0xcafeu);
  struct Expected {
    double time;
    int tag;
  };
  std::vector<Expected> expected;
  std::vector<int> fired;
  std::vector<EventId> doomed;
  int tag = 0;
  for (int i = 0; i < 3000; ++i) {
    // Coarse timestamps force plenty of equal-time ties.
    const double when = 1.0 + static_cast<double>(rng.uniform_index(64));
    if (rng.bernoulli(0.8)) {
      doomed.push_back(engine.schedule(when, [] { FAIL(); }));
    } else {
      const int t = tag++;
      expected.push_back({when, t});
      engine.schedule(when, [&fired, t] { fired.push_back(t); });
    }
    if (doomed.size() > 8) {
      for (const EventId id : doomed) EXPECT_TRUE(engine.cancel(id));
      doomed.clear();
    }
  }
  for (const EventId id : doomed) EXPECT_TRUE(engine.cancel(id));
  // Scheduling order is seq order, so a stable sort on time alone gives the
  // required global firing order.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) {
                     return a.time < b.time;
                   });
  engine.run();
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].tag) << "position " << i;
  }
}

TEST(FleetEngine, SlotPoolRecyclesAcrossWaves) {
  // Waves of schedule+run must reuse the same slots instead of growing the
  // slab: the pool exists so fleet-scale churn allocates nothing per event.
  SimEngine engine;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 100; ++i) engine.schedule(0.5, [] {});
    engine.run();
  }
  EXPECT_LE(engine.slot_capacity(), 128u);
  EXPECT_EQ(engine.executed(), 5000u);
}

// --- engine: calendar-queue window mechanics --------------------------------

TEST(FleetEngine, FarWindowEventsFireInOrder) {
  // The ring covers 128 s; these spans force far-heap parking and multiple
  // refills as the window slides. Order must be pure (time, seq).
  SimEngine engine;
  Rng rng(0x5eedu);
  std::vector<double> fired;
  std::vector<double> expected;
  for (int i = 0; i < 500; ++i) {
    const double when = rng.uniform(0.0, 2000.0);  // ~15 window laps
    expected.push_back(when);
    engine.schedule(when, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  std::sort(expected.begin(), expected.end());
  engine.run();
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_DOUBLE_EQ(fired[i], expected[i]) << "position " << i;
  }
}

TEST(FleetEngine, RingLapCollisionStaysSorted) {
  // t and t + 256*0.5 share a ring slot (one full lap apart). The later lap
  // must stay parked while the earlier one drains, across several laps.
  SimEngine engine;
  std::vector<double> fired;
  for (const double base : {3.25, 67.75, 120.0}) {
    for (int lap = 3; lap >= 0; --lap) {  // schedule later laps first
      engine.schedule(base + 128.0 * lap,
                      [&fired, &engine] { fired.push_back(engine.now()); });
    }
  }
  engine.run();
  ASSERT_EQ(fired.size(), 12u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(FleetEngine, EventsScheduledIntoActiveBucketFire) {
  // An event firing at time t schedules another a fraction of a bucket later
  // — it lands in the already-heapified active bucket and must still fire,
  // in order, before the bucket is abandoned.
  SimEngine engine;
  std::vector<double> fired;
  engine.schedule(10.0, [&] {
    fired.push_back(engine.now());
    engine.schedule(0.1, [&] {
      fired.push_back(engine.now());
      engine.schedule(0.05, [&] { fired.push_back(engine.now()); });
    });
  });
  engine.schedule(10.3, [&] { fired.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_DOUBLE_EQ(fired.back(), 10.3);
}

TEST(FleetEngine, RunUntilThenResumeKeepsWindowConsistent) {
  // Stopping mid-window and resuming with new near events must not lose or
  // reorder anything (regression for the window/active-bucket handoff).
  SimEngine engine;
  std::vector<double> fired;
  for (const double t : {5.0, 50.0, 200.0, 400.0}) {
    engine.schedule(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  engine.run_until(60.0);
  EXPECT_EQ(fired.size(), 2u);
  // New events between now and the parked far events.
  engine.schedule_at(70.0, [&] { fired.push_back(engine.now()); });
  engine.schedule_at(300.0, [&] { fired.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(fired.size(), 6u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_DOUBLE_EQ(fired.back(), 400.0);
}

// --- scheduler: deadline expiry ---------------------------------------------

Workunit make_unit(WorkunitId id, std::size_t replication = 1,
                   SimTime deadline_s = 10.0,
                   std::vector<FileRef> inputs = {}) {
  Workunit u;
  u.id = id;
  u.inputs = std::move(inputs);
  u.deadline_s = deadline_s;
  u.replication = replication;
  return u;
}

TEST(FleetScheduler, DoubleExpireSameUnitOneSweep) {
  // Replication-2 unit held by two clients, both deadlines due in the same
  // sweep: each miss is penalized once, the unit is requeued exactly once,
  // and the indexes stay coherent.
  Scheduler s;
  s.register_client(1);
  s.register_client(2);
  s.add_unit(make_unit(7, /*replication=*/2, /*deadline_s=*/10.0));
  ASSERT_EQ(s.request_work(1, 1, 0.0).size(), 1u);
  ASSERT_EQ(s.request_work(2, 1, 0.0).size(), 1u);
  EXPECT_EQ(s.inflight_count(), 2u);
  EXPECT_EQ(s.ready_count(), 0u);
  const double before = s.availability(1);

  const std::vector<WorkunitId> expired = s.expire_deadlines(11.0);
  // Both assignments of the unit expired — the id is reported per miss.
  EXPECT_EQ(expired, (std::vector<WorkunitId>{7, 7}));
  EXPECT_EQ(s.inflight_count(), 0u);
  EXPECT_EQ(s.stats().timeouts, 2u);
  // Requeued once with both replicas issuable again.
  EXPECT_EQ(s.ready_count(), 1u);
  // Both clients take exactly one availability hit (same EMA step).
  EXPECT_LT(s.availability(1), before);
  EXPECT_DOUBLE_EQ(s.availability(1), s.availability(2));
  EXPECT_FALSE(s.next_deadline().has_value());
  s.check_invariants();

  // Both clients may run it again after the miss.
  EXPECT_EQ(s.request_work(1, 1, 12.0).size(), 1u);
  EXPECT_EQ(s.request_work(2, 1, 12.0).size(), 1u);
  s.check_invariants();
}

TEST(FleetScheduler, ExpiryTouchesOnlyDueAssignments) {
  // One due assignment among many far-future ones: the sweep must resolve
  // exactly the due one and leave the rest untouched (and still tracked).
  Scheduler s;
  for (ClientId c = 1; c <= 100; ++c) {
    s.register_client(c);
    s.add_unit(make_unit(c, 1, c == 1 ? 5.0 : 1000.0));
    ASSERT_EQ(s.request_work(c, 1, 0.0).size(), 1u);
  }
  EXPECT_EQ(s.inflight_count(), 100u);
  const std::vector<WorkunitId> expired = s.expire_deadlines(6.0);
  EXPECT_EQ(expired, (std::vector<WorkunitId>{1}));
  EXPECT_EQ(s.inflight_count(), 99u);
  EXPECT_EQ(s.stats().timeouts, 1u);
  ASSERT_TRUE(s.next_deadline().has_value());
  EXPECT_DOUBLE_EQ(*s.next_deadline(), 1000.0);
  s.check_invariants();
}

TEST(FleetScheduler, LateResultAfterExpiryStillRetiresUnit) {
  // The deadline fired and the replica was reissued, but the original
  // client's upload lands first anyway: it must still count as the first
  // result (the paper's late-but-valid case), not crash on a missing
  // assignment.
  Scheduler s;
  s.register_client(1);
  s.add_unit(make_unit(3, 1, 5.0));
  ASSERT_EQ(s.request_work(1, 1, 0.0).size(), 1u);
  EXPECT_EQ(s.expire_deadlines(6.0), (std::vector<WorkunitId>{3}));
  EXPECT_TRUE(s.report_result(1, 3, 7.0));
  EXPECT_TRUE(s.all_done());
  EXPECT_EQ(s.ready_count(), 0u);  // requeued replica retracted on retire
  s.check_invariants();
}

TEST(FleetScheduler, StaleDeadlineEntriesAreSweptNotReplayed) {
  // Assignments resolved through results leave orphaned deadline entries;
  // a later sweep past their deadlines must not penalize anyone.
  Scheduler s;
  s.register_client(1);
  for (WorkunitId u = 1; u <= 5; ++u) {
    s.add_unit(make_unit(u, 1, 10.0));
  }
  ASSERT_EQ(s.request_work(1, 5, 0.0).size(), 5u);
  for (WorkunitId u = 1; u <= 5; ++u) EXPECT_TRUE(s.report_result(1, u, 1.0));
  const double rep = s.availability(1);
  EXPECT_TRUE(s.expire_deadlines(100.0).empty());
  EXPECT_EQ(s.stats().timeouts, 0u);
  EXPECT_DOUBLE_EQ(s.availability(1), rep);
  EXPECT_EQ(s.deadline_heap_size(), 0u);
  s.check_invariants();
}

// --- scheduler: randomized invariant property -------------------------------

// Drives a scheduler through a randomized op mix — grants, results,
// fast-fails, invalid results, consensus holds, crash reissues, deadline
// sweeps, cache churn — and cross-checks every index after every op. All ops
// draw from registered clients and known units, so each call is legal API
// use whatever the interleaving; the point is that no sequence can drift the
// ready queue, sticky index, deadline heap, liveness slab or counters apart.
// Runs under the src/testing property harness: trials scale with VCDL_SOAK,
// a failure shrinks and prints a one-line replay command.
TEST(FleetScheduler, RandomizedOpsPreserveInvariants) {
  testing::PropConfig cfg;
  cfg.name = "fleet.scheduler-invariants";
  cfg.suite = "test_fleet";
  cfg.trials = 6;
  cfg.min_size = 2;
  cfg.max_size = 10;
  const testing::PropResult result = testing::run_property(cfg, [](Rng& rng,
                                                                  int size) {
    Scheduler s;
    if (rng.bernoulli(0.5)) {
      s.set_reliability_gate(0.3);
      s.enable_adaptive_replication({0.6, 3, 0.2}, rng.fork(99));
    }
    const std::size_t n_clients = 2 + static_cast<std::size_t>(size);
    const std::size_t n_units = 4 * static_cast<std::size_t>(size);
    const std::vector<std::string> files = {"shard0", "shard1", "model"};
    for (ClientId c = 1; c <= n_clients; ++c) s.register_client(c);
    for (WorkunitId u = 1; u <= n_units; ++u) {
      std::vector<FileRef> inputs;
      if (rng.bernoulli(0.6)) {
        inputs.push_back(
            FileRef{files[rng.uniform_index(files.size())], true, 0});
      }
      s.add_unit(make_unit(u, 1 + rng.uniform_index(3),
                           5.0 + rng.uniform(0.0, 40.0), std::move(inputs)));
    }
    s.check_invariants();  // throws Error → the harness records the trial

    // (client, unit) pairs granted at some point; replayed against every
    // report path — including after the assignment already resolved, which
    // each path must tolerate (late results, crash races).
    std::vector<std::pair<ClientId, WorkunitId>> granted;
    SimTime now = 0.0;
    for (int op = 0; op < 40 * size; ++op) {
      now += rng.uniform(0.0, 2.0);
      const ClientId client = 1 + rng.uniform_index(n_clients);
      switch (rng.uniform_index(10)) {
        case 0:
        case 1:
        case 2: {  // the fleet mostly polls
          for (const Workunit& u :
               s.request_work(client, 1 + rng.uniform_index(3), now)) {
            granted.emplace_back(client, u.id);
          }
          break;
        }
        case 3:
        case 4: {
          if (granted.empty()) break;
          const auto& [c, u] = granted[rng.uniform_index(granted.size())];
          s.report_result(c, u, now);
          break;
        }
        case 5: {
          if (granted.empty()) break;
          const auto& [c, u] = granted[rng.uniform_index(granted.size())];
          s.report_failure(c, u, now);
          break;
        }
        case 6: {
          if (granted.empty()) break;
          const auto& [c, u] = granted[rng.uniform_index(granted.size())];
          s.report_invalid(c, u, now);
          break;
        }
        case 7: {
          if (granted.empty()) break;
          const auto& [c, u] = granted[rng.uniform_index(granted.size())];
          // Consensus hold; half the time the buffer then "crashes" and the
          // held replica is reissued. reissue_replica is only legal for a
          // held replica (its assignment must already be resolved), so the
          // pair is exercised back to back, never split.
          s.report_replica(c, u);
          if (rng.bernoulli(0.5)) s.reissue_replica(u, c);
          break;
        }
        case 8: {
          if (rng.bernoulli(0.5)) {
            s.expire_deadlines(now + rng.uniform(0.0, 20.0));
          } else {
            const WorkunitId u = 1 + rng.uniform_index(n_units);
            s.reissue_lost(u);
          }
          break;
        }
        case 9: {
          if (rng.bernoulli(0.7)) {
            s.note_cached(client, files[rng.uniform_index(files.size())]);
          } else {
            s.clear_cache(client);
          }
          break;
        }
      }
      s.check_invariants();
    }
    // Drain: expire everything outstanding, then let one client finish the
    // job; the scheduler must land in the all-done state with empty indexes.
    s.expire_deadlines(1e9);
    s.check_invariants();
    int guard = 0;
    while (!s.all_done() && guard++ < 10000) {
      now += 1.0;
      const std::vector<Workunit> grants = s.request_work(1, 4, now);
      for (const Workunit& u : grants) {
        s.report_result(1, u.id, now);
      }
      if (grants.empty() && !s.all_done()) {
        // Units stranded where polling can't reach them: parked behind a
        // consensus hold (replica held, buffer never resolved) — possibly
        // still in the ready queue but held by this very client — with the
        // crash-recovery path as the only way to requeue them and release
        // the hold. Safe here: the big expiry above plus report-as-granted
        // means no assignment is live when a pass grants nothing.
        for (WorkunitId u = 1; u <= n_units; ++u) {
          if (!s.is_retired(u)) s.reissue_replica(u, 1);
        }
      }
      s.check_invariants();
    }
    testing::prop_assert(s.all_done(), "drain left unretired units");
    testing::prop_assert(s.ready_count() == 0 && s.inflight_count() == 0,
                         "drained scheduler still holds index entries");
  });
  EXPECT_TRUE(result.passed) << result.message << "\nreplay: " << result.repro;
}

// --- scheduler: mutation teeth for the invariant checks ---------------------

// Sets the sabotage flag for one scope; always clears it on exit so a
// throwing check_invariants cannot leak the mutation into later tests.
struct HookGuard {
  HookGuard(bool& flag, bool enable) : flag_(flag) { flag_ = enable; }
  ~HookGuard() { flag_ = false; }
  bool& flag_;
};

TEST(FleetScheduler, MutationDuplicateReadyEntryIsCaught) {
  // reissue_replica on a unit that is still queued calls push_ready while a
  // ready entry exists; the dedup guard normally makes that a no-op. The
  // sabotage hook skips the guard — the "no duplicate or stale ready entry"
  // invariant must catch the double entry.
  const auto run = [](bool sabotage) {
    Scheduler s;
    s.register_client(1);
    s.add_unit(make_unit(5, /*replication=*/2, 10.0));
    ASSERT_EQ(s.request_work(1, 1, 0.0).size(), 1u);
    s.report_replica(1, 5);  // parked in consensus, unit still ready
    HookGuard guard(grid_hooks::scheduler_duplicate_ready, sabotage);
    s.reissue_replica(5, 1);  // crash path: push_ready with entry present
    s.check_invariants();
  };
  EXPECT_NO_THROW(run(false));
  EXPECT_THROW(run(true), Error);
}

TEST(FleetScheduler, MutationDroppedIssuedHoldIsCaught) {
  // grant_unit "forgets" the issued_to hold: the client could be handed a
  // second replica of the same unit. The inflight invariant must fail.
  const auto run = [](bool sabotage) {
    Scheduler s;
    s.register_client(1);
    s.add_unit(make_unit(9, 1, 10.0));
    HookGuard guard(grid_hooks::scheduler_drop_issued_hold, sabotage);
    ASSERT_EQ(s.request_work(1, 1, 0.0).size(), 1u);
    s.check_invariants();
  };
  EXPECT_NO_THROW(run(false));
  EXPECT_THROW(run(true), Error);
}

// --- end to end: pinned same-seed goldens -----------------------------------

// Captured from the pre-index scheduler (linear-scan inflight table, deque
// ready queue, full-walk expiry) at P5C5T2 on the tiny image job. The fleet
// indexes must reproduce grant order, expiry order and reputation EMAs —
// and therefore every one of these bits. The strong-store case exercises the
// reliability gate and replication-2 grants; the delta case exercises a
// second codec over the identical schedule.
// Note: the metrics snapshot fingerprint is deliberately NOT pinned here —
// it hashes the registered metric *name set* too, and the scheduler unit
// tests above register extra counters (consensus spot-checks, replica-lost)
// in the process-global registry, so its value depends on which tests ran
// first. The trace digest covers every grant/expiry/result event and the
// params hash covers the training outcome; both are registry-independent.
struct FleetGolden {
  const char* codec;
  const char* store;
  double reliability_gate;
  std::size_t replication;
  std::uint64_t digest;
  std::uint64_t params;
  std::uint64_t events;
};
constexpr FleetGolden kPreIndexGoldens[] = {
    {"full", "eventual", 0.0, 1, 0xc7e8685d32a4f853ULL, 0x227709ecc6aa7e39ULL,
     152},
    {"delta", "eventual", 0.0, 1, 0x0cedd254c68b1703ULL, 0x227709ecc6aa7e39ULL,
     152},
    {"full", "strong", 0.4, 2, 0x53392eaa66a55937ULL, 0x2eb1e3e44cd678b7ULL,
     248},
};

TEST(FleetTrace, GrantOrderMatchesPreIndexGoldens) {
  for (const FleetGolden& g : kPreIndexGoldens) {
    ExperimentSpec spec = testing::tiny_image_spec(/*trace=*/true);
    spec.parameter_servers = 5;
    spec.clients = 5;
    spec.tasks_per_client = 2;
    spec.wire_codec = g.codec;
    spec.store = g.store;
    spec.reliability_gate = g.reliability_gate;
    spec.replication = g.replication;
    VcTrainer t(spec);
    const TrainResult r = t.run();
    EXPECT_EQ(t.trace().digest().hash, g.digest) << g.codec << "/" << g.store;
    EXPECT_EQ(params_hash(r.final_params), g.params)
        << g.codec << "/" << g.store;
    EXPECT_EQ(t.trace().digest().events, g.events) << g.codec << "/" << g.store;
  }
}

}  // namespace
}  // namespace vcdl
