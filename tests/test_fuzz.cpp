// Randomized property tests over the infrastructure: random operation
// sequences against the scheduler, the event engine, the wire codec, the
// parameter stores (single-threaded vs a shadow model AND genuinely
// concurrent) and the VC-ASGD assimilator — checking invariants rather than
// specific outputs.
//
// All suites run through the vcdl::testing property harness: failures shrink
// to a minimal (seed, size) and print a VCDL_PROP replay command, and trial
// counts scale with VCDL_SOAK for the sanitizer soak tier (ci/soak.sh).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/compress.hpp"
#include "common/rng.hpp"
#include "core/param_server.hpp"
#include "data/synthetic.hpp"
#include "grid/scheduler.hpp"
#include "nn/model_io.hpp"
#include "nn/model_zoo.hpp"
#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "storage/kvstore.hpp"
#include "testing/generators.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using testing::PropConfig;
using testing::PropResult;
using testing::gen_blob;
using testing::prop_assert;
using testing::run_property;

// --- Scheduler --------------------------------------------------------------

TEST(Fuzz, SchedulerInvariantsHoldUnderRandomOps) {
  PropConfig cfg;
  cfg.name = "fuzz.scheduler";
  cfg.suite = "test_fuzz";
  cfg.trials = 8;
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    obs::Registry metrics;
    Scheduler s(metrics);
    const obs::Counter& units_added = metrics.counter("scheduler.generated");
    constexpr std::size_t kClients = 4;
    for (ClientId c = 0; c < kClients; ++c) s.register_client(c);

    SimTime now = 0.0;
    WorkunitId next_id = 1;
    std::size_t generated = 0;
    std::set<WorkunitId> done;
    // unit -> clients currently holding an assignment of it.
    std::map<WorkunitId, std::set<ClientId>> holding;

    const int ops = 200 * size;
    for (int op = 0; op < ops; ++op) {
      now += rng.uniform(0.0, 5.0);
      const auto action = rng.uniform_index(5);
      switch (action) {
        case 0: {  // add a unit
          Workunit wu;
          wu.id = next_id++;
          wu.shard = rng.uniform_index(8);
          wu.deadline_s = rng.uniform(10.0, 120.0);
          wu.replication = 1 + rng.uniform_index(2);
          wu.inputs = {FileRef{"shard/" + std::to_string(wu.shard), true}};
          s.add_unit(wu);
          ++generated;
          break;
        }
        case 1:
        case 2: {  // a client asks for work
          const ClientId c = rng.uniform_index(kClients);
          const auto units = s.request_work(c, 1 + rng.uniform_index(3), now);
          for (const auto& wu : units) {
            // Never handed a unit it already holds, never a retired unit.
            prop_assert(holding[wu.id].count(c) == 0,
                        "re-assigned a held unit");
            prop_assert(done.count(wu.id) == 0, "assigned a retired unit");
            holding[wu.id].insert(c);
          }
          break;
        }
        case 3: {  // a random holder reports a result
          std::vector<std::pair<WorkunitId, ClientId>> candidates;
          for (const auto& [unit, holders] : holding) {
            for (const ClientId c : holders) candidates.emplace_back(unit, c);
          }
          if (candidates.empty()) break;
          const auto [unit, client] =
              candidates[rng.uniform_index(candidates.size())];
          const bool first = s.report_result(client, unit, now);
          prop_assert(first == (done.count(unit) == 0),
                      "first-result flag wrong for unit " +
                          std::to_string(unit));
          done.insert(unit);
          holding[unit].erase(client);
          break;
        }
        case 4: {  // deadlines fire
          for (const auto id : s.expire_deadlines(now)) {
            // Expired units must not already be done.
            prop_assert(done.count(id) == 0, "expired a retired unit");
          }
          // Our local `holding` map can now be stale (the scheduler dropped
          // the assignment); clear holders for unfinished units —
          // re-assignments are still checked against `done`.
          for (auto& [unit, holders] : holding) {
            if (done.count(unit) == 0) holders.clear();
          }
          break;
        }
      }
      // Global invariants.
      prop_assert(s.all_done() == (done.size() == generated),
                  "all_done disagrees with the model");
      prop_assert(units_added.value() == generated, "generated count drifted");
      prop_assert(s.stats().results == done.size(), "result count drifted");
    }
    // Drain: clients request everything and report it; the job must finish.
    for (int round = 0; round < 2000 && !s.all_done(); ++round) {
      now += 10.0;
      (void)s.expire_deadlines(now);
      for (ClientId c = 0; c < kClients; ++c) {
        for (const auto& wu : s.request_work(c, 4, now)) {
          s.report_result(c, wu.id, now);
          done.insert(wu.id);
        }
      }
    }
    prop_assert(s.all_done(), "job never drained");
    prop_assert(done.size() == generated, "drained count mismatch");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// --- Event engine -----------------------------------------------------------

TEST(Fuzz, EngineAccountingUnderRandomScheduleAndCancel) {
  PropConfig cfg;
  cfg.name = "fuzz.engine";
  cfg.suite = "test_fuzz";
  cfg.trials = 10;
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    SimEngine engine;
    std::size_t fired = 0;
    std::vector<EventId> cancellable;
    std::size_t scheduled = 0, cancelled = 0;

    const int ops = 150 * size;
    for (int op = 0; op < ops; ++op) {
      if (rng.bernoulli(0.7) || cancellable.empty()) {
        cancellable.push_back(
            engine.schedule(rng.uniform(0.0, 100.0), [&fired] { ++fired; }));
        ++scheduled;
      } else {
        const auto idx = rng.uniform_index(cancellable.size());
        if (engine.cancel(cancellable[idx])) ++cancelled;
        cancellable.erase(cancellable.begin() +
                          static_cast<std::ptrdiff_t>(idx));
      }
      if (rng.bernoulli(0.1)) engine.step();  // interleave execution
    }
    engine.run();
    prop_assert(fired + cancelled == scheduled,
                "events lost: " + std::to_string(fired) + " fired + " +
                    std::to_string(cancelled) + " cancelled != " +
                    std::to_string(scheduled) + " scheduled");
    prop_assert(engine.pending() == 0, "engine drained but events pending");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// --- Wire codec -------------------------------------------------------------

TEST(Fuzz, CodecRoundTripsArbitraryBlobs) {
  PropConfig cfg;
  cfg.name = "fuzz.codec-roundtrip";
  cfg.suite = "test_fuzz";
  cfg.trials = 25;
  cfg.max_size = 20;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const std::size_t max_size = static_cast<std::size_t>(size) * 1000;
    const std::size_t n = rng.uniform_index(max_size + 1);
    std::vector<std::uint8_t> bytes(n);
    // Mixed content: runs, ramps and noise segments.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t seg =
          std::min<std::size_t>(n - i, 1 + rng.uniform_index(512));
      const auto mode = rng.uniform_index(3);
      const auto base = static_cast<std::uint8_t>(rng.uniform_index(256));
      for (std::size_t j = 0; j < seg; ++j, ++i) {
        switch (mode) {
          case 0: bytes[i] = base; break;
          case 1: bytes[i] = static_cast<std::uint8_t>(base + j); break;
          default:
            bytes[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
        }
      }
    }
    const Blob in(std::move(bytes));
    const Blob out = decompress(compress(in));
    prop_assert(out == in,
                "roundtrip mutated " + std::to_string(n) + " bytes");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

TEST(Fuzz, DecompressNeverCrashesOnGarbage) {
  PropConfig cfg;
  cfg.name = "fuzz.decompress-garbage";
  cfg.suite = "test_fuzz";
  cfg.trials = 40;
  cfg.max_size = 12;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    for (int trial = 0; trial < 20; ++trial) {
      Blob junk = gen_blob(rng, static_cast<std::size_t>(size) * 50);
      // Half the trials start with the right magic to reach deeper paths.
      if (junk.size() >= 4 && rng.bernoulli(0.5)) {
        junk.data()[0] = 'V';
        junk.data()[1] = 'C';
        junk.data()[2] = 'Z';
        junk.data()[3] = '1';
      }
      try {
        const Blob out = decompress(junk);
        (void)out;  // accidentally valid stream: fine
      } catch (const CorruptData&) {
        // expected for malformed input
      }
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// --- Parameter stores: shadow-model fuzz ------------------------------------
//
// Random get/put/update/erase sequences against BOTH consistencies, mirrored
// into an exact shadow model of the documented semantics — versions bump on
// every write, a stale read_version counts a lost update, and a strong
// store's update() never loses anything.

TEST(Fuzz, StoreMatchesShadowModelUnderRandomOps) {
  PropConfig cfg;
  cfg.name = "fuzz.store-model";
  cfg.suite = "test_fuzz";
  cfg.trials = 10;
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    for (const std::string kind : {"eventual", "strong"}) {
      obs::Registry metrics;
      auto store = make_store(kind, metrics);
      struct Slot {
        Blob value;
        std::uint64_t version = 0;
        std::set<std::uint64_t> charged;  // versions counted as lost
      };
      std::map<std::string, Slot> shadow;
      // Every version each key was read at, for writers that hold an old
      // read. Kept across erase, so a held read can outlive its key.
      std::map<std::string, std::vector<std::uint64_t>> held_reads;
      std::uint64_t expected_lost = 0;
      static const char* kKeys[] = {"params", "aux", "scratch"};

      const int ops = 120 * size;
      for (int op = 0; op < ops; ++op) {
        const std::string key = kKeys[rng.uniform_index(3)];
        switch (rng.uniform_index(5)) {
          case 0: {  // get
            const auto got = store->get(key);
            const auto it = shadow.find(key);
            prop_assert(got.has_value() == (it != shadow.end()),
                        kind + ": presence mismatch on get(" + key + ")");
            if (got.has_value()) {
              prop_assert(got->version == it->second.version,
                          kind + ": version mismatch on get(" + key + ")");
              prop_assert(got->value == it->second.value,
                          kind + ": value mismatch on get(" + key + ")");
            }
            break;
          }
          case 1: {  // blind put
            Blob value = gen_blob(rng, 32);
            const auto version = store->put(key, value);
            auto& slot = shadow[key];
            slot.value = std::move(value);
            ++slot.version;
            prop_assert(version == slot.version,
                        kind + ": put returned wrong version");
            break;
          }
          case 2: {  // read-modify-write with a possibly stale read_version
            const auto current = store->get(key);
            std::uint64_t read_version = current ? current->version : 0;
            // Sometimes the writer is one that read long ago, so stale puts
            // clobber overlapping version ranges.
            auto& held = held_reads[key];
            if (!held.empty() && rng.bernoulli(0.3)) {
              read_version = held[rng.uniform_index(held.size())];
            } else {
              held.push_back(read_version);
            }
            // Sometimes interleave other writers between read and write —
            // the §III-D race, single-threaded but semantically identical.
            const std::uint64_t interleaved =
                rng.bernoulli(0.3) ? 1 + rng.uniform_index(3) : 0;
            for (std::uint64_t i = 0; i < interleaved; ++i) {
              Blob other = gen_blob(rng, 32);
              store->put(key, other);
              auto& slot = shadow[key];
              slot.value = std::move(other);
              ++slot.version;
            }
            Blob mine = gen_blob(rng, 32);
            const auto version = store->put(key, mine, read_version);
            auto& slot = shadow[key];
            // Both stores charge a stale-read_version put once for each
            // version it clobbers that no earlier put was charged for, and
            // one when the key was erased and rewritten since the read: the
            // eventual store as its accepted §III-D race, the strong store
            // as observable get→put misuse (its atomic path is update()).
            if (read_version != 0 && read_version > slot.version) {
              ++expected_lost;
            } else if (read_version != 0) {
              for (auto v = read_version + 1; v <= slot.version; ++v) {
                if (slot.charged.insert(v).second) ++expected_lost;
              }
            }
            slot.value = std::move(mine);
            ++slot.version;
            prop_assert(version == slot.version,
                        kind + ": rmw returned wrong version");
            break;
          }
          case 3: {  // atomic (or deliberately non-atomic) update
            Blob next = gen_blob(rng, 32);
            const Blob expected_base = [&]() -> Blob {
              const auto it = shadow.find(key);
              return it == shadow.end() ? Blob() : it->second.value;
            }();
            const auto version =
                store->update(key, [&](const Blob* base) -> Blob {
                  prop_assert((base != nullptr) == !expected_base.empty() ||
                                  expected_base.empty(),
                              kind + ": update saw wrong base presence");
                  if (base != nullptr) {
                    prop_assert(*base == expected_base,
                                kind + ": update saw a stale base value");
                  }
                  return next;
                });
            auto& slot = shadow[key];
            slot.value = next;
            ++slot.version;
            prop_assert(version == slot.version,
                        kind + ": update returned wrong version");
            break;
          }
          default: {  // erase + contains
            if (rng.bernoulli(0.3)) {
              store->erase(key);
              shadow.erase(key);
            }
            prop_assert(store->contains(key) == (shadow.count(key) > 0),
                        kind + ": contains mismatch");
            break;
          }
        }
      }
      const std::uint64_t lost =
          metrics.snapshot().counter("store.lost_updates");
      prop_assert(lost == expected_lost,
                  kind + ": lost_updates=" + std::to_string(lost) +
                      " expected " + std::to_string(expected_lost));
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// --- Parameter stores: real concurrency -------------------------------------
//
// N real threads hammer one key. The strong store's update() is an atomic
// read-modify-write, so a counter incremented through it must land exactly
// on N*M; the eventual store's get+put decomposition may lose increments but
// must count every single one it loses.

std::uint64_t decode_counter(const Blob* blob) {
  if (blob == nullptr || blob->empty()) return 0;
  BinaryReader r(*blob);
  return r.read<std::uint64_t>();
}

Blob encode_counter(std::uint64_t value) {
  BinaryWriter w;
  w.write(value);
  return w.take();
}

TEST(Fuzz, ConcurrentStrongUpdatesNeverLoseIncrements) {
  constexpr std::size_t kThreads = 4;
  const std::size_t per_thread =
      200 * static_cast<std::size_t>(testing::soak_multiplier());
  obs::Registry metrics;
  auto store = make_store("strong", metrics);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        store->update("counter", [](const Blob* base) {
          return encode_counter(decode_counter(base) + 1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto final_value = store->get("counter");
  ASSERT_TRUE(final_value.has_value());
  EXPECT_EQ(decode_counter(&final_value->value), kThreads * per_thread);
  EXPECT_EQ(final_value->version, kThreads * per_thread);
  EXPECT_EQ(metrics.snapshot().counter("store.lost_updates"), 0u);
}

TEST(Fuzz, ConcurrentEventualUpdatesCountEveryLostIncrement) {
  constexpr std::size_t kThreads = 4;
  const std::size_t per_thread =
      200 * static_cast<std::size_t>(testing::soak_multiplier());
  obs::Registry metrics;
  auto store = make_store("eventual", metrics);
  store->put("counter", encode_counter(0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        // The deliberately racy read-compute-write decomposition.
        store->update("counter", [](const Blob* base) {
          return encode_counter(decode_counter(base) + 1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::size_t total = kThreads * per_thread;
  const auto final_value = store->get("counter");
  ASSERT_TRUE(final_value.has_value());
  const std::uint64_t counted = decode_counter(&final_value->value);
  // Every write bumped the version, racy or not.
  EXPECT_EQ(final_value->version, total + 1);  // +1 for the seed put
  EXPECT_LE(counted, total);
  // An increment is visible in the final counter only if its write lies on
  // the surviving chain, each link having read the version the previous
  // link wrote. The versions between two links are exactly what the later
  // link's stale write clobbered, and each of them is charged, by that
  // write or an earlier one, so the invisible increments are a subset of
  // the charges. (≥, not ==: a clobbered version can still reach the final
  // value through a later write that had read it.) Each version is charged
  // at most once and the newest never is, so the charges cannot exceed the
  // increments.
  const std::uint64_t lost = metrics.snapshot().counter("store.lost_updates");
  EXPECT_GE(lost, total - counted);
  EXPECT_LE(lost, total);
}

// --- VC-ASGD assimilator ----------------------------------------------------
//
// Random batches of client results through the real GridServer → assimilator
// → store pipeline (the test_param_server harness, fuzz-sized): every
// submission must be validated, assimilated exactly once and committed —
// versions, write counts and validation-accuracy callbacks all line up.

struct AssimilatorFuzzHarness {
  SimEngine engine;
  TraceLog trace;
  obs::Registry metrics;
  Scheduler scheduler{metrics};
  FileServer files{metrics};
  std::unique_ptr<KvStore> store;
  std::unique_ptr<GridServer> server;
  std::unique_ptr<ConstantAlpha> schedule;
  std::unique_ptr<VcAsgdAssimilator> assimilator;
  SyntheticData data;
  Model model;
  std::vector<double> accs;

  AssimilatorFuzzHarness(const std::string& store_kind, double alpha,
                         std::size_t num_ps)
      : store(make_store(store_kind, metrics)),
        data(make_synthetic_cifar({.height = 8,
                                   .width = 8,
                                   .train = 40,
                                   .validation = 40,
                                   .test = 10,
                                   .seed = 3})),
        model(make_resnet_lite(
            {.height = 8, .width = 8, .base_filters = 4, .blocks = 1}, 5)) {
    server = std::make_unique<GridServer>(engine, scheduler, trace, metrics,
                                          num_ps,
                                          [](const Blob&) { return true; });
    schedule = std::make_unique<ConstantAlpha>(alpha);
    VcAsgdAssimilator::Options opts;
    opts.validation_subsample = 8;
    assimilator = std::make_unique<VcAsgdAssimilator>(
        engine, *store, files, *server, *schedule, model,
        serial_exec_context(), data.validation, table1_catalog().server, opts,
        trace, metrics, Rng(1),
        [this](std::size_t, double acc) { accs.push_back(acc); });
    server->set_backend(assimilator.get());
    assimilator->publish_initial(model.flat_params());
  }

  void submit(WorkunitId id, ClientId client, const std::vector<float>& params) {
    scheduler.register_client(client);
    Workunit wu;
    wu.id = id;
    wu.epoch = 1;
    wu.shard = static_cast<std::size_t>(id);
    scheduler.add_unit(wu);
    (void)scheduler.request_work(client, 1, engine.now());
    server->submit_result(client, wu,
                          save_params(std::span<const float>(params)));
  }
};

TEST(Fuzz, AssimilatorRetiresEveryRandomSubmission) {
  PropConfig cfg;
  cfg.name = "fuzz.assimilator";
  cfg.suite = "test_fuzz";
  cfg.trials = 6;
  cfg.max_size = 10;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const std::string kind = rng.bernoulli(0.5) ? "eventual" : "strong";
    const double alpha = rng.uniform(0.0, 1.0);
    const std::size_t num_ps = 1 + rng.uniform_index(3);
    AssimilatorFuzzHarness h(kind, alpha, num_ps);
    const std::size_t dim = h.model.flat_params().size();

    const std::size_t k = 1 + static_cast<std::size_t>(size);
    for (std::size_t i = 0; i < k; ++i) {
      std::vector<float> params(dim);
      for (auto& p : params) {
        p = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      h.submit(static_cast<WorkunitId>(i + 1),
               static_cast<ClientId>(rng.uniform_index(3)), params);
      // Sometimes let the pipeline drain between submissions, sometimes
      // pile results onto overlapping PS workers.
      if (rng.bernoulli(0.4)) h.engine.run();
    }
    h.engine.run();

    prop_assert(h.accs.size() == k,
                kind + ": assimilated " + std::to_string(h.accs.size()) +
                    " of " + std::to_string(k) + " results");
    for (const double acc : h.accs) {
      prop_assert(acc >= 0.0 && acc <= 1.0, "accuracy out of [0,1]");
    }
    const auto stored = h.store->get("params");
    prop_assert(stored.has_value(), kind + ": params vanished from store");
    // publish_initial writes version 1; every assimilation adds one write.
    prop_assert(stored->version == k + 1,
                kind + ": version " + std::to_string(stored->version) +
                    " after " + std::to_string(k) + " assimilations");
    const obs::MetricsSnapshot counted = h.metrics.snapshot();
    prop_assert(counted.counter("store.writes") == k + 1,
                kind + ": write count off");
    if (kind == "strong") {
      prop_assert(counted.counter("store.lost_updates") == 0,
                  "strong store lost an update");
    }
    // The published copy matches the store exactly (same commit).
    const auto published = h.assimilator->published_params();
    const auto from_store = load_params(stored->value);
    prop_assert(published.size() == from_store.size(),
                kind + ": published size mismatch");
    for (std::size_t i = 0; i < published.size(); ++i) {
      prop_assert(published[i] == from_store[i],
                  kind + ": published[" + std::to_string(i) +
                      "] diverged from the store");
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

}  // namespace
}  // namespace vcdl
