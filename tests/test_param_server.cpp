// Isolated tests of the VC-ASGD assimilator: Eq. (1) semantics through the
// store, the consistency-dependent race behaviour of overlapping
// parameter-server workers in virtual time, and the wire-codec upload decode
// path (base ring hits, hash-guarded misses, drop semantics).
#include <gtest/gtest.h>

#include "core/param_server.hpp"
#include "data/synthetic.hpp"
#include "nn/model_io.hpp"
#include "nn/model_zoo.hpp"
#include "obs/snapshot.hpp"
#include "storage/kvstore.hpp"

namespace vcdl {
namespace {

struct PsHarness {
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
  std::vector<double> accs;  // per-assimilation validation accuracies

  explicit PsHarness(const std::string& store_kind, double alpha = 0.5,
                     std::size_t num_ps = 2, WireMode wire = WireMode::full,
                     std::size_t version_ring = 8)
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
    opts.validation_subsample = 16;
    opts.wire_mode = wire;
    opts.version_ring = version_ring;
    assimilator = std::make_unique<VcAsgdAssimilator>(
        engine, *store, files, *server, *schedule, model,
        serial_exec_context(), data.validation, table1_catalog().server, opts,
        trace, metrics, Rng(1),
        [this](std::size_t, double acc) { accs.push_back(acc); });
    server->set_backend(assimilator.get());
    assimilator->publish_initial(model.flat_params());
  }

  // Feeds a client result straight into the server at the current time.
  void submit(WorkunitId id, ClientId client, const std::vector<float>& params) {
    submit_payload(id, client, save_params(std::span<const float>(params)));
  }

  // Same, but with a caller-encoded payload (wire frames).
  void submit_payload(WorkunitId id, ClientId client, Blob payload) {
    scheduler.register_client(client);
    Workunit wu;
    wu.id = id;
    wu.epoch = 1;
    wu.shard = static_cast<std::size_t>(id);
    scheduler.add_unit(wu);
    // Pull so the scheduler knows about the assignment.
    (void)scheduler.request_work(client, 1, engine.now());
    server->submit_result(client, wu, std::move(payload));
  }

  std::vector<float> stored_params() {
    const auto v = store->get("params");
    return load_params(v->value);
  }

  std::uint64_t count(const std::string& name) const {
    return metrics.snapshot().counter(name);
  }
};

TEST(ParamServer, SingleResultAppliesEquationOne) {
  PsHarness h("eventual", /*alpha=*/0.5);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client = w0;
  for (auto& v : client) v += 2.0f;
  h.submit(1, 0, client);
  h.engine.run();
  const auto w1 = h.stored_params();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * w0[i] + 0.5f * client[i], 1e-5f);
  }
  ASSERT_EQ(h.accs.size(), 1u);
  EXPECT_GE(h.accs[0], 0.0);
  EXPECT_LE(h.accs[0], 1.0);
}

TEST(ParamServer, AlphaOneFreezesServer) {
  PsHarness h("eventual", /*alpha=*/0.999);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client(w0.size(), 100.0f);
  h.submit(1, 0, client);
  h.engine.run();
  const auto w1 = h.stored_params();
  // Only 0.1% moved toward the client copy.
  EXPECT_NEAR(w1[0], 0.999f * w0[0] + 0.1f, 0.01f);
}

TEST(ParamServer, OverlappingEventualWorkersLoseAnUpdate) {
  // Two results arrive simultaneously at two workers of a Redis-like store:
  // both read version 1, both write — the second write clobbers the first
  // (LWW), and the store counts the lost update. This is the §III-D race,
  // reproduced in virtual time.
  PsHarness h("eventual", 0.5, /*num_ps=*/2);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> a(w0.size(), 1.0f), b(w0.size(), -1.0f);
  h.submit(1, 0, a);
  h.submit(2, 1, b);
  h.engine.run();
  EXPECT_EQ(h.count("store.lost_updates"), 1u);
  // LWW: the surviving copy is w0 blended with exactly one client (the one
  // whose write landed last), not both.
  const auto w1 = h.stored_params();
  const float expect_b = 0.5f * w0[0] + 0.5f * b[0];
  const float expect_a = 0.5f * w0[0] + 0.5f * a[0];
  const bool matches_one = std::abs(w1[0] - expect_b) < 1e-5f ||
                           std::abs(w1[0] - expect_a) < 1e-5f;
  EXPECT_TRUE(matches_one);
  EXPECT_EQ(h.accs.size(), 2u);  // both still validated and reported
}

TEST(ParamServer, OverlappingStrongWorkersSerialize) {
  // The same overlap against a MySQL-like store: the transaction lock
  // serializes the two read-modify-writes; both contributions survive.
  PsHarness h("strong", 0.5, /*num_ps=*/2);
  const std::vector<float> w0 = h.model.flat_params();
  const float a = 1.0f, b = -1.0f;  // every element of each client copy
  h.submit(1, 0, std::vector<float>(w0.size(), a));
  h.submit(2, 1, std::vector<float>(w0.size(), b));
  h.engine.run();
  EXPECT_EQ(h.count("store.lost_updates"), 0u);
  const auto w1 = h.stored_params();
  // Order-independent here because a = -b: 0.25*w0 + 0.5*second + 0.25*first.
  const float expected = 0.25f * w0[0] + 0.25f * a + 0.5f * b;
  const float expected_rev = 0.25f * w0[0] + 0.25f * b + 0.5f * a;
  EXPECT_TRUE(std::abs(w1[0] - expected) < 1e-5f ||
              std::abs(w1[0] - expected_rev) < 1e-5f);
}

TEST(ParamServer, StrongUpdateTakesLongerThanEventual) {
  PsHarness eventual("eventual");
  PsHarness strong("strong");
  const std::vector<float> client(eventual.model.flat_params().size(), 1.0f);
  eventual.submit(1, 0, client);
  strong.submit(1, 0, client);
  const SimTime t_eventual = eventual.engine.run();
  const SimTime t_strong = strong.engine.run();
  EXPECT_GT(t_strong, t_eventual);  // 1.29 s vs 0.87 s store cost
}

// --- Wire-codec upload decode path -------------------------------------------

TEST(ParamServerWire, RingedDeltaFrameBlendsBitExact) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client = w0;
  for (auto& v : client) v += 0.25f;
  const std::uint64_t decoded_before = h.count("wire_codec.frames_decoded");
  h.submit_payload(1, 0,
                   encode_params_delta(w0, client, h.assimilator->commits()));
  h.engine.run();
  EXPECT_EQ(h.count("wire_codec.frames_decoded"), decoded_before + 1);
  const auto w1 = h.stored_params();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * w0[i] + 0.5f * client[i], 1e-6f);
  }
  EXPECT_EQ(h.accs.size(), 1u);
}

// High-severity regression: a lossless delta frame whose base is not in the
// ring must be DROPPED, not decoded against the current published copy —
// bit-space word diffs applied to a different base yield arbitrary floats
// that the α-blend would absorb with no finiteness check.
TEST(ParamServerWire, RingMissedDeltaUploadIsDroppedNotMisapplied) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta);
  const std::vector<float> w0 = h.model.flat_params();
  // Encoded against a base the server never published.
  std::vector<float> foreign_base(w0.size(), 123.0f);
  std::vector<float> client = foreign_base;
  for (auto& v : client) v += 0.01f;
  const std::uint64_t dropped_before = h.count("wire_codec.frames_dropped");
  const std::uint64_t misses_before = h.count("wire_codec.base_misses");
  h.submit_payload(1, 0,
                   encode_params_delta(foreign_base, client, /*version=*/999));
  h.engine.run();
  EXPECT_EQ(h.count("wire_codec.frames_dropped"), dropped_before + 1);
  EXPECT_EQ(h.count("wire_codec.base_misses"), misses_before + 1);
  // Server params untouched; the result still validated + reported so the
  // epoch bookkeeping cannot stall on a dropped upload.
  EXPECT_EQ(h.stored_params(), w0);
  EXPECT_EQ(h.assimilator->published_params(), w0);
  ASSERT_EQ(h.accs.size(), 1u);
}

// High-severity regression: checkpoint replay rewinds the published params
// while commits_ stays put, so a pre-crash in-flight upload can carry a
// base_version that *matches* a post-replay ring entry holding different
// params. The frame's base_hash must turn that into a miss (→ drop for a
// lossless delta), never a silent wrong-base hit.
TEST(ParamServerWire, ReplayReusedVersionIsHashMissNotWrongBaseHit) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta);
  const std::vector<float> pre_crash = h.model.flat_params();
  std::vector<float> client = pre_crash;
  for (auto& v : client) v += 0.5f;
  // Encoded before the crash, against the version the ring currently holds.
  const Blob in_flight =
      encode_params_delta(pre_crash, client, h.assimilator->commits());
  // Crash + checkpoint replay: different params, same commit count.
  std::vector<float> replayed = pre_crash;
  for (auto& v : replayed) v -= 1.0f;
  h.assimilator->publish_initial(replayed);
  ASSERT_EQ(h.assimilator->commits(), 0u);  // version number reused

  const std::uint64_t hits_before = h.count("wire_codec.frames_decoded");
  const std::uint64_t dropped_before = h.count("wire_codec.frames_dropped");
  h.submit_payload(1, 0, in_flight);
  h.engine.run();
  EXPECT_EQ(h.count("wire_codec.frames_decoded"), hits_before);
  EXPECT_EQ(h.count("wire_codec.frames_dropped"), dropped_before + 1);
  EXPECT_EQ(h.stored_params(), replayed);
}

// q8 frames carry float-space diffs, so the ring-miss fallback (apply to the
// current published copy) genuinely degrades to plain update application.
TEST(ParamServerWire, RingMissedQ8UploadDegradesToUpdateApplication) {
  PsHarness h("eventual", 0.5, 2, WireMode::delta_q8);
  const std::vector<float> w0 = h.model.flat_params();
  std::vector<float> client = w0;
  for (auto& v : client) v += 0.25f;
  const std::uint64_t misses_before = h.count("wire_codec.base_misses");
  // Right base params, aged-out version number: hash never gets checked
  // because the version lookup already misses.
  h.submit_payload(1, 0, encode_params_q8(w0, client, /*version=*/999));
  h.engine.run();
  EXPECT_EQ(h.count("wire_codec.base_misses"), misses_before + 1);
  const auto w1 = h.stored_params();
  // The uniform +0.25 diff quantizes exactly (every block has lo == hi), so
  // the fallback blend matches Eq. (1) up to float arithmetic.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * w0[i] + 0.5f * client[i], 1e-3f);
  }
  ASSERT_EQ(h.accs.size(), 1u);
}

// Low-severity regression: a unit that runs as several replicas (redundancy
// or timeout reissue) records one exec base per replica; an *earlier*
// replica's base must stay pinned in the ring — and decodable — even after
// a later replica re-records the unit and other commits churn the ring.
TEST(ParamServerWire, EarlierReplicaBaseStaysPinnedAcrossRingChurn) {
  PsHarness h("eventual", 0.5, /*num_ps=*/1, WireMode::delta,
              /*version_ring=*/1);
  const std::vector<float> w0 = h.model.flat_params();
  // Replica A of unit 42 starts at commit 0 and trains from w0.
  h.assimilator->note_exec_base(42);
  std::vector<float> client_a = w0;
  for (auto& v : client_a) v += 0.125f;
  const Blob frame_a =
      encode_params_delta(w0, client_a, h.assimilator->commits());

  // Other units commit twice; with version_ring=1 everything unpinned ages
  // out. Replica B of unit 42 then starts from a later commit.
  std::vector<float> other(w0.size(), 0.5f);
  h.submit(7, 1, other);
  h.engine.run();
  h.assimilator->note_exec_base(42);  // replica B; must not unpin commit 0
  h.submit(8, 1, other);
  h.engine.run();
  ASSERT_EQ(h.assimilator->commits(), 2u);

  // Replica A's result arrives first and must decode bit-exact against the
  // still-pinned commit-0 base.
  const std::uint64_t dropped_before = h.count("wire_codec.frames_dropped");
  const std::uint64_t decoded_before = h.count("wire_codec.frames_decoded");
  const std::vector<float> before = h.stored_params();
  h.submit_payload(42, 0, frame_a);
  h.engine.run();
  EXPECT_EQ(h.count("wire_codec.frames_dropped"), dropped_before);
  EXPECT_EQ(h.count("wire_codec.frames_decoded"), decoded_before + 1);
  const auto w1 = h.stored_params();
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(w1[i], 0.5f * before[i] + 0.5f * client_a[i], 1e-6f);
  }
}

TEST(ParamServer, PublishesParameterFileEachCommit) {
  PsHarness h("eventual");
  const auto v0 = h.files.version("params");
  const std::vector<float> client(h.model.flat_params().size(), 1.0f);
  h.submit(1, 0, client);
  h.engine.run();
  EXPECT_EQ(h.files.version("params"), v0 + 1);
  // published_params() mirrors the file content.
  EXPECT_EQ(h.assimilator->published_params(), h.stored_params());
}

}  // namespace
}  // namespace vcdl
