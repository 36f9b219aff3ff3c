// Sharded parameter plane (core/shard_plan.hpp) — the shards=1 equivalence
// oracle and the shard-routing invariants.
//
// The backbone is a pinned-golden oracle (the test_exec_threading idiom):
// the digest/metrics/params constants below were captured from the
// pre-shard monolithic build, so a param_shards=1 run through the refactored
// plane must reproduce them bit for bit — TraceDigest, metrics-snapshot
// fingerprint and published parameters alike. Goldens of the same kind pin
// the bundled (2 and 4 shards), consensus and chaos paths, adversaries that
// attack only some results, and preemption with two crashes replayed from
// checkpoints. Mutation checks
// flip the core/test_hooks.hpp sabotage flags and require the oracles to
// fail, which proves they have teeth. The rest of the suite covers the
// slicing edge cases, the cross-shard blend property (concatenated
// per-shard Eq. (1) blends equal the monolithic blend bitwise), the
// wire-codec and delta-pull counts at each shard count, and sharded-run
// determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>
#include <sstream>

#include "common/rng.hpp"
#include "common/wire_codec.hpp"
#include "core/param_server.hpp"
#include "core/shard_plan.hpp"
#include "core/test_hooks.hpp"
#include "core/trainer.hpp"
#include "core/vcasgd.hpp"
#include "data/synthetic.hpp"
#include "nn/model_io.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using testing::PropConfig;
using testing::PropResult;
using testing::prop_assert;
using testing::run_property;

// RAII sabotage-flag guard so a failing EXPECT can never leak a set flag
// into later tests.
struct HookGuard {
  bool& flag;
  explicit HookGuard(bool& f) : flag(f) { flag = true; }
  ~HookGuard() { flag = false; }
};

// --- ShardPlan slicing ------------------------------------------------------

// Structural invariant: slices partition [0, total) contiguously in order.
void expect_partition(const ShardPlan& plan) {
  std::size_t prev_end = 0;
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    EXPECT_EQ(plan.slice(s).begin, prev_end);
    EXPECT_LE(plan.slice(s).begin, plan.slice(s).end);
    prev_end = plan.slice(s).end;
  }
  EXPECT_EQ(prev_end, plan.total());
}

// Balance predicate: every cut sits within the snap tolerance of its ideal
// position, so no slice exceeds ideal + 2·tol (+2 rounding margin), and no
// shard is empty when the model is big enough for all of them.
bool is_balanced(const ShardPlan& plan) {
  const std::size_t shards = plan.shards();
  const std::size_t total = plan.total();
  const std::size_t ideal = total / shards;
  const std::size_t tol = std::max<std::size_t>(1, total / (4 * shards));
  for (std::size_t s = 0; s < shards; ++s) {
    if (total >= shards && plan.slice(s).size() == 0) return false;
    if (plan.slice(s).size() > ideal + 2 * tol + 2) return false;
  }
  return true;
}

TEST(ShardPlan, IndivisibleParamCountStaysBalanced) {
  const ShardPlan plan = ShardPlan::build({251, 251, 251, 250}, 4);
  EXPECT_EQ(plan.total(), 1003u);
  EXPECT_EQ(plan.shards(), 4u);
  expect_partition(plan);
  EXPECT_TRUE(is_balanced(plan));
}

TEST(ShardPlan, CutsSnapToLayerBoundaries) {
  // Layer boundaries sit a hair off the ideal cuts; the plan must prefer
  // them so shards hold whole layers.
  const ShardPlan plan = ShardPlan::build({100, 95, 110, 95}, 4);
  expect_partition(plan);
  EXPECT_TRUE(is_balanced(plan));
  EXPECT_EQ(plan.slice(0).end, 100u);
  EXPECT_EQ(plan.slice(1).end, 195u);
  EXPECT_EQ(plan.slice(2).end, 305u);
}

TEST(ShardPlan, GiantLayerSplitsIntraLayer) {
  // One layer outweighs every other shard combined: no boundary is anywhere
  // near the ideal cuts, so the plan must cut inside the giant layer and
  // stay balanced anyway.
  const ShardPlan plan = ShardPlan::build({8, 9000, 8, 8, 8}, 4);
  EXPECT_EQ(plan.total(), 9032u);
  expect_partition(plan);
  EXPECT_TRUE(is_balanced(plan));
}

TEST(ShardPlan, ZeroParameterLayersAreHarmless) {
  const ShardPlan plan = ShardPlan::build({0, 0, 50, 0, 50, 0, 0}, 2);
  EXPECT_EQ(plan.total(), 100u);
  expect_partition(plan);
  EXPECT_TRUE(is_balanced(plan));
  EXPECT_EQ(plan.slice(0).end, 50u);  // boundary between the two real layers
}

TEST(ShardPlan, MoreShardsThanLayers) {
  const ShardPlan plan = ShardPlan::build({30}, 8);
  expect_partition(plan);
  EXPECT_TRUE(is_balanced(plan));
}

TEST(ShardPlan, MoreShardsThanParameters) {
  // Degenerate: tail shards go empty, the partition still covers the vector.
  const ShardPlan plan = ShardPlan::build({5}, 8);
  expect_partition(plan);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < plan.shards(); ++s) {
    covered += plan.slice(s).size();
  }
  EXPECT_EQ(covered, 5u);
}

TEST(ShardPlan, DeterministicAcrossBuilds) {
  const std::vector<std::size_t> sizes = {8, 9000, 8, 0, 120, 64};
  const ShardPlan a = ShardPlan::build(sizes, 4);
  const ShardPlan b = ShardPlan::build(sizes, 4);
  ASSERT_EQ(a.shards(), b.shards());
  for (std::size_t s = 0; s < a.shards(); ++s) {
    EXPECT_EQ(a.slice(s).begin, b.slice(s).begin);
    EXPECT_EQ(a.slice(s).end, b.slice(s).end);
  }
}

TEST(ShardPlan, ShardKeysPreserveMonolithicName) {
  EXPECT_EQ(ShardPlan::single(10).shard_key("params", 0), "params");
  const ShardPlan plan = ShardPlan::build({100, 100}, 2);
  EXPECT_EQ(plan.shard_key("params", 0), "params/0");
  EXPECT_EQ(plan.shard_key("params", 1), "params/1");
}

TEST(ShardPlan, MutationSkewedPlanFailsBalance) {
  // Teeth check: the skew_plan sabotage hook must be caught by the balance
  // predicate the suite leans on.
  HookGuard guard(shard_hooks::skew_plan);
  const ShardPlan plan = ShardPlan::build({100, 100, 100, 100}, 4);
  expect_partition(plan);
  EXPECT_FALSE(is_balanced(plan));
}

// --- Cross-shard blend property ---------------------------------------------

TEST(ShardPlane, CrossShardBlendMatchesMonolithicBlend) {
  PropConfig cfg;
  cfg.name = "shard.blend_concat";
  cfg.suite = "test_shard_plane";
  cfg.trials = 30;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    // Random layered model shape, random shard count, random parameters.
    const std::size_t layers = 1 + rng.uniform_index(6);
    std::vector<std::size_t> sizes(layers);
    for (auto& s : sizes) {
      s = rng.uniform_index(static_cast<std::uint64_t>(size) * 40 + 5);
    }
    static const std::size_t kCounts[] = {1, 2, 4, 8};
    const std::size_t shards = kCounts[rng.uniform_index(4)];
    const ShardPlan plan = ShardPlan::build(sizes, shards);
    const std::size_t total = plan.total();

    // The plan partitions the vector contiguously whatever the inputs.
    std::size_t prev_end = 0;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      prop_assert(plan.slice(s).begin == prev_end, "non-contiguous slices");
      prev_end = plan.slice(s).end;
    }
    prop_assert(prev_end == total, "slices do not cover the vector");

    std::vector<float> server(total), client(total);
    for (auto& v : server) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : client) v = static_cast<float>(rng.normal(0.0, 1.0));
    const double alpha = rng.uniform();

    // Monolithic blend vs the per-shard routed blends, bit-compared.
    std::vector<float> mono = server;
    vcasgd_update(mono, client, alpha);
    std::vector<float> sharded = server;
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      vcasgd_update(plan.view(std::span<float>(sharded), s),
                    plan.view(std::span<const float>(client), s), alpha);
    }
    prop_assert(total == 0 || std::memcmp(mono.data(), sharded.data(),
                                          total * sizeof(float)) == 0,
                "concatenated shard blends != monolithic blend");
  });
  EXPECT_TRUE(r.passed) << r.message << "\n" << r.repro;
}

// --- shards=1 pinned-golden oracle ------------------------------------------

// Captured from the pre-shard monolithic build (same tiny_image_spec, same
// seeds): a param_shards=1 run must reproduce every one of these bits. The
// metrics word fingerprints the run's whole snapshot, which depends on the
// run alone (each run counts into a registry of its own).
struct Golden {
  const char* codec;
  const char* store;
  std::uint64_t digest;
  std::uint64_t metrics;
  std::uint64_t params;
  std::uint64_t events;
};
constexpr Golden kMonolithicGoldens[] = {
    {"full", "eventual", 0x09af42a07a9c7ad6ULL, 0x5a871e89876e356dULL,
     0xe550207a31cc88daULL, 149},
    {"delta", "eventual", 0xc89e5cfadefc59f5ULL, 0x8cfc3f4af5a776c5ULL,
     0xe550207a31cc88daULL, 149},
    {"delta_q8", "strong", 0xa455084954823cd6ULL, 0x389da0bfe00e82e3ULL,
     0x3cba8a2a2e242ec3ULL, 149},
};

// Goldens for the paths a run takes only at param_shards >= 2, or only with
// consensus or faults switched on: shard bundles, the per-part decode loop,
// peek decoding for replica consensus, and checkpoint replay of the rings.
// Captured before the upload/assimilation paths were folded into one module,
// so the fold must reproduce them bit for bit.
//
struct PlaneGolden {
  const char* codec;
  const char* store;
  std::size_t shards;
  std::uint64_t digest;
  std::uint64_t metrics;
  std::uint64_t params;
  std::uint64_t events;
};
constexpr PlaneGolden kShardedGoldens[] = {
    {"full", "eventual", 2, 0x592d845426ae2242ULL, 0xd80126d5cd1b1366ULL,
     0x4c26f882e71ad853ULL, 149},
    {"delta", "eventual", 2, 0x204d50e7b48eec9bULL, 0x1b86ff5417894ef5ULL,
     0x4c26f882e71ad853ULL, 149},
    {"delta_q8", "strong", 2, 0x7a29fe82665958ceULL, 0xcec79ce4bf23409fULL,
     0x6b3f0f9325ea4be6ULL, 149},
    {"full", "eventual", 4, 0x893c6a5bdc847c2cULL, 0xdfda442f9c8d5709ULL,
     0x69e3f95fe498c7a3ULL, 149},
    {"delta", "eventual", 4, 0x8096edae8ca80ae2ULL, 0xaf8bb60763308e31ULL,
     0x69e3f95fe498c7a3ULL, 149},
    {"delta_q8", "strong", 4, 0xcc76d390f095adfeULL, 0x04f906612f58c754ULL,
     0x10db6267f59196e7ULL, 149},
};
// tiny_image_spec with a 1/3 noise adversary, triple replication, a 2-of-3
// quorum and the blend guard (byzantine_spec below).
constexpr PlaneGolden kConsensusGoldens[] = {
    {"full", "eventual", 1, 0xf0c0a7c5ff1a992aULL, 0xc503084073a83fe8ULL,
     0x8e999bdfe353015bULL, 438},
    {"delta", "eventual", 1, 0x919ded6faf4cf6d0ULL, 0x6dfd567aae86fb5bULL,
     0x8e999bdfe353015bULL, 438},
    {"full", "eventual", 2, 0x918deddd17552d4aULL, 0x66666beb871be1d6ULL,
     0xd45ebfe9bb80ed23ULL, 438},
    {"delta", "eventual", 2, 0xea6ab06ef5b1e92fULL, 0x4781e9cffa62378eULL,
     0xd45ebfe9bb80ed23ULL, 438},
};
// tiny_image_spec under transfer drops and stalls, upload corruption, store
// outages and spikes, and one grid-server crash replayed from checkpoints
// (chaos_spec below).
constexpr PlaneGolden kChaosGoldens[] = {
    {"full", "eventual", 1, 0x0d74dc78527b723dULL, 0xa7987157218528caULL,
     0x3696e0e6d92a22cdULL, 186},
    {"delta", "eventual", 1, 0xefd0d470e0f0e275ULL, 0x888fbb9470d9ae47ULL,
     0xc178369bc23c17afULL, 186},
    {"full", "eventual", 2, 0xc8d3a6b97e03991dULL, 0x9bde66e5a11d4cfdULL,
     0x90feba5e1d783851ULL, 195},
    {"delta", "eventual", 2, 0x20df38cf64913c49ULL, 0x75dab7948c2532a7ULL,
     0x94afeccd95c49b03ULL, 195},
};

struct RunFingerprint {
  std::uint64_t digest = 0;
  std::uint64_t metrics = 0;
  std::uint64_t params = 0;
  std::uint64_t events = 0;
};

// `result`, when given, receives the run's TrainResult.
RunFingerprint fingerprint_of(const ExperimentSpec& spec,
                              TrainResult* result = nullptr) {
  VcTrainer t(spec);
  TrainResult r = t.run();
  const RunFingerprint fp{t.trace().digest().hash, r.metrics.fingerprint(),
                          params_hash(r.final_params),
                          t.trace().digest().events};
  if (result != nullptr) *result = std::move(r);
  return fp;
}

ExperimentSpec plane_spec(const char* codec, const char* store,
                          std::size_t param_shards) {
  ExperimentSpec spec = testing::tiny_image_spec(/*trace=*/true);
  spec.wire_codec = codec;
  spec.store = store;
  spec.param_shards = param_shards;
  return spec;
}

RunFingerprint run_fingerprint(const char* codec, const char* store,
                               std::size_t param_shards) {
  return fingerprint_of(plane_spec(codec, store, param_shards));
}

ExperimentSpec byzantine_spec(const PlaneGolden& g) {
  ExperimentSpec spec = plane_spec(g.codec, g.store, g.shards);
  spec.clients = 3;
  spec.replication = 3;
  spec.adversary.fraction = 1.0 / 3.0;
  spec.adversary.mode = AttackMode::noise;
  spec.consensus.enabled = true;
  spec.consensus.quorum = 2;
  spec.consensus.tolerance = 0.1;
  spec.blend_outlier_threshold = 4.0;
  return spec;
}

ExperimentSpec chaos_spec(const PlaneGolden& g) {
  ExperimentSpec spec = plane_spec(g.codec, g.store, g.shards);
  spec.faults.download.drop_prob = 0.10;
  spec.faults.download.stall_prob = 0.10;
  spec.faults.upload.drop_prob = 0.10;
  spec.faults.upload.stall_prob = 0.10;
  spec.faults.corruption_prob = 0.05;
  spec.faults.store.fail_prob = 0.05;
  spec.faults.store.slow_prob = 0.05;
  spec.faults.server_crashes = {180.0};
  spec.faults.server_recovery_s = 30.0;
  spec.checkpoint_interval_s = 60.0;
  return spec;
}

void expect_golden(const PlaneGolden& g, const RunFingerprint& fp) {
  std::ostringstream label;
  label << g.codec << "/" << g.store << " shards=" << g.shards << std::hex
        << " got {0x" << fp.digest << ", 0x" << fp.metrics << ", 0x"
        << fp.params << std::dec << ", " << fp.events << "}";
  EXPECT_EQ(fp.digest, g.digest) << label.str();
  EXPECT_EQ(fp.metrics, g.metrics) << label.str();
  EXPECT_EQ(fp.params, g.params) << label.str();
  EXPECT_EQ(fp.events, g.events) << label.str();
}

TEST(ShardPlane, ShardsOneMatchesMonolithicGoldens) {
  for (const Golden& g : kMonolithicGoldens) {
    const RunFingerprint fp = run_fingerprint(g.codec, g.store, 1);
    EXPECT_EQ(fp.digest, g.digest) << g.codec << "/" << g.store;
    EXPECT_EQ(fp.metrics, g.metrics) << g.codec << "/" << g.store;
    EXPECT_EQ(fp.params, g.params) << g.codec << "/" << g.store;
    EXPECT_EQ(fp.events, g.events) << g.codec << "/" << g.store;
  }
}

TEST(ShardPlane, ShardedRunsMatchGoldens) {
  for (const PlaneGolden& g : kShardedGoldens) {
    expect_golden(g, run_fingerprint(g.codec, g.store, g.shards));
  }
}

TEST(ShardPlane, MutationMisroutedBlendFailsGoldenOracle) {
  // Teeth check: misrouting shard 0's blend must shift the published
  // parameters, the trace and the metrics — if the golden oracle still
  // passed, it would be comparing nothing. Checked on the monolithic golden
  // and on a bundled (delta, 2-shard) one.
  HookGuard guard(shard_hooks::misroute_blend);
  const Golden& g = kMonolithicGoldens[0];
  const RunFingerprint fp = run_fingerprint(g.codec, g.store, 1);
  EXPECT_NE(fp.params, g.params);
  const bool all_match = fp.digest == g.digest && fp.metrics == g.metrics &&
                         fp.params == g.params;
  EXPECT_FALSE(all_match);

  const PlaneGolden& sg = kShardedGoldens[1];
  const RunFingerprint sfp = run_fingerprint(sg.codec, sg.store, sg.shards);
  EXPECT_NE(sfp.params, sg.params);
}

TEST(ShardPlane, ConsensusRunsMatchGoldens) {
  for (const PlaneGolden& g : kConsensusGoldens) {
    expect_golden(g, fingerprint_of(byzantine_spec(g)));
  }
}

TEST(ShardPlane, ChaosRunsMatchGoldens) {
  for (const PlaneGolden& g : kChaosGoldens) {
    expect_golden(g, fingerprint_of(chaos_spec(g)));
  }
}

// byzantine_spec with adversaries that attack only some of their results,
// so each attack is a Bernoulli draw: a noise adversary at attack_prob 0.5
// and a colluding scale adversary at 0.7, each at full/eventual with one
// shard and at delta/strong with two. `attacks` is faults.byzantine_result.
struct AdversaryGolden {
  PlaneGolden plane;
  AttackMode mode;
  double attack_prob;
  bool collude;
  std::uint64_t attacks;
};
constexpr AdversaryGolden kPartialAttackGoldens[] = {
    {{"full", "eventual", 1, 0x321e778e9b387063ULL, 0x909bd6b9817d03a9ULL,
      0x5f2933280c9c1243ULL, 411},
     AttackMode::noise, 0.5, false, 7},
    {{"delta", "strong", 2, 0x6967b50e234ead08ULL, 0xcfc8bd4b7ad7e408ULL,
      0x585e6c83078c192fULL, 411},
     AttackMode::noise, 0.5, false, 7},
    {{"full", "eventual", 1, 0x2b75b4ef6ee38416ULL, 0xb6929ba953d8042dULL,
      0x8bbd0165458bcd72ULL, 426},
     AttackMode::scale, 0.7, true, 12},
    {{"delta", "strong", 2, 0x1550558fa8571a2dULL, 0x69881e4334481fb3ULL,
      0x246e87cc1dd4fd1cULL, 426},
     AttackMode::scale, 0.7, true, 12},
};

TEST(ShardPlane, PartialAttackRunsMatchGoldens) {
  for (const AdversaryGolden& g : kPartialAttackGoldens) {
    ExperimentSpec spec = byzantine_spec(g.plane);
    spec.adversary.mode = g.mode;
    spec.adversary.attack_prob = g.attack_prob;
    spec.adversary.collude = g.collude;
    TrainResult r;
    expect_golden(g.plane, fingerprint_of(spec, &r));
    EXPECT_EQ(r.metrics.counter("faults.byzantine_result"), g.attacks)
        << g.plane.codec << " shards=" << g.plane.shards;
  }
}

// Preemptible clients at 6 interruptions per hour, and grid-server crashes
// at 150 s and 320 s replayed from 60 s checkpoints.
struct PreemptionGolden {
  PlaneGolden plane;
  std::uint64_t preemptions;
  std::uint64_t restores;
};
constexpr PreemptionGolden kPreemptionGoldens[] = {
    {{"full", "eventual", 1, 0x5765876e33928f92ULL, 0xf1cc98fafcf0741eULL,
      0x645ed8795cef07acULL, 228},
     2, 2},
    {{"delta", "eventual", 2, 0x9b61ae6f584cd30fULL, 0x4da569319d39b57fULL,
      0xa506c08a846b1958ULL, 196},
     2, 2},
};

TEST(ShardPlane, PreemptionWithCrashesMatchesGoldens) {
  for (const PreemptionGolden& g : kPreemptionGoldens) {
    ExperimentSpec spec = plane_spec(g.plane.codec, g.plane.store,
                                     g.plane.shards);
    spec.preemptible = true;
    spec.interruption_per_hour = 6.0;
    spec.faults.server_crashes = {150.0, 320.0};
    spec.checkpoint_interval_s = 60.0;
    TrainResult r;
    expect_golden(g.plane, fingerprint_of(spec, &r));
    EXPECT_EQ(r.metrics.counter("client.preemptions"), g.preemptions)
        << g.plane.codec;
    EXPECT_EQ(r.metrics.counter("checkpoint.restores"), g.restores)
        << g.plane.codec;
  }
}

// --- Sharded runs: determinism + mutation -----------------------------------

TEST(ShardPlane, ShardedRunsAreDeterministic) {
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const RunFingerprint a = run_fingerprint("delta", "eventual", shards);
    const RunFingerprint b = run_fingerprint("delta", "eventual", shards);
    EXPECT_EQ(a.digest, b.digest) << "shards=" << shards;
    EXPECT_EQ(a.metrics, b.metrics) << "shards=" << shards;
    EXPECT_EQ(a.params, b.params) << "shards=" << shards;
  }
}

TEST(ShardPlane, ShardedRunCompletesUnderEveryCodec) {
  for (const char* codec : {"full", "delta", "delta_q8"}) {
    ExperimentSpec spec = testing::tiny_image_spec();
    spec.wire_codec = codec;
    spec.param_shards = 4;
    const TrainResult r = run_experiment(spec);
    EXPECT_FALSE(r.epochs.empty()) << codec;
    EXPECT_EQ(r.final_params.size(), r.totals.parameter_count) << codec;
  }
}

TEST(ShardPlane, MutationMisroutedBlendShiftsShardedDigest) {
  const RunFingerprint clean = run_fingerprint("full", "eventual", 2);
  HookGuard guard(shard_hooks::misroute_blend);
  const RunFingerprint sabotaged = run_fingerprint("full", "eventual", 2);
  EXPECT_NE(clean.params, sabotaged.params);
}

// --- Wire-codec and delta-pull counts at each shard count --------------------

// Minimal assimilator rig (the test_param_server harness, plus a plan).
struct ShardRig {
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
  ShardPlan plan;
  std::vector<double> accs;

  ShardRig(std::size_t shards, WireMode wire)
      : store(make_store("eventual", metrics)),
        data(make_synthetic_cifar({.height = 8,
                                   .width = 8,
                                   .train = 40,
                                   .validation = 40,
                                   .test = 10,
                                   .seed = 3})),
        model(make_resnet_lite(
            {.height = 8, .width = 8, .base_filters = 4, .blocks = 1}, 5)) {
    files.set_wire_codec(wire, 8);
    std::vector<std::size_t> layer_sizes(model.layer_count());
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      for (const Tensor* t : model.layer(i).params()) {
        layer_sizes[i] += t->numel();
      }
    }
    plan = ShardPlan::build(layer_sizes, shards);
    server = std::make_unique<GridServer>(engine, scheduler, trace, metrics,
                                          1, [](const Blob&) { return true; });
    schedule = std::make_unique<ConstantAlpha>(0.5);
    VcAsgdAssimilator::Options opts;
    opts.validation_subsample = 16;
    opts.wire_mode = wire;
    opts.plan = plan;
    assimilator = std::make_unique<VcAsgdAssimilator>(
        engine, *store, files, *server, *schedule, model,
        serial_exec_context(), data.validation, table1_catalog().server, opts,
        trace, metrics, Rng(1),
        [this](std::size_t, double acc) { accs.push_back(acc); });
    server->set_backend(assimilator.get());
    assimilator->publish_initial(model.flat_params());
  }

  std::uint64_t count(const std::string& name) const {
    return metrics.snapshot().counter(name);
  }

  void submit(WorkunitId id, Blob payload) {
    scheduler.register_client(0);
    Workunit wu;
    wu.id = id;
    wu.epoch = 1;
    wu.shard = static_cast<std::size_t>(id);
    scheduler.add_unit(wu);
    (void)scheduler.request_work(0, 1, engine.now());
    server->submit_result(0, wu, std::move(payload));
  }

  // Per-shard frames against `base` (hash-matching iff base == published at
  // `version`), bundled at shards > 1, bare frame at shards = 1.
  Blob encode(const std::vector<float>& base, const std::vector<float>& target,
              std::uint64_t version, WireMode wire) {
    std::vector<Blob> parts(plan.shards());
    for (std::size_t s = 0; s < plan.shards(); ++s) {
      const auto b = plan.view(std::span<const float>(base), s);
      const auto t = plan.view(std::span<const float>(target), s);
      parts[s] = wire == WireMode::delta
                     ? encode_params_delta(b, t, version)
                     : encode_params_q8(b, t, version);
    }
    return plan.shards() == 1 ? parts[0] : pack_shard_frames(parts);
  }
};

// Two uploads through the rig: one encoded against the published copy, a
// ring hit on every shard; then one against a stale base, whose hash matches
// no ring entry, a miss on every shard. The wire_codec.* counters count each
// frame once, whatever shard it belongs to.
void expect_hit_then_miss_counts(std::size_t shards, WireMode wire,
                                 std::uint64_t decoded, std::uint64_t misses,
                                 std::uint64_t dropped) {
  ShardRig rig(shards, wire);
  const std::vector<float> base = rig.model.flat_params();
  std::vector<float> target = base;
  for (auto& v : target) v += 0.25f;
  rig.submit(1, rig.encode(base, target, rig.assimilator->commits(), wire));
  rig.engine.run();
  std::vector<float> stale = base;
  for (auto& v : stale) v -= 1.0f;
  rig.submit(2, rig.encode(stale, target, rig.assimilator->commits(), wire));
  rig.engine.run();

  EXPECT_EQ(rig.count("wire_codec.frames_decoded"), decoded)
      << "shards=" << shards;
  EXPECT_EQ(rig.count("wire_codec.base_misses"), misses) << "shards=" << shards;
  EXPECT_EQ(rig.count("wire_codec.frames_dropped"), dropped)
      << "shards=" << shards;
}

TEST(ShardPlane, HitThenMissDecodeCountsAtOneShard) {
  // The bare frame decodes; the missed one is a lossless delta, so the upload
  // is dropped.
  expect_hit_then_miss_counts(1, WireMode::delta, 1, 1, 1);
}

TEST(ShardPlane, HitThenMissDecodeCountsSharded) {
  // Every shard's frame decodes. A missed delta upload drops at its first
  // shard; a missed q8 upload falls back to the published slice on all three.
  expect_hit_then_miss_counts(3, WireMode::delta, 3, 1, 1);
  expect_hit_then_miss_counts(3, WireMode::delta_q8, 3, 3, 0);
}

// Download side: pulls of two shard files under the delta protocol. The
// registry counts each pull once, whichever file it came from.
TEST(ShardPlane, DeltaPullCountsAcrossShardFiles) {
  obs::Registry metrics;
  FileServer files(metrics);
  files.set_wire_codec(WireMode::delta, 4);
  std::vector<float> v(512, 1.0f);
  const auto blob = [&] { return save_params(std::span<const float>(v)); };
  files.publish("params/0", blob(), true, /*delta_capable=*/true);
  files.publish("params/1", blob(), true, /*delta_capable=*/true);
  // Version 2 of each so a have_version=1 pull can be served as a delta.
  v[7] += 0.5f;
  files.publish("params/0", blob(), true, true);
  files.publish("params/1", blob(), true, true);
  EXPECT_TRUE(files.pull("params/0", 1).was_delta);
  EXPECT_TRUE(files.pull("params/1", 1).was_delta);
  // First contact: a full blob, outside the delta path.
  EXPECT_FALSE(files.pull("params/1", 0).was_delta);

  const obs::MetricsSnapshot m = metrics.snapshot();
  EXPECT_EQ(m.counter("file_server.fetches"), 3u);
  EXPECT_EQ(m.counter("file_server.delta_pulls"), 2u);
  EXPECT_EQ(m.counter("file_server.delta_fallbacks"), 0u);
  // Two deltas and one full blob billed, against three full blobs of 87
  // wire bytes each.
  EXPECT_EQ(files.wire_size("params/1"), 87u);
  EXPECT_EQ(m.counter("file_server.bytes_delta_wire"), 257u);
  EXPECT_EQ(m.counter("file_server.bytes_delta_full"), 3u * 87u);
}

// --- Shard bundles ----------------------------------------------------------

TEST(ShardPlane, BundleRoundtripAndValidation) {
  std::vector<float> base(300), target(300);
  Rng rng(11);
  for (auto& x : base) x = static_cast<float>(rng.normal(0.0, 1.0));
  for (std::size_t i = 0; i < target.size(); ++i) {
    target[i] = base[i] + 0.01f * static_cast<float>(i % 7);
  }
  const ShardPlan plan = ShardPlan::build({100, 100, 100}, 3);
  std::vector<Blob> parts(3);
  for (std::size_t s = 0; s < 3; ++s) {
    parts[s] = encode_params_delta(plan.view(std::span<const float>(base), s),
                                   plan.view(std::span<const float>(target), s),
                                   7);
  }
  const Blob bundle = pack_shard_frames(parts);
  EXPECT_TRUE(is_shard_bundle(bundle));
  EXPECT_FALSE(is_wire_frame(bundle));
  EXPECT_FALSE(is_shard_bundle(parts[0]));
  EXPECT_TRUE(validate_shard_bundle(bundle));

  const std::vector<Blob> unpacked = unpack_shard_frames(bundle);
  ASSERT_EQ(unpacked.size(), 3u);
  std::vector<float> decoded;
  for (std::size_t s = 0; s < 3; ++s) {
    const auto slice = decode_params(
        unpacked[s], plan.view(std::span<const float>(base), s));
    decoded.insert(decoded.end(), slice.begin(), slice.end());
  }
  EXPECT_EQ(std::memcmp(decoded.data(), target.data(),
                        target.size() * sizeof(float)),
            0);

  // Corruption anywhere must fail validation (body bytes or container).
  Blob corrupt = bundle;
  corrupt.data()[corrupt.size() / 2] ^= 0x40;
  EXPECT_FALSE(validate_shard_bundle(corrupt));
}

}  // namespace
}  // namespace vcdl
