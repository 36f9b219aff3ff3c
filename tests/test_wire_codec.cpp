// Wire codec suite (common/wire_codec.hpp): codec roundtrips, frame
// validation, the FileServer version-ring pull protocol, the fetch()
// version-pinning regression, and the end-to-end determinism + byte-savings
// contract (docs/SIMULATION.md §4b). Labelled tier1 + soak: the roundtrip
// fuzz at the bottom scales with VCDL_SOAK in ci/soak.sh.
#include "common/wire_codec.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/compress.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "grid/file_server.hpp"
#include "nn/model_io.hpp"
#include "obs/snapshot.hpp"
#include "testing/generators.hpp"
#include "testing/oracles.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using testing::PropConfig;
using testing::PropResult;
using testing::gen_blob;
using testing::prop_assert;
using testing::run_property;
using testing::tiny_image_spec;

std::vector<float> correlated_params(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

// A locally-trained copy: the base plus small updates on every weight.
std::vector<float> nudge(Rng& rng, const std::vector<float>& base,
                         double scale) {
  std::vector<float> v = base;
  for (auto& x : v) x += static_cast<float>(rng.normal(0.0, scale));
  return v;
}

// --- Mode names --------------------------------------------------------------

TEST(WireMode, NamesParseAndBadNameThrows) {
  EXPECT_EQ(wire_mode_from_name("full"), WireMode::full);
  EXPECT_EQ(wire_mode_from_name("delta"), WireMode::delta);
  EXPECT_EQ(wire_mode_from_name("delta_q8"), WireMode::delta_q8);
  EXPECT_THROW(wire_mode_from_name("gzip"), InvalidArgument);
  EXPECT_THROW(wire_mode_from_name(""), InvalidArgument);
}

// --- Blob-level deltas (download path) ---------------------------------------

TEST(BlobDelta, RoundTripsAcrossSizeChanges) {
  Rng rng(1);
  const Blob base = gen_blob(rng, 4096);
  for (const std::size_t target_size : {0u, 1u, 3u, 100u, 4096u, 6000u}) {
    Blob target(target_size);
    for (std::size_t i = 0; i < target.size(); ++i) {
      target.data()[i] =
          i < base.size() ? base.data()[i]
                          : static_cast<std::uint8_t>(rng.uniform_index(256));
    }
    const Blob encoded = delta_encode(base.view(), target.view());
    EXPECT_EQ(delta_decode(base.view(), encoded.view()), target);
  }
}

TEST(BlobDelta, EmptyBaseActsAsFullEncoding) {
  Rng rng(2);
  const Blob target = gen_blob(rng, 2000);
  const Blob encoded = delta_encode({}, target.view());
  EXPECT_EQ(delta_decode({}, encoded.view()), target);
}

TEST(BlobDelta, NearIdenticalBlobsEncodeMuchSmallerThanFull) {
  Rng rng(3);
  const std::vector<float> base_params = correlated_params(rng, 4000);
  const std::vector<float> next_params = nudge(rng, base_params, 1e-5);
  const Blob base = save_params(std::span<const float>(base_params));
  const Blob target = save_params(std::span<const float>(next_params));
  const Blob encoded = delta_encode(base.view(), target.view());
  const std::size_t full_wire = compressed_size(target.view());
  EXPECT_EQ(delta_decode(base.view(), encoded.view()), target);
  // Small per-weight updates leave small word differences, so the upper
  // zigzag byte planes are zeros the LZ pass collapses; the delta must
  // decisively beat recompressing the whole blob. (The achievable ratio is
  // bounded by the update magnitude — each weight truly carries
  // ~log2(delta * 2^24) bits — which is why this uses a fine-tuning-scale
  // nudge rather than a large one.)
  EXPECT_LT(encoded.size() * 2, full_wire);
}

TEST(BlobDelta, BadMagicAndSizeMismatchThrow) {
  Rng rng(4);
  const Blob base = gen_blob(rng, 256);
  Blob encoded = delta_encode(base.view(), base.view());
  Blob junk = encoded;
  junk.data()[0] ^= 0xFF;  // magic
  EXPECT_THROW(delta_decode(base.view(), junk.view()), CorruptData);
  const Blob cut(std::vector<std::uint8_t>(encoded.view().begin(),
                                           encoded.view().end() - 3));
  EXPECT_THROW(delta_decode(base.view(), cut.view()), CorruptData);
}

// --- Parameter frames (upload path) ------------------------------------------

TEST(ParamFrame, LosslessDeltaDecodesBitExact) {
  Rng rng(5);
  const std::vector<float> base = correlated_params(rng, 3000);
  const std::vector<float> target = nudge(rng, base, 1e-2);
  const Blob frame = encode_params_delta(base, target, /*base_version=*/7);
  ASSERT_TRUE(is_wire_frame(frame));
  ASSERT_TRUE(validate_frame(frame));
  const WireFrame header = read_frame_header(frame);
  EXPECT_EQ(header.mode, WireMode::delta);
  EXPECT_EQ(header.base_version, 7u);
  EXPECT_EQ(header.count, target.size());
  const std::vector<float> decoded = decode_params(frame, base);
  ASSERT_EQ(decoded.size(), target.size());
  EXPECT_EQ(std::memcmp(decoded.data(), target.data(),
                        target.size() * sizeof(float)),
            0);
}

TEST(ParamFrame, LosslessDeltaSmallerThanFullUpload) {
  Rng rng(6);
  const std::vector<float> base = correlated_params(rng, 5000);
  const std::vector<float> target = nudge(rng, base, 1e-3);
  const Blob frame = encode_params_delta(base, target, 1);
  const Blob full = save_params(std::span<const float>(target));
  EXPECT_LT(frame.size(), full.size());
}

TEST(ParamFrame, Q8ErrorBoundedByBlockStep) {
  Rng rng(7);
  const std::vector<float> base = correlated_params(rng, 2500);
  const std::vector<float> target = nudge(rng, base, 5e-2);
  const Blob frame = encode_params_q8(base, target, 3);
  ASSERT_TRUE(validate_frame(frame));
  EXPECT_EQ(read_frame_header(frame).mode, WireMode::delta_q8);
  const std::vector<float> decoded = decode_params(frame, base);
  ASSERT_EQ(decoded.size(), target.size());
  // Per-block linear quantization: |error| <= (block hi - lo) / 255 / 2,
  // plus float rounding headroom. Bound with the global delta range, which
  // dominates every block's.
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < target.size(); ++i) {
    const float d = target[i] - base[i];
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  const float bound = (hi - lo) / 255.0f * 0.51f + 1e-6f;
  for (std::size_t i = 0; i < target.size(); ++i) {
    ASSERT_LE(std::abs(decoded[i] - target[i]), bound) << "index " << i;
  }
}

TEST(ParamFrame, Q8UploadAtLeastFourTimesSmallerThanFull) {
  Rng rng(8);
  const std::vector<float> base = correlated_params(rng, 8192);
  // A realistic local-SGD update: most weights move a little, a minority
  // move a lot. The quantized bytes of the small movers cluster around the
  // block zero-point, which the LZ pass then compresses past the raw 8-bit
  // floor of exactly 4x.
  std::vector<float> target = base;
  for (auto& x : target) {
    x += static_cast<float>(
        rng.normal(0.0, rng.bernoulli(0.25) ? 5e-2 : 1e-4));
  }
  const Blob frame = encode_params_q8(base, target, 1);
  const Blob full = save_params(std::span<const float>(target));
  EXPECT_GE(full.size(), frame.size() * 4);

  // Even worst-case dense gaussian deltas (incompressible 8-bit symbols)
  // stay close to the 4x floor: block headers cost 8 bytes per 1024 weights.
  const Blob dense =
      encode_params_q8(base, nudge(rng, base, 1e-2), 1);
  EXPECT_GE(full.size(), dense.size() * 7 / 2);
}

TEST(ParamFrame, ZeroDeltaAndConstantBlocksRoundTrip) {
  Rng rng(9);
  const std::vector<float> base = correlated_params(rng, 1500);
  // Identical copy: every block quantizes with step 0.
  const std::vector<float> same = decode_params(
      encode_params_q8(base, base, 0), base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(same[i], base[i]) << "index " << i;
  }
  const std::vector<float> lossless =
      decode_params(encode_params_delta(base, base, 0), base);
  EXPECT_EQ(std::memcmp(lossless.data(), base.data(),
                        base.size() * sizeof(float)),
            0);
}

TEST(ParamFrame, HeaderCarriesBaseHashOfEncodeBase) {
  Rng rng(18);
  const std::vector<float> base = correlated_params(rng, 800);
  const std::vector<float> other = correlated_params(rng, 800);
  const std::vector<float> target = nudge(rng, base, 1e-2);
  const WireFrame d = read_frame_header(encode_params_delta(base, target, 4));
  const WireFrame q = read_frame_header(encode_params_q8(base, target, 4));
  // Both modes stamp the same params_hash of the base they encoded against;
  // a decoder holding different params under the same version number can
  // tell (the checkpoint-replay guard in VcAsgdAssimilator::decode_upload).
  EXPECT_EQ(d.base_hash, params_hash(base));
  EXPECT_EQ(q.base_hash, params_hash(base));
  EXPECT_NE(d.base_hash, params_hash(other));
  EXPECT_NE(d.base_hash, params_hash(target));
}

// Low-severity regression: a non-finite diff (diverged weight) used to feed
// NaN/Inf into the block's lo/hi and hand lround an undefined argument. Such
// diffs are excluded from the range and quantized to the block zero point;
// the frame stays valid and every decoded weight is finite.
TEST(ParamFrame, Q8NonFiniteDiffsEncodeFiniteAndBounded) {
  Rng rng(19);
  std::vector<float> base = correlated_params(rng, 2100);
  std::vector<float> target = nudge(rng, base, 1e-2);
  target[3] = std::numeric_limits<float>::quiet_NaN();
  target[1500] = std::numeric_limits<float>::infinity();
  target[2050] = -std::numeric_limits<float>::infinity();
  base[700] = std::numeric_limits<float>::quiet_NaN();  // NaN diff via base
  const Blob frame = encode_params_q8(base, target, 6);
  ASSERT_TRUE(validate_frame(frame));
  const std::vector<float> decoded = decode_params(frame, base);
  ASSERT_EQ(decoded.size(), target.size());
  float lo = 0.0f, hi = 0.0f;
  for (std::size_t i = 0; i < target.size(); ++i) {
    const float d = target[i] - base[i];
    if (!std::isfinite(d)) continue;
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  const float bound = (hi - lo) / 255.0f * 0.51f + 1e-6f;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (std::isfinite(base[i])) {
      ASSERT_TRUE(std::isfinite(decoded[i])) << "index " << i;
    }
    const float d = target[i] - base[i];
    if (std::isfinite(d)) {
      ASSERT_LE(std::abs(decoded[i] - target[i]), bound) << "index " << i;
    }
  }
}

TEST(ParamFrame, FullParamBlobIsNotAFrame) {
  Rng rng(10);
  const std::vector<float> params = correlated_params(rng, 500);
  const Blob full = save_params(std::span<const float>(params));
  EXPECT_FALSE(is_wire_frame(full));
  EXPECT_FALSE(validate_frame(full));
  EXPECT_THROW(read_frame_header(full), CorruptData);
}

TEST(ParamFrame, EveryByteFlipIsDetected) {
  Rng rng(11);
  const std::vector<float> base = correlated_params(rng, 64);
  const std::vector<float> target = nudge(rng, base, 1e-2);
  const Blob frame = encode_params_delta(base, target, 2);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Blob corrupt = frame;
    corrupt.data()[i] ^= 0x41;
    // The flip must never produce a frame that both validates and decodes:
    // either the structure breaks, the checksum catches it, or decode
    // throws. Silent acceptance would poison the α-blend.
    if (validate_frame(corrupt)) {
      ADD_FAILURE() << "byte flip at " << i << " validated";
    } else {
      EXPECT_THROW((void)decode_params(corrupt, base), CorruptData)
          << "byte " << i;
    }
  }
}

TEST(ParamFrame, BaseSizeMismatchThrows) {
  Rng rng(12);
  const std::vector<float> base = correlated_params(rng, 300);
  const Blob frame = encode_params_delta(base, base, 1);
  const std::vector<float> wrong(base.begin(), base.begin() + 200);
  EXPECT_THROW((void)decode_params(frame, wrong), CorruptData);
}

// --- FileServer pull protocol ------------------------------------------------

Blob param_blob(Rng& rng, std::size_t n) {
  const std::vector<float> params = correlated_params(rng, n);
  return save_params(std::span<const float>(params));
}

Blob republished_blob(Rng& rng, const Blob& previous) {
  std::vector<float> params = load_params(previous);
  for (auto& x : params) x += static_cast<float>(rng.normal(0.0, 1e-5));
  return save_params(std::span<const float>(params));
}

TEST(FileServerPull, DeltaBilledWhenBaseInRing) {
  Rng rng(13);
  obs::Registry metrics;
  FileServer fs(metrics);
  fs.set_wire_codec(WireMode::delta, /*version_ring=*/4);
  Blob v1 = param_blob(rng, 4000);
  Blob v2 = republished_blob(rng, v1);
  fs.publish("params", std::move(v1), /*compress=*/true,
             /*delta_capable=*/true);

  const auto first = fs.pull("params", /*have_version=*/0);
  EXPECT_FALSE(first.was_delta);
  EXPECT_EQ(first.version, 1u);
  EXPECT_EQ(first.wire_bytes, fs.wire_size("params"));

  fs.publish("params", std::move(v2), true, true);
  const auto second = fs.pull("params", first.version);
  EXPECT_TRUE(second.was_delta);
  EXPECT_EQ(second.version, 2u);
  // The acceptance bar: a delta pull costs under half the full blob.
  EXPECT_LT(second.wire_bytes * 2, fs.wire_size("params"));

  const obs::MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counter("file_server.delta_pulls"), 1u);
  EXPECT_EQ(s.counter("file_server.delta_fallbacks"), 0u);
  EXPECT_EQ(s.counter("file_server.bytes_delta_full"),
            first.wire_bytes + fs.wire_size("params"));
  EXPECT_EQ(s.counter("file_server.bytes_delta_wire"),
            first.wire_bytes + second.wire_bytes);
}

TEST(FileServerPull, SameVersionRepullIsNearlyFree) {
  Rng rng(14);
  FileServer fs;
  fs.set_wire_codec(WireMode::delta, 4);
  fs.publish("params", param_blob(rng, 4000), true, true);
  const auto first = fs.pull("params", 0);
  // Non-sticky files are re-pulled every workunit; when nothing changed the
  // delta against the client's own version is a handful of header bytes.
  const auto again = fs.pull("params", first.version);
  EXPECT_TRUE(again.was_delta);
  // An all-zero difference stream still pays LZ match tokens (~2 bytes per
  // 131-byte run), so "nearly free" means a few hundred bytes for a 16 KB
  // blob — bound it at 5% of the full wire cost.
  EXPECT_LT(again.wire_bytes * 20, fs.wire_size("params"));
}

TEST(FileServerPull, AgedOutVersionFallsBackToFullBlob) {
  Rng rng(15);
  FileServer fs;
  fs.set_wire_codec(WireMode::delta, /*version_ring=*/2);
  Blob blob = param_blob(rng, 2000);
  fs.publish("params", Blob(blob), true, true);
  const auto first = fs.pull("params", 0);
  for (int i = 0; i < 4; ++i) {  // push version 1 out of the 2-deep ring
    blob = republished_blob(rng, blob);
    fs.publish("params", Blob(blob), true, true);
  }
  const auto stale = fs.pull("params", first.version);
  EXPECT_FALSE(stale.was_delta);
  EXPECT_EQ(stale.wire_bytes, fs.wire_size("params"));
  EXPECT_EQ(fs.stats().delta_fallbacks, 1u);
}

TEST(FileServerPull, FullModeBillsExactlyLikeFetch) {
  Rng rng(16);
  obs::Registry metrics;
  FileServer fs(metrics);  // default codec: full
  fs.publish("params", param_blob(rng, 2000), true, true);
  const auto a = fs.pull("params", 0);
  const auto b = fs.pull("params", a.version);
  EXPECT_FALSE(a.was_delta);
  EXPECT_FALSE(b.was_delta);
  EXPECT_EQ(a.wire_bytes, fs.wire_size("params"));
  EXPECT_EQ(b.wire_bytes, fs.wire_size("params"));
  EXPECT_EQ(metrics.snapshot().counter("file_server.delta_pulls"), 0u);
  EXPECT_EQ(metrics.snapshot().counter("file_server.bytes_wire"),
            2 * fs.wire_size("params"));
}

// Satellite regression: pull() payloads are version-pinned. Before
// the shared_ptr payload, publish() replaced the Entry's Blob in place and a
// held reference dangled — exactly the lifetime of an in-flight simulated
// transfer that straddles a republish.
TEST(FileServerPull, PayloadSurvivesRepublishMidTransfer) {
  Rng rng(17);
  FileServer fs;
  fs.set_wire_codec(WireMode::delta, 4);
  Blob v1 = param_blob(rng, 3000);
  const Blob v1_copy = v1;
  fs.publish("params", std::move(v1), true, true);

  // Transfer starts: the client holds the version-1 payload...
  const std::shared_ptr<const Blob> in_flight = fs.pull("params", 0).payload;
  // ...and the assimilator republishes twice before it completes.
  fs.publish("params", republished_blob(rng, v1_copy), true, true);
  fs.publish("params", param_blob(rng, 3000), true, true);

  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(*in_flight, v1_copy);  // still the bytes the transfer started with
  EXPECT_EQ(load_params(*in_flight), load_params(v1_copy));
}

// --- End-to-end: determinism + measured byte savings -------------------------

ExperimentSpec codec_spec(const std::string& mode) {
  ExperimentSpec spec = tiny_image_spec(/*trace=*/true);
  spec.wire_codec = mode;
  return spec;
}

TEST(WireCodecE2E, LosslessDeltaRunsAreDeterministicAndHalveParamBytes) {
  VcTrainer a(codec_spec("delta"));
  const TrainResult ra = a.run();
  VcTrainer b(codec_spec("delta"));
  const TrainResult rb = b.run();

  // Same-seed lossless runs are TraceDigest-, metrics- and params-identical.
  EXPECT_GT(a.trace().digest().events, 0u);
  EXPECT_EQ(a.trace().digest(), b.trace().digest());
  EXPECT_EQ(ra.metrics.to_json(), rb.metrics.to_json());
  EXPECT_EQ(params_hash(ra.final_params), params_hash(rb.final_params));

  // The codec actually engaged and paid off: parameter pulls cost less than
  // half of what the same pulls would have moved as full blobs.
  const obs::MetricsSnapshot& m = ra.metrics;
  EXPECT_GT(m.counter("file_server.delta_pulls"), 0u);
  EXPECT_GT(m.counter("file_server.bytes_delta_full"), 0u);
  EXPECT_LE(m.counter("file_server.bytes_delta_wire") * 2,
            m.counter("file_server.bytes_delta_full"));
  EXPECT_LT(m.counter("file_server.bytes_wire"),
            m.counter("file_server.bytes_delta_full"));

  // Lossless means training still works: both epochs completed with finite
  // published parameters.
  EXPECT_EQ(ra.epochs.size(), codec_spec("delta").max_epochs);
  for (const float p : ra.final_params) ASSERT_TRUE(std::isfinite(p));
}

TEST(WireCodecE2E, FullModeKeepsDeltaCountersAtZero) {
  VcTrainer t(codec_spec("full"));
  const TrainResult r = t.run();
  EXPECT_EQ(r.metrics.counters.at("file_server.delta_pulls"), 0u);
  EXPECT_EQ(r.metrics.counters.at("file_server.bytes_delta_wire"), 0u);
  EXPECT_EQ(r.metrics.counters.at("file_server.bytes_delta_full"), 0u);
  EXPECT_EQ(r.metrics.counters.at("wire_codec.frames_decoded"), 0u);
}

TEST(WireCodecE2E, QuantizedUploadsShrinkPerResultAndStillLearn) {
  VcTrainer full(codec_spec("full"));
  const TrainResult rf = full.run();
  VcTrainer q8(codec_spec("delta_q8"));
  const TrainResult rq = q8.run();

  // Per-upload average (event counts differ across modes because billed
  // bytes change transfer timings): q8 frames are ~4x smaller than full
  // parameter blobs; assert a conservative 3x.
  const auto per_upload = [](const TrainResult& r) {
    return static_cast<double>(r.metrics.counter("client.bytes_uploaded")) /
           static_cast<double>(r.metrics.counters.at("client.completed"));
  };
  EXPECT_GE(per_upload(rf), per_upload(rq) * 3.0);

  // Lossy but sane: the run completes and final accuracy stays within a few
  // points of the full-precision run (the ISSUE's ablation contract; the
  // tiny two-epoch workload is noisy, so allow generous slack).
  EXPECT_EQ(rq.epochs.size(), rf.epochs.size());
  EXPECT_GT(rq.final_epoch().mean_subtask_acc,
            rf.final_epoch().mean_subtask_acc - 0.05);
  for (const float p : rq.final_params) ASSERT_TRUE(std::isfinite(p));
  EXPECT_GT(rq.metrics.counters.at("wire_codec.frames_decoded"), 0u);
  // Quantization must actually flow through the blend — if the assimilator
  // silently fell back to full payloads the parameter trajectories would
  // match bit for bit.
  ASSERT_EQ(rq.final_params.size(), rf.final_params.size());
  EXPECT_NE(std::memcmp(rq.final_params.data(), rf.final_params.data(),
                        rf.final_params.size() * sizeof(float)),
            0);
}

// --- Roundtrip fuzz (scales with VCDL_SOAK via ci/soak.sh) -------------------

TEST(WireCodecFuzz, RoundTripsUnderRandomBasesAndModes) {
  PropConfig cfg;
  cfg.name = "wire-codec.roundtrip";
  cfg.suite = "test_wire_codec";
  cfg.trials = 25;
  cfg.max_size = 24;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const std::size_t n = 1 + rng.uniform_index(
                                  static_cast<std::size_t>(size) * 120 + 1);
    std::vector<float> base(n), target(n);
    const double scale = std::pow(10.0, -3.0 * rng.uniform());
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = static_cast<float>(rng.normal(0.0, 1.0));
      // Mix of untouched, nudged, and completely replaced weights.
      switch (rng.uniform_index(3)) {
        case 0: target[i] = base[i]; break;
        case 1:
          target[i] = base[i] + static_cast<float>(rng.normal(0.0, scale));
          break;
        default: target[i] = static_cast<float>(rng.normal(0.0, 1.0)); break;
      }
    }
    // Lossless frame: bit-exact.
    const Blob frame = encode_params_delta(base, target, n);
    prop_assert(validate_frame(frame), "lossless frame failed validation");
    const std::vector<float> decoded = decode_params(frame, base);
    prop_assert(std::memcmp(decoded.data(), target.data(),
                            n * sizeof(float)) == 0,
                "lossless decode not bit-exact at n=" + std::to_string(n));

    // Quantized frame: error bounded by the global delta range's step.
    const Blob qframe = encode_params_q8(base, target, n);
    prop_assert(validate_frame(qframe), "q8 frame failed validation");
    const std::vector<float> qdecoded = decode_params(qframe, base);
    float lo = 0.0f, hi = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      lo = std::min(lo, target[i] - base[i]);
      hi = std::max(hi, target[i] - base[i]);
    }
    const float bound = (hi - lo) / 255.0f * 0.51f + 1e-6f;
    for (std::size_t i = 0; i < n; ++i) {
      prop_assert(std::abs(qdecoded[i] - target[i]) <= bound,
                  "q8 decode out of bounds at i=" + std::to_string(i));
    }

    // Blob-level delta + LZ roundtrip across random contents and size
    // changes (the compress edge-case fuzz folded into the harness).
    const Blob blob_base = gen_blob(rng, static_cast<std::size_t>(size) * 64);
    const Blob blob_target =
        rng.bernoulli(0.5)
            ? gen_blob(rng, static_cast<std::size_t>(size) * 64)
            : blob_base;
    const Blob enc = delta_encode(blob_base.view(), blob_target.view());
    prop_assert(delta_decode(blob_base.view(), enc.view()) == blob_target,
                "blob delta roundtrip mismatch");
    prop_assert(decompress(compress(blob_target)) == blob_target,
                "compress roundtrip mismatch");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

}  // namespace
}  // namespace vcdl
