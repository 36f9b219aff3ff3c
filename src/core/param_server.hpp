// VC-ASGD parameter server (assimilator backend) — §III-C, §III-D.
//
// Each of the Pn parameter-server workers processes results handed to it by
// the grid server. For one result the worker:
//   1. reads the shared server parameter copy W_s from the store,
//   2. applies Eq. (1)  W_s ← α·W_s + (1−α)·W_c  (real arithmetic),
//   3. computes the validation accuracy of the new W_s (real forward passes;
//      virtual duration models CPU contention between concurrently busy
//      workers on the shared server instance),
//   4. writes W_s back and republishes the parameter file for clients.
//
// With the *eventual* store, steps 1 and 4 are separate virtual-time events,
// so two overlapping workers race exactly like concurrent Redis clients and
// the loser's blend is silently clobbered (counted by the store). With the
// *strong* store, the read-blend-write is one transaction serialized on a
// virtual lock, reproducing MySQL's behaviour and its 1.29 s update latency.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/rng.hpp"
#include "common/wire_codec.hpp"
#include "core/alpha_schedule.hpp"
#include "core/shard_plan.hpp"
#include "data/dataset.hpp"
#include "grid/file_server.hpp"
#include "grid/server.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "sim/faults.hpp"
#include "sim/instance.hpp"
#include "sim/resource.hpp"
#include "storage/kvstore.hpp"

namespace vcdl {

// --- The upload format -------------------------------------------------------
//
// All three ends of a client upload live here: encode_upload on the client,
// validate_upload as the grid server's corruption screen, and the
// assimilator's decode_upload. Under WireMode::full the upload is a
// save_params blob; under delta/delta_q8 it is one wire frame per shard of
// the plan, each against that shard's slice of the training base. A
// one-shard upload is the bare frame, byte-identical to the monolithic
// plane, so bundles (pack_shard_frames) exist only at >= 2 shards.

/// Encodes a subtask's trained `params`, which started from `base` at
/// commit `base_version` (`base` may be empty under WireMode::full), one
/// shard frame after another on the calling thread.
Blob encode_upload(WireMode mode, const ShardPlan& plan,
                   std::span<const float> base, std::span<const float> params,
                   std::uint64_t base_version);

/// The grid server's corruption screen (a ResultValidator). Frames and
/// bundles carry their own checksums, so no decode base is needed; full
/// blobs go through load_params.
bool validate_upload(const Blob& payload);

class VcAsgdAssimilator : public AssimilatorBackend {
 public:
  struct Options {
    double validate_work = 110.0;          // abstract compute per validation
    std::size_t validation_subsample = 128;
    /// Wire codec for parameter traffic (common/wire_codec.hpp). With a
    /// non-`full` mode, the parameter file is published delta-capable and
    /// client uploads arrive as frames decoded against the base ring.
    WireMode wire_mode = WireMode::full;
    /// Past published versions kept as upload decode bases (and mirrored by
    /// the file server's download ring).
    std::size_t version_ring = 8;
    /// Norm-deviation gate on the VC-ASGD blend (grid/consensus.hpp,
    /// blend_outlier): a decoded client copy deviating from the current
    /// server copy by more than this relative-L2 factor is dropped instead
    /// of blended — the last line of defense against byzantine results that
    /// survive (or bypass) replica consensus. 0 disables the guard.
    double blend_outlier_threshold = 0.0;
    /// Sharded parameter plane (core/shard_plan.hpp): each shard gets its
    /// own store key ("params/<i>"), parameter file, version ring and
    /// wire-codec base ring; the VC-ASGD blend and the commit run per shard
    /// slice. An empty plan (default) means one monolithic shard — store
    /// keys, traces and metrics identical to the pre-shard plane.
    ShardPlan plan;
  };

  /// `on_assimilated(epoch, subtask_val_acc)` fires once per assimilated
  /// result, after the store write lands. Counts into `metrics`, the run's
  /// registry.
  VcAsgdAssimilator(SimEngine& engine, KvStore& store, FileServer& files,
                    GridServer& server, const AlphaSchedule& schedule,
                    Model eval_model, const Dataset& validation,
                    InstanceType server_instance, Options options,
                    TraceLog& trace, obs::Registry& metrics, Rng rng,
                    std::function<void(std::size_t, double)> on_assimilated);

  void assimilate(ResultEnvelope env, std::size_t ps_index,
                  std::function<void()> on_done) override;

  /// Attaches the run's fault injector (nullptr = fault-free; the default).
  /// Store operations may then fail (the worker backs off and retries with
  /// capped exponential delay) or run at a latency-spike multiple.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Latest parameter vector written by any worker (the published copy that
  /// clients train from; kept in sync with the file server blob).
  const std::vector<float>& published_params() const { return published_; }

  /// Seeds the store + published copy + parameter file with initial weights.
  /// Also the checkpoint-replay hook: re-installing a snapshot through here
  /// rewinds the store, the parameter file, and the published copy at once.
  void publish_initial(const std::vector<float>& params);

  /// Worker pool for the validation forward passes (null = serial). Models
  /// the parameter server's vCPUs doing the real compute.
  void set_exec_pool(ThreadPool* pool) { exec_.pool = pool; }

  /// Commits applied so far — the logical clock gradient age is measured in.
  /// All shards commit in lockstep, so one counter covers the whole plane.
  std::uint64_t commits() const { return commits_; }

  /// The resolved slicing (Options::plan, or the one-slice plan inferred at
  /// publish_initial for a monolithic configuration).
  const ShardPlan& plan() const { return plan_; }

  /// Side-effect-free payload decode for replica-consensus equivalence
  /// (ConsensusDecoder): the peek mode of decode_upload. No metrics move and
  /// no fallback decode happens — a ring-missed frame returns nullopt (it
  /// forms a singleton class rather than mispairing with honest replicas).
  /// Malformed payloads never reach here (the grid server validates first).
  std::optional<std::vector<float>> peek_decode(const Blob& payload) const {
    return decode_upload(payload, /*peek=*/true);
  }

  /// Called by the trainer when a client *starts computing* `unit`: records
  /// the commit count its gradient will be based on. When the unit's result
  /// is later assimilated, "assimilator.gradient_age" observes how many
  /// commits landed in between — the staleness distribution VC-ASGD's α
  /// schedule exists to absorb (§III-C).
  void note_exec_base(WorkunitId unit);

 private:
  /// Virtual seconds one validation takes given current worker contention.
  SimTime validation_time() const;
  /// Store key / file name for shard `s` ("params" on a one-shard plan).
  std::string shard_key(std::size_t s) const {
    return plan_.shard_key(kParamsName, s);
  }
  /// Synchronously reads every shard's store value into one full vector.
  /// The per-shard KvStore calls happen inside a single virtual-time read
  /// event (latency is modeled by the caller's schedule delay), so a
  /// one-shard plan performs exactly the monolithic read.
  std::vector<float> read_shards(std::vector<std::uint64_t>& read_versions);
  /// Writes every shard slice (one store put + file publish per shard; a
  /// zero read version is a blind write), makes `params` the published
  /// copy, and records it in the base rings at the current commit count.
  void write_shards(const std::vector<float>& params,
                    const std::vector<std::uint64_t>& read_versions);
  /// One assimilation attempt; reschedules itself on injected store failures.
  void try_assimilate(std::shared_ptr<ResultEnvelope> env,
                      std::shared_ptr<std::function<void()>> done,
                      std::size_t ps_index, std::size_t attempt);
  /// Observes the modeled store latencies of one read-blend-write.
  void observe_store_latency(double latency_factor);
  /// The server copy after one result's Eq. (1), and whether it changed.
  struct Blend {
    std::vector<float> params;
    std::vector<std::uint64_t> read_versions;
    bool applied = false;
  };
  /// Reads every shard, decodes the upload, and applies Eq. (1) per shard
  /// slice. A dropped upload (ring-missed lossless delta, or a blend-guard
  /// rejection: a decoded copy deviating from the server copy beyond
  /// blend_outlier_threshold, traced and counted) leaves `applied` false.
  Blend blend(const ResultEnvelope& env, double alpha);
  /// Releases the unit's base-ring pins, then commits an applied blend:
  /// observes its gradient age, advances the lockstep commit counter once
  /// and writes every shard back.
  void commit_blend(WorkunitId unit, const Blend& blended);
  /// Validates `params` (real forward passes, virtual duration), then
  /// reports the unit's accuracy and calls `done` — unless the server
  /// crashed in between (generation `gen` is stale).
  void validate_and_report(std::shared_ptr<ResultEnvelope> env,
                           std::shared_ptr<std::function<void()>> done,
                           const std::vector<float>& params,
                           std::uint64_t gen);
  /// Decodes an upload: full blobs through load_params; a wire frame, or
  /// each part of a bundle (a bare frame is a one-part bundle), against its
  /// shard's base ring at the version the client trained from, guarded by
  /// the frame's base_hash so a checkpoint replay that reuses version
  /// numbers can never supply the wrong base. A bundle from another plan is
  /// dropped. On a ring miss the two modes diverge:
  ///  * q8 frames carry *float-space* diffs, so applying them to the
  ///    current published slice degrades to plain update application;
  ///  * lossless delta frames carry *bit-space* word diffs — against any
  ///    other base they decode to arbitrary floats — so the whole upload is
  ///    dropped (nullopt).
  /// Hits, misses and drops are counted in the wire_codec.* registry
  /// counters. In peek mode nothing is counted and any ring miss returns
  /// nullopt.
  std::optional<std::vector<float>> decode_upload(const Blob& payload,
                                                  bool peek) const;
  /// Records the just-committed published copy in the base ring and prunes
  /// versions no in-flight unit is pinned to.
  void remember_base();

  // Registry handles, resolved once at construction.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& updates = registry.counter("assimilator.updates_applied");
    obs::Counter& outage_retries = registry.counter("store.outage_retries");
    // Blend-guard drops (Options::blend_outlier_threshold).
    obs::Counter& blend_rejected = registry.counter("consensus.blend_rejected");
    // Modeled (virtual-time) latencies.
    obs::Histogram& alpha_mix_s =
        registry.histogram("assimilator.alpha_mix_s", {0.0, 10.0, 50});
    obs::Histogram& gradient_age =
        registry.histogram("assimilator.gradient_age", {0.0, 64.0, 64});
    obs::Histogram& read_s = registry.histogram("store.read_s", {0.0, 5.0, 50});
    obs::Histogram& write_s =
        registry.histogram("store.write_s", {0.0, 5.0, 50});
    obs::Gauge& staleness = registry.gauge("store.staleness_at_read");
    // Wire-codec upload decoding (common/wire_codec.hpp).
    obs::Counter& frames_decoded =
        registry.counter("wire_codec.frames_decoded");
    obs::Counter& base_misses = registry.counter("wire_codec.base_misses");
    obs::Counter& frames_dropped =
        registry.counter("wire_codec.frames_dropped");
  };

  SimEngine& engine_;
  KvStore& store_;
  FileServer& files_;
  GridServer& server_;
  const AlphaSchedule& schedule_;
  Model eval_model_;
  const Dataset& validation_;
  InstanceType server_instance_;
  Options options_;
  TraceLog& trace_;
  Metrics metrics_;
  Rng rng_;
  std::function<void(std::size_t, double)> on_assimilated_;
  FaultInjector* faults_ = nullptr;
  ExecContext exec_;  // threads the validation forwards; arena reused per run
  RetryPolicy store_retry_;  // backoff for injected store outages
  SimMutex txn_lock_;  // strong-store transaction serialization
  std::vector<float> published_;
  std::uint64_t commits_ = 0;
  // unit → commit counts its replicas started from, newest last. A unit can
  // run as several replicas (redundancy, timeout reissue), each trained from
  // whatever commit was current when *it* started; all of those bases stay
  // pinned in the ring until the unit's first valid result resolves.
  std::map<WorkunitId, std::vector<std::uint64_t>> exec_base_;
  struct BaseEntry {
    std::uint64_t hash = 0;  // params_hash — must match a frame's base_hash
    std::vector<float> params;  // this shard's slice at that commit
  };
  // Per shard: commit count → published slice at that commit, the decode
  // bases for delta-encoded uploads. Maintained only under a non-`full`
  // wire mode; versions pinned by exec_base_ survive past the ring
  // capacity. One ring on a one-shard plan — the monolithic base ring.
  std::vector<std::map<std::uint64_t, BaseEntry>> base_rings_;
  // Resolved at publish_initial (Options::plan, or single(total)).
  ShardPlan plan_;
};

}  // namespace vcdl
