// Parameter checkpointing for grid-server crash recovery (fault injection).
//
// The paper's platform assumes the server stack never dies; the chaos
// testbed (sim/faults.hpp) removes that assumption. The Checkpointer
// periodically snapshots the authoritative parameter value from the KvStore;
// after a GridServer crash the driver replays the last snapshot through a
// caller-supplied republish hook (store put + parameter-file publish +
// in-memory published copy), so clients resume training from the last
// checkpoint rather than from scratch. Updates assimilated after the last
// snapshot are lost — exactly the rewind a real parameter-store restart from
// backup exhibits.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "obs/metrics.hpp"
#include "storage/kvstore.hpp"

namespace vcdl {

class Checkpointer {
 public:
  /// `republish` re-installs a snapshot as the authoritative parameter state
  /// (typically through VcAsgdAssimilator::publish_initial: store put +
  /// file-server publish + published-copy reset). It receives one blob per
  /// key, in key order — one per shard of the parameter plane. A snapshot is
  /// only taken when every key is present (shards commit in lockstep, so a
  /// partial set never exists).
  using RepublishAll = std::function<void(const std::vector<Blob>&)>;

  /// Optional side-channel for non-parameter state (RNG stream cursors,
  /// counters, …). `capture` serializes it at snapshot() time; `restore`
  /// replays it after the parameter republish. Without this channel a
  /// restored run re-draws different task RNG streams than the run it is
  /// rewinding, so resume-equivalence (tests/test_equivalence.cpp) cannot
  /// hold.
  using CaptureState = std::function<Blob()>;
  using RestoreState = std::function<void(const Blob&)>;

  /// Counts snapshots and restores into `metrics`, the run's registry.
  Checkpointer(KvStore& store, std::vector<std::string> keys,
               RepublishAll republish, obs::Registry& metrics);

  void set_state_hooks(CaptureState capture, RestoreState restore);

  /// Copies the current store value under every key; false when any key is
  /// missing (nothing published yet).
  bool snapshot();

  /// Replays the last snapshot through the republish hook; false when no
  /// snapshot has been taken yet.
  bool restore();

  bool has_snapshot() const { return snap_.has_value(); }
  /// Snapshots taken so far (the "checkpoint.snapshots" counter).
  std::uint64_t snapshots() const { return snapshots_.value(); }

 private:
  KvStore& store_;
  std::vector<std::string> keys_;
  RepublishAll republish_;
  CaptureState capture_state_;
  RestoreState restore_state_;
  std::optional<std::vector<Blob>> snap_;
  std::optional<Blob> state_snap_;
  obs::Counter& snapshots_;
  obs::Counter& restores_;
};

}  // namespace vcdl
