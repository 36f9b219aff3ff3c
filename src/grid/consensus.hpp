// Replica consensus in front of assimilation — BOINC majority validation.
//
// The grid's default acceptance policy is first-checksum-valid-wins, which a
// byzantine volunteer defeats trivially: its payload is checksum-valid, only
// the parameter *values* are wrong (sim/faults.hpp, AdversaryModel). BOINC's
// answer is computational redundancy: issue each workunit to k clients, hold
// the uploads, and only assimilate once m of them agree. This buffer
// implements that quorum:
//
//   * replicas are grouped into equivalence classes — exact payload-hash
//     classes when tolerance == 0, relative-L2 distance on the *decoded*
//     parameter vectors otherwise (honest replicas of the same unit are never
//     bit-identical here: each trains from whatever published params were
//     current when it started, so real runs need tolerance > 0);
//   * the first class to reach m = min(quorum, k) members is promoted — its
//     first-received replica becomes the canonical result, every replica in a
//     losing class is outvoted (the server feeds those clients to
//     Scheduler::report_invalid, denting their integrity reputation);
//   * when all k replicas arrive without any class reaching m, or the
//     fallback deadline fires first, the buffer falls back to plurality:
//     the largest (earliest on ties) class wins. A wrong plurality winner is
//     still subject to the assimilator's blend outlier guard (blend_outlier).
//
// Counters live under the "consensus.*" taxonomy (consensus_metric_names()).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "grid/workunit.hpp"
#include "obs/metrics.hpp"

namespace vcdl {

/// Decodes an uploaded payload to its parameter vector for tolerance-based
/// equivalence (the assimilator's peek_decode: full blobs and ring-hit wire
/// frames decode, ring misses return nullopt and form singleton classes).
using ConsensusDecoder =
    std::function<std::optional<std::vector<float>>(const Blob&)>;

class ConsensusBuffer {
 public:
  struct Config {
    /// Matching replicas required to promote (m); clamped to the unit's
    /// effective replication k, so solo-replication units promote instantly.
    std::size_t quorum = 2;
    /// Equivalence tolerance: 0 compares raw payload bytes (exact hash),
    /// > 0 compares decoded parameter vectors by relative L2 distance.
    double tolerance = 0.0;
    /// Virtual seconds the caller should wait after the first held replica
    /// before flushing the unit (quorum unreachable by deadline).
    SimTime fallback_s = 300.0;
  };

  enum class Outcome : std::uint8_t {
    held,      // buffered; quorum not yet decided
    promoted,  // an equivalence class reached m — winner is canonical
    fallback,  // promoted by plurality (all replicas in, no m-agreement)
  };

  struct Submission {
    Outcome outcome = Outcome::held;
    /// Set for promoted/fallback: the canonical result to assimilate.
    std::optional<ResultEnvelope> winner;
    /// Clients whose replicas disagreed with the winning class.
    std::vector<ClientId> outvoted;
    std::size_t agreeing = 0;  // winning-class size (promoted/fallback)
  };

  /// Counts into `metrics`, the run's registry.
  ConsensusBuffer(Config config, ConsensusDecoder decoder,
                  obs::Registry& metrics);

  /// Buffers one validated replica. `effective_k` is the total replica count
  /// the scheduler settled on for this unit (adaptive replication may differ
  /// from Workunit::replication). A re-upload from a client already holding
  /// a replica replaces its payload. Never call for a retired unit.
  Submission submit(const Workunit& unit, ClientId client, Blob payload,
                    SimTime received_at, std::size_t effective_k);

  /// Deadline fallback: promotes the unit's plurality class now. Returns
  /// nullopt when nothing is held for the unit.
  std::optional<Submission> flush(WorkunitId unit);

  bool holding(WorkunitId unit) const { return units_.count(unit) > 0; }
  std::size_t held_count(WorkunitId unit) const;
  std::size_t held_units() const { return units_.size(); }
  /// Replicas currently buffered across all units.
  std::size_t held_replicas() const;

  /// Crash path: drops every held replica and reports (unit, holders) so the
  /// caller can reissue them at the scheduler — a lost replica that stayed
  /// accounted as "held" would strand its workunit forever.
  std::vector<std::pair<WorkunitId, std::vector<ClientId>>> drain();

  const Config& config() const { return config_; }

 private:
  struct Replica {
    ClientId client = 0;
    Blob payload;
    SimTime received_at = 0.0;
    std::uint64_t order = 0;      // arrival ordinal (stable tie-breaks)
    std::uint64_t hash = 0;       // payload byte hash (tolerance == 0 mode)
    std::optional<std::vector<float>> decoded;  // tolerance > 0 mode
    std::size_t cls = 0;          // equivalence-class index within the unit
  };

  struct HeldUnit {
    Workunit unit;
    std::size_t effective_k = 1;
    std::vector<Replica> replicas;
    std::size_t classes = 0;
  };

  bool equivalent(const Replica& a, const Replica& b) const;
  void classify(HeldUnit& held, Replica& fresh);
  Submission promote(WorkunitId id, std::size_t winning_class,
                     Outcome outcome);
  /// Largest class, earliest first arrival on ties.
  std::size_t plurality_class(const HeldUnit& held) const;

  // Registry handles, resolved once at construction.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& held = registry.counter("consensus.replicas_held");
    // Units promoted by an m-match, and by plurality (no quorum).
    obs::Counter& quorum = registry.counter("consensus.quorum_promoted");
    obs::Counter& fallback = registry.counter("consensus.fallback_promoted");
    // Replicas in losing classes, and replicas dropped by drain().
    obs::Counter& outvoted = registry.counter("consensus.results_outvoted");
    obs::Counter& flushed = registry.counter("consensus.replicas_flushed");
  };

  Config config_;
  ConsensusDecoder decoder_;
  std::map<WorkunitId, HeldUnit> units_;
  std::uint64_t arrival_counter_ = 0;
  Metrics metrics_;
};

/// Last-line defense for outliers that survive (or bypass) consensus: true
/// when `update` deviates from `reference` by more than `threshold` in
/// relative L2 (‖u−r‖ / max(‖r‖, ε)). A sign-flipped copy sits at deviation
/// ≈ 2, an honest local-training delta well below 1. The assimilator counts
/// each rejection under "consensus.blend_rejected". threshold <= 0 disables
/// the guard.
bool blend_outlier(const std::vector<float>& reference,
                   const std::vector<float>& update, double threshold);

/// Every "consensus.<name>" counter the stack can emit, across its three
/// emission sites (ConsensusBuffer, Scheduler adaptive replication, the
/// assimilator's blend guard). The instrumentation-coverage test asserts set
/// equality against the registry after driving each site.
const std::vector<std::string>& consensus_metric_names();

}  // namespace vcdl
