// Deterministic fault injection — the unreliability testbed (§II, §III-B).
//
// The paper's claim is that a VC-like platform stays productive on unreliable
// machines, yet the seed simulator could only fail one way: client
// preemption. This subsystem adds the rest of the failure surface BOINC
// treats as first-class (Anderson 2018): transfer drops and stalls, result
// payload corruption, grid-server crashes, and parameter-store outages /
// latency spikes. All randomness flows through one `Rng` stream owned by the
// injector, so a chaos run is a pure function of its seed — and a *disabled*
// injector draws nothing, leaving fault-free runs bit-identical to builds
// that never heard of this file.
//
// The injector only decides *what* fails; recovery is the consumers' job:
//   * SimClient retries failed transfers with capped exponential backoff and
//     abandons the subtask via Scheduler::report_failure() after max_attempts
//     (fast-fail requeue instead of waiting out the deadline);
//   * GridServer::crash()/restore() drops un-assimilated results back into
//     the ready queue, and the trainer replays its last checkpoint;
//   * the result validator catches corrupted payloads, which feed the
//     scheduler's reliability EMA through Scheduler::report_invalid().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace vcdl {

/// Where a fault is injected; each site has an independent fault process.
enum class FaultSite : std::uint8_t { download, upload, store };

/// Per-transfer fault process for one site (download or upload).
struct TransferFaults {
  double drop_prob = 0.0;    // transfer fails outright; caller backs off
  double stall_prob = 0.0;   // transfer completes but takes stall_factor longer
  double stall_factor = 8.0;

  bool any() const { return drop_prob > 0.0 || stall_prob > 0.0; }
};

/// Parameter-store fault process (outage + latency spikes).
struct StoreFaults {
  double fail_prob = 0.0;    // operation rejected; the PS backs off and retries
  double slow_prob = 0.0;    // operation succeeds at slow_factor the latency
  double slow_factor = 10.0;

  bool any() const { return fail_prob > 0.0 || slow_prob > 0.0; }
};

/// Complete fault schedule for one run. All-zero (the default) means no
/// faults are ever injected and no Rng draws happen.
struct FaultPlan {
  TransferFaults download;
  TransferFaults upload;
  /// Probability an uploaded result payload is corrupted in transit (caught
  /// by the server-side validator's checksum).
  double corruption_prob = 0.0;
  /// Absolute virtual times at which the grid server crashes; each crash is
  /// followed by a restore (with checkpoint replay) after server_recovery_s.
  std::vector<SimTime> server_crashes;
  SimTime server_recovery_s = 60.0;
  StoreFaults store;

  bool any() const {
    return download.any() || upload.any() || corruption_prob > 0.0 ||
           !server_crashes.empty() || store.any();
  }
};

/// Draws fault outcomes from the plan. One instance is shared by every
/// component in a run; draw order follows deterministic event order, so runs
/// replay exactly.
class FaultInjector {
 public:
  struct TransferOutcome {
    bool dropped = false;
    double time_factor = 1.0;  // stall multiplier on the transfer duration
  };

  /// Counts each injected fault into `metrics`, the run's registry.
  FaultInjector(FaultPlan plan, Rng rng, obs::Registry& metrics);

  /// One draw per attempted transfer (or store operation for FaultSite::store).
  TransferOutcome on_transfer(FaultSite site);
  /// One draw per completed subtask payload before upload.
  bool corrupt_result();
  /// Garbles `payload` in place so a checksum validator rejects it.
  void corrupt(Blob& payload);

  const FaultPlan& plan() const { return plan_; }

 private:
  TransferOutcome draw(const TransferFaults& model);

  // One counter per fault kind, named after fault_kind_names().
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& transfer_drop = registry.counter("faults.transfer_drop");
    obs::Counter& transfer_stall = registry.counter("faults.transfer_stall");
    obs::Counter& corruption = registry.counter("faults.corruption");
    obs::Counter& store_failure = registry.counter("faults.store_failure");
    obs::Counter& store_slowdown = registry.counter("faults.store_slowdown");
  };

  FaultPlan plan_;
  Rng rng_;
  Metrics metrics_;
};

/// Every fault kind the stack can inject; each increments the obs counter
/// "faults.<kind>" at its injection site (the first five here, in
/// FaultInjector; "server_crash" in GridServer::crash; "byzantine_result" in
/// AdversaryModel::draw). The coverage test asserts set equality against
/// the registry, so a new fault kind must land with its counter.
const std::vector<std::string>& fault_kind_names();

// --- Byzantine adversaries ---------------------------------------------------
//
// Unlike the transport faults above, an adversary returns a payload that is
// *checksum-valid* — the corruption lives in the parameter values, so the
// server-side validator waves it through and only replica consensus
// (grid/consensus.hpp) or the blend outlier guard can catch it. This is the
// BOINC threat model: volunteers returning wrong results, countered with
// computational redundancy + majority validation.

/// How a byzantine client corrupts its trained parameter vector.
enum class AttackMode : std::uint8_t {
  sign_flip,  // W ← −W: maximally wrong but norm-preserving
  scale,      // W ← scale_factor · W: blows up / collapses the blend
  constant,   // W ← constant_value everywhere: destroys all structure
  noise,      // W ← W + σ·rms(W)·N(0,1): subtle, near-plausible poisoning
};

/// Adversary schedule for one run. The default (fraction 0) selects nobody,
/// constructs nothing, and draws no randomness.
struct AdversaryPlan {
  /// Fraction of the fleet that is byzantine (rounded to nearest client).
  double fraction = 0.0;
  AttackMode mode = AttackMode::sign_flip;
  /// Chance a given completed subtask is attacked (1 = every result).
  double attack_prob = 1.0;
  double scale_factor = -8.0;   // AttackMode::scale multiplier
  float constant_value = 0.0f;  // AttackMode::constant fill value
  /// Noise stddev as a fraction of the parameter vector's RMS magnitude.
  double noise_sigma = 0.25;
  /// Colluding adversaries emit bit-identical payloads for the same workunit
  /// (the noise stream is keyed by unit id, not by attack); independent ones
  /// each draw their own noise, so their results never agree under exact or
  /// tolerance equivalence.
  bool collude = false;

  bool any() const { return fraction > 0.0; }
};

/// One attack's arithmetic, decided by AdversaryModel::draw. apply() reads
/// nothing but these fields and the parameters it corrupts.
struct Tamper {
  AttackMode mode = AttackMode::sign_flip;
  double scale_factor = -8.0;
  float constant_value = 0.0f;
  double noise_sigma = 0.25;
  std::uint64_t noise_seed = 0;  // AttackMode::noise stream

  /// Corrupts `params` in place.
  void apply(std::vector<float>& params) const;
};

/// Selects the byzantine subset of the fleet (seeded, deterministic) and
/// decides which of their outgoing parameter payloads are attacked. The
/// attacked floats re-encode through the normal wire path, so checksums stay
/// valid by construction.
class AdversaryModel {
 public:
  /// Counts each attack into `metrics`, the run's registry.
  AdversaryModel(AdversaryPlan plan, std::size_t fleet_size, Rng rng,
                 obs::Registry& metrics);

  bool is_adversary(std::size_t client) const;
  /// Decides whether an adversary's result for `unit` is attacked: the
  /// attack_prob draw, the noise key (the unit alone for colluders, the unit
  /// and a fresh attack ordinal otherwise) and the "faults.byzantine_result"
  /// count. nullopt leaves the result honest. Draws happen in call order, so
  /// runs replay exactly.
  std::optional<Tamper> draw(std::uint64_t unit);

  const std::vector<std::size_t>& adversaries() const { return adversaries_; }
  const AdversaryPlan& plan() const { return plan_; }

 private:
  AdversaryPlan plan_;
  std::vector<std::size_t> adversaries_;  // sorted client indices
  Rng rng_;                   // attack_prob draws (event order = draw order)
  std::uint64_t noise_seed_ = 0;
  std::uint64_t attack_ordinal_ = 0;  // keys independent (non-collude) noise
  obs::Counter& attacks_;  // "faults.byzantine_result"
};

/// Capped exponential backoff with jitter — the client-side retry policy for
/// failed downloads/uploads. After max_attempts the client abandons the
/// subtask (Scheduler::report_failure fast-fail path).
struct RetryPolicy {
  std::size_t max_attempts = 4;  // total tries per transfer before giving up
  SimTime base_backoff_s = 5.0;
  SimTime max_backoff_s = 120.0;
  double jitter = 0.5;           // uniform multiplier in [1, 1 + jitter]

  /// Delay before retry number `attempt + 1` (attempt is 0-based).
  SimTime delay(std::size_t attempt, Rng& rng) const;
};

}  // namespace vcdl
