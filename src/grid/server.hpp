// Grid server: result intake, validation, and parameter-server dispatch.
//
// Mirrors the paper's server stack (§III-A): clients upload results to the
// web server; BOINC validates them and invokes the assimilator — here, one of
// Pn parameter-server workers, chosen round-robin ("BOINC evenly distributes
// the load to multiple parameter servers", §III-D). Each worker processes one
// result at a time; its service logic lives in an AssimilatorBackend (the
// core library's VC-ASGD parameter server) which schedules its own store
// reads/writes in virtual time and signals completion.
//
// Acceptance policy: first-checksum-valid-wins by default, or — with
// enable_consensus() — BOINC majority validation: validated replicas are
// parked in a ConsensusBuffer until m-of-k agree, the canonical result is
// assimilated and outvoted clients are reported invalid (grid/consensus.hpp).
//
// Crash/restore semantics (fault injection, sim/faults.hpp): crash() takes
// the server down — uploads are rejected until restore(), queued and
// in-flight results are lost and their workunits un-retired at the scheduler
// (Scheduler::reissue_lost), held consensus replicas are flushed and reissued
// (Scheduler::reissue_replica), and the crash bumps a generation counter that
// backends check so stale assimilation chains abort instead of committing
// pre-crash state. The caller replays its last parameter checkpoint before
// restore() so clients resume from the checkpoint.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "grid/consensus.hpp"
#include "grid/scheduler.hpp"
#include "grid/workunit.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace vcdl {

class SimEngine;

/// Integrity check applied before assimilation (the BOINC validator role).
using ResultValidator = std::function<bool(const Blob&)>;

class AssimilatorBackend {
 public:
  virtual ~AssimilatorBackend() = default;

  /// Processes one validated result on parameter server `ps_index`. The
  /// backend schedules whatever virtual-time events it needs (store read,
  /// blend, validation, store write) and must invoke `on_done` exactly once
  /// when the parameter server is free again — unless the server's
  /// generation changes mid-chain (crash), in which case the chain must
  /// simply stop (the crash already reset the worker).
  virtual void assimilate(ResultEnvelope env, std::size_t ps_index,
                          std::function<void()> on_done) = 0;
};

class GridServer {
 public:
  /// Counts into `metrics`, the run's registry (the consensus buffer too).
  GridServer(SimEngine& engine, Scheduler& scheduler, TraceLog& trace,
             obs::Registry& metrics, std::size_t num_parameter_servers,
             ResultValidator validator);

  /// The assimilation logic is provided by the core library after
  /// construction (it needs a reference to this server for contention info).
  void set_backend(AssimilatorBackend* backend) { backend_ = backend; }

  /// Installs a ConsensusBuffer in front of assimilation: validated uploads
  /// are held until m-of-k replicas agree (the winner is assimilated, the
  /// outvoted are reported invalid), with a per-unit plurality fallback
  /// config.fallback_s after the first held replica. Call before the run
  /// starts; the decoder is typically the assimilator's peek_decode.
  void enable_consensus(ConsensusBuffer::Config config,
                        ConsensusDecoder decoder);
  /// Replicas currently parked awaiting quorum (0 when consensus is off).
  std::size_t held_replicas() const;

  /// Client upload entry point (at engine.now()). Returns false when the
  /// server is down — the client should treat the upload as failed and back
  /// off/retry.
  bool submit_result(ClientId client, const Workunit& unit, Blob payload);

  /// Injected crash: reject uploads, drop queued + in-flight results (their
  /// units are un-retired at the scheduler) and invalidate running
  /// assimilation chains via the generation counter.
  void crash();
  /// Back up after recovery. The caller restores parameter state (checkpoint
  /// replay) before calling this.
  void restore();

  bool is_up() const { return up_; }
  /// Bumped on every crash (so it counts them); backends snapshot it at
  /// assimilate() entry and abandon their chain when it moves.
  std::uint64_t generation() const { return generation_; }

  /// Parameter servers currently processing a result — used by backends to
  /// model CPU contention on the shared server instance.
  std::size_t active_assimilations() const { return active_; }
  std::size_t queued_results() const;

 private:
  struct PsWorker {
    std::deque<ResultEnvelope> queue;
    bool busy = false;
    WorkunitId current = 0;  // unit being assimilated (for crash recovery)
  };

  void maybe_start(std::size_t ps_index);
  /// Feeds a consensus promotion through the legacy accept path: credits the
  /// winner (and agreeing duplicates), reports the outvoted invalid, and
  /// queues the canonical envelope for assimilation.
  void accept_promotion(ConsensusBuffer::Submission submission);
  /// Arms the per-unit fallback timer when a replica is first held.
  void schedule_fallback(WorkunitId unit);

  // Registry handles, resolved once at construction.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& received = registry.counter("server.results_received");
    obs::Counter& invalid = registry.counter("server.results_invalid");
    obs::Counter& duplicates = registry.counter("server.results_duplicate");
    obs::Counter& assimilated =
        registry.counter("server.results_assimilated");
    // Late extras for a retired unit, early-outed before the validator.
    obs::Counter& retired_skips = registry.counter("server.retired_skips");
    // Uploads refused while crashed, and accepted results a crash dropped.
    obs::Counter& rejected_down = registry.counter("server.rejected_down");
    obs::Counter& lost_results = registry.counter("server.lost_results");
    // "server_crash" is a fault kind (fault_kind_names()), injected here
    // rather than in FaultInjector: crashes are scheduled at absolute times.
    obs::Counter& crash = registry.counter("faults.server_crash");
    obs::Gauge& queue_depth = registry.gauge("server.queue_depth");
  };

  SimEngine& engine_;
  Scheduler& scheduler_;
  TraceLog& trace_;
  Metrics metrics_;
  ResultValidator validator_;
  AssimilatorBackend* backend_ = nullptr;
  std::unique_ptr<ConsensusBuffer> consensus_;
  std::vector<PsWorker> ps_;
  std::size_t rr_ = 0;       // round-robin dispatch cursor
  std::size_t active_ = 0;
  bool up_ = true;
  std::uint64_t generation_ = 0;
};

}  // namespace vcdl
