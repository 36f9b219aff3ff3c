// Experiment/job specification and result records.
//
// An ExperimentSpec captures everything a paper experiment varies: the
// PnCnTn cluster shape, the VC-ASGD α schedule, the store kind, shard count,
// preemption setting — plus the virtual-time calibration constants that map
// our small substitute workload onto the paper's wall-clock scale (§IV-A:
// t_e ≈ 2.4 min per subtask, ~8 h for P5C5T2 over 40 epochs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"

#include "data/shards.hpp"
#include "data/synthetic.hpp"
#include "data/timeseries.hpp"
#include "nn/model_zoo.hpp"
#include "sim/availability.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/network.hpp"

namespace vcdl {

struct ExperimentSpec {
  // Cluster shape (the paper's Pn / Cn / Tn).
  std::size_t parameter_servers = 3;  // Pn
  std::size_t clients = 3;            // Cn
  std::size_t tasks_per_client = 4;   // Tn

  // VC-ASGD.
  std::string alpha = "0.95";         // constant value or "var"

  // Job shape.
  std::size_t num_shards = 50;        // subtasks per epoch (paper: 50)
  /// Sharded parameter plane (core/shard_plan.hpp): the flat parameter
  /// vector is sliced into this many balanced shards, each with its own
  /// store key, parameter file, version ring and wire-codec base ring —
  /// clients fetch the shard files in parallel and delta/q8 uploads carry
  /// one frame per shard. 1 (default) = the monolithic plane, TraceDigest-
  /// and metrics-identical to pre-shard builds.
  std::size_t param_shards = 1;
  std::size_t max_epochs = 12;
  double target_accuracy = 1.01;      // stop early when mean val acc reaches it
  ShardPolicy shard_policy = ShardPolicy::iid;
  std::size_t replication = 1;        // BOINC redundancy (paper uses 1)
  /// Reliability-gated assignment threshold (§III-B); 0 disables the gate.
  double reliability_gate = 0.0;

  // Byzantine resilience (docs/SIMULATION.md §5c). All defaults off — runs
  // that never touch these stay TraceDigest- and metrics-identical to
  // pre-consensus builds.
  /// Seeded adversary schedule (sim/faults.hpp): a fraction of the fleet
  /// returns checksum-valid but semantically wrong parameter payloads.
  AdversaryPlan adversary;
  /// Replica-consensus quorum in front of assimilation (grid/consensus.hpp).
  struct ConsensusSpec {
    bool enabled = false;
    std::size_t quorum = 2;     // m: agreeing replicas needed (≤ k)
    /// Relative-L2 equivalence tolerance between decoded replicas; 0 means
    /// exact payload-hash matching (only meaningful with stub executions —
    /// honest replicas of a real training unit are never bit-identical).
    double tolerance = 0.05;
    /// Plurality-fallback delay after the first held replica; 0 derives it
    /// from subtask_timeout_s.
    SimTime fallback_s = 0.0;
  };
  ConsensusSpec consensus;
  /// BOINC-style adaptive replication (grid/scheduler.hpp): trusted clients
  /// run units solo with probabilistic spot-checks, untrusted/new clients
  /// trigger the full redundancy factor.
  bool adaptive_replication = false;
  double adaptive_trust_threshold = 0.7;
  std::size_t adaptive_untrusted_replication = 3;
  double adaptive_spot_check_prob = 0.1;
  /// Relative-L2 norm-deviation gate on the VC-ASGD blend; 0 disables
  /// (VcAsgdAssimilator::Options::blend_outlier_threshold).
  double blend_outlier_threshold = 0.0;

  // Client-side local training.
  std::size_t local_epochs = 4;       // passes over the shard per subtask
  std::size_t batch_size = 10;
  /// Worker threads splitting each forward/backward (per-model parallelism;
  /// the Tn subtasks already interleave in virtual time, this speeds up the
  /// real compute underneath). 1 = serial, no pool; 0 = use all hardware
  /// threads. Every width gives the same results, bit for bit.
  std::size_t worker_threads = 1;
  double learning_rate = 3e-3;        // paper: 1e-3; rescaled for the
                                      // substitute workload (DESIGN.md)
  std::string optimizer = "adam";

  // Parameter store (§III-D / §IV-D).
  std::string store = "eventual";     // or "strong"

  // Data + model (substitution-scale defaults; see DESIGN.md §1).
  // Workload: the paper's image-classification benchmark by default, or the
  // §V time-series regime-classification task.
  enum class Workload { image_classification, timeseries };
  Workload workload = Workload::image_classification;
  SyntheticSpec data;
  TimeseriesSpec timeseries;
  // Model: the residual CNN stand-in by default, or an MLP (the natural fit
  // for the 1-D time-series inputs).
  enum class ModelKind { resnet_lite, mlp };
  ModelKind model_kind = ModelKind::resnet_lite;
  ResNetLiteSpec model;
  MlpSpec mlp{.inputs = 0, .hidden = {64, 32}, .classes = 10};

  // Virtual-time calibration.
  double work_per_subtask = 720.0;    // ⇒ ~144 s on a 2.5 GHz client at Tn=2
  double validate_work = 60.0;        // PS validation compute per result
  SimTime subtask_timeout_s = 300.0;  // the paper's t_o = 5 min
  SimTime poll_interval_s = 10.0;
  std::size_t validation_subsample = 96;   // images per per-result validation

  // Fleet (§IV-E) and volunteer churn (§II-C).
  AvailabilityModel availability;     // disabled = always-on cloud instances
  bool preemptible = false;
  double interruption_per_hour = 0.0;
  SimTime preemption_downtime_s = 120.0;
  NetworkModel network;

  // Fault injection & recovery (sim/faults.hpp). An all-zero plan (default)
  // injects nothing and draws no randomness — fault-free runs stay
  // bit-identical to the pre-chaos simulator.
  FaultPlan faults;
  /// Client transfer backoff / fast-fail policy (only exercised on failures).
  RetryPolicy client_retry;
  /// Parameter-checkpoint period for grid-server crash recovery; 0 disables
  /// checkpointing (and crash replay falls back to the initial snapshot).
  SimTime checkpoint_interval_s = 0.0;

  /// Wire codec for parameter traffic (common/wire_codec.hpp): "full"
  /// (pre-codec behavior, the default — bit-identical goldens), "delta"
  /// (lossless version deltas both directions), or "delta_q8" (delta
  /// downloads + 8-bit-quantized uploads; lossy, for the ablation bench).
  std::string wire_codec = "full";
  /// Past parameter versions the file server and assimilator keep as delta
  /// bases before falling back to full blobs.
  std::size_t wire_version_ring = 8;

  std::uint64_t seed = 7;
  bool trace = false;

  // Appends, not an operator+ chain: see Workunit::label (grid/workunit.hpp).
  std::string label() const {
    std::string s = "P";
    s += std::to_string(parameter_servers);
    s += 'C';
    s += std::to_string(clients);
    s += 'T';
    s += std::to_string(tasks_per_client);
    return s;
  }
};

/// Per-epoch series entry — one marker on the paper's accuracy/time curves.
struct EpochStats {
  std::size_t epoch = 0;        // 1-based
  double alpha = 0.0;           // α used this epoch
  SimTime end_time = 0.0;       // cumulative virtual seconds at epoch end
  double mean_subtask_acc = 0;  // avg per-assimilation validation accuracy
  double min_subtask_acc = 0;   // Fig. 4 error-bar bottom
  double max_subtask_acc = 0;   // Fig. 4 error-bar top
  double std_subtask_acc = 0;
  double val_acc = 0;           // full validation-set accuracy at epoch end
  double test_acc = 0;          // full test-set accuracy at epoch end
  std::size_t results = 0;      // subtask results assimilated this epoch
};

/// The run facts that are not counters. Everything the run counts is in
/// TrainResult::metrics (read with MetricsSnapshot::counter).
struct RunTotals {
  SimTime duration_s = 0.0;
  double cost_standard_usd = 0.0;
  double cost_preemptible_usd = 0.0;
  std::size_t parameter_count = 0;
};

struct TrainResult {
  ExperimentSpec spec;
  std::vector<EpochStats> epochs;
  RunTotals totals;
  /// Authoritative (published) parameter vector at job end. Equivalence
  /// oracles compare this bitwise against reference replays.
  std::vector<float> final_params;
  /// Final state of the run's own metrics registry: every count the run
  /// made, and nothing from any other run. Deterministic under same-seed
  /// replay: the telemetry oracle byte-compares to_json().
  obs::MetricsSnapshot metrics;

  const EpochStats& final_epoch() const;
};

}  // namespace vcdl
