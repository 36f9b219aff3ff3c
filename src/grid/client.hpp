// Simulated grid client daemon — the BOINC client role (§II-C, §III-A).
//
// A SimClient runs on one (possibly preemptible) cloud instance. Its loop:
// poll the scheduler for up to Tn concurrent subtasks; for each subtask,
// download its input files (respecting the sticky-file cache and on-the-wire
// compression), execute the training callback, upload the parameter result,
// repeat. A preemption kills every in-flight subtask and wipes the local
// cache; the instance comes back after a replacement delay and resumes
// polling. Lost subtasks are recovered by scheduler deadlines.
//
// With a FaultInjector attached, downloads and uploads can drop or stall and
// completed payloads can be corrupted in transit. A dropped transfer is
// retried with capped exponential backoff (ClientConfig::retry); after
// max_attempts the client abandons the subtask through the scheduler's
// report_failure() fast-fail path, which requeues the replica immediately
// instead of letting it ride to the deadline. An upload that reaches a
// crashed grid server counts as a failed attempt and follows the same
// backoff — by the time it retries, the server may have recovered.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "grid/file_server.hpp"
#include "grid/scheduler.hpp"
#include "grid/server.hpp"
#include "obs/metrics.hpp"
#include "sim/availability.hpp"
#include "sim/faults.hpp"
#include "sim/instance.hpp"
#include "sim/network.hpp"
#include "sim/preemption.hpp"
#include "sim/trace.hpp"

namespace vcdl {

/// Output of the real training callback.
struct ExecOutcome {
  Blob payload;        // parameter copy to upload
  double work_units;   // abstract compute cost (drives virtual exec time)
};

/// Executes a subtask *for real* (trains the model on the shard). Called at
/// the virtual exec-start instant. Like a BOINC client running an
/// application (§III-A), the client never looks inside: whatever the
/// computation runs on belongs to the callback's owner.
using ExecuteFn = std::function<ExecOutcome(const Workunit&, ClientId)>;

struct ClientConfig {
  std::size_t max_concurrent = 2;  // the paper's Tn
  SimTime poll_interval_s = 10.0;  // idle re-poll period
  PreemptionProcess preemption;    // rate 0 ⇒ a standard (reliable) instance
  /// Volunteer duty cycle (§II-C "users may start or shutdown their devices
  /// any time"). Disabled by default — cloud instances are always on. Unlike
  /// a preemption, going offline keeps the sticky-file cache (the volunteer's
  /// disk survives).
  AvailabilityModel availability;
  ComputeModel compute;            // RAM/threads execution model
  /// Transfer retry/backoff policy; only exercised when transfers can fail
  /// (fault injection or a crashed grid server).
  RetryPolicy retry;
};

class SimClient {
 public:
  /// Counts into `metrics`, the run's registry.
  SimClient(ClientId id, InstanceType instance, ClientConfig config,
            SimEngine& engine, const NetworkModel& network,
            InstanceType server_instance, FileServer& files,
            Scheduler& scheduler, GridServer& server, TraceLog& trace,
            obs::Registry& metrics, Rng rng, ExecuteFn execute);

  /// Attaches the run's fault injector (nullptr = fault-free; the default).
  /// Call before start().
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  /// Registers with the scheduler and schedules the first poll (and the
  /// first preemption, when the instance is preemptible).
  void start();
  /// Stops polling and cancels everything pending (job finished).
  void stop();

  ClientId id() const { return id_; }
  bool is_up() const { return up_; }
  const InstanceType& instance() const { return instance_; }
  std::size_t active_subtasks() const { return active_; }
  /// Events this client scheduled that have neither run nor been cancelled:
  /// its poll, preemption and availability timers and its subtasks' next
  /// steps.
  std::size_t pending_events() const { return pending_events_.size(); }

 private:
  enum class TransferStage { download, upload };

  void poll();
  void schedule_poll(SimTime delay);
  void begin_unit(const Workunit& unit);
  void attempt_download(const Workunit& unit, std::size_t attempt);
  void exec_unit(const Workunit& unit);
  void finish_unit(const Workunit& unit, Blob payload);
  void attempt_upload(const Workunit& unit, std::shared_ptr<Blob> payload,
                      std::size_t attempt);
  /// Backoff-retry or fast-fail abandon after a dropped transfer.
  void transfer_failed(const Workunit& unit, TransferStage stage,
                       std::shared_ptr<Blob> payload, std::size_t attempt);
  void preempt();
  void restore();
  void arm_preemption();
  void go_offline();
  void come_online();
  void arm_availability();
  /// Whether any input actually needs bytes on the wire (cache misses).
  bool needs_transfer(const Workunit& unit) const;
  /// Simulated download time for the unit's inputs; updates caches.
  SimTime download_time(const Workunit& unit);
  /// Schedules `fn` after `delay`, tracked for cancel_pending() until it
  /// runs.
  template <typename F>
  void schedule_tracked(SimTime delay, F fn);
  void cancel_pending();
  std::string name() const { return "client-" + std::to_string(id_); }

  // Registry handles, resolved once at construction. A dropped transfer is
  // either retried or abandoned, so transfer failures are their sum; the
  // busy time is the subtask_exec_s sum, and a cache hit is counted by the
  // file server.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& bytes_downloaded =
        registry.counter("client.bytes_downloaded");
    obs::Counter& bytes_uploaded = registry.counter("client.bytes_uploaded");
    obs::Counter& completed = registry.counter("client.completed");
    obs::Counter& retries = registry.counter("client.transfer_retries");
    obs::Counter& abandoned = registry.counter("client.transfer_abandoned");
    obs::Counter& preemptions = registry.counter("client.preemptions");
    obs::Counter& offline = registry.counter("client.offline_events");
    // Subtasks killed by a preemption or by going offline.
    obs::Counter& lost_inflight = registry.counter("client.lost_inflight");
    // Transfer latencies are modeled times (network model × stall factor).
    obs::Histogram& download_s =
        registry.histogram("client.download_s", {0.0, 120.0, 60});
    obs::Histogram& upload_s =
        registry.histogram("client.upload_s", {0.0, 120.0, 60});
    obs::Histogram& exec_s =
        registry.histogram("client.subtask_exec_s", {0.0, 600.0, 60});
  };

  ClientId id_;
  InstanceType instance_;
  ClientConfig config_;
  SimEngine& engine_;
  const NetworkModel& network_;
  InstanceType server_instance_;
  FileServer& files_;
  Scheduler& scheduler_;
  GridServer& server_;
  TraceLog& trace_;
  Metrics metrics_;
  Rng rng_;
  ExecuteFn execute_;
  FaultInjector* faults_ = nullptr;

  bool up_ = false;
  bool stopped_ = false;
  bool poll_scheduled_ = false;
  std::size_t active_ = 0;  // subtasks between download-start and upload-end
  std::map<std::string, std::uint64_t> cache_;  // sticky file → version
  // Last version downloaded per file (0 = never) — the delta base the
  // FileServer pull protocol encodes against. Wiped on preemption (the
  // replacement instance holds no copy), kept across offline periods.
  std::map<std::string, std::uint64_t> seen_versions_;
  // Whole EventId handles (cancel() needs the slot half too) of the events
  // that have not run yet, keyed by a per-client schedule counter;
  // cancellable on preemption.
  std::map<std::uint64_t, EventId> pending_events_;
  std::uint64_t scheduled_ = 0;
};

}  // namespace vcdl
