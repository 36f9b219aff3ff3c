// Workunit scheduler — the BOINC scheduler role (§II-C, §III-B).
//
// Pull model: clients request work, the scheduler hands out ready units.
// Fault tolerance is deadline-driven by default — an assignment whose result
// has not arrived within the unit's timeout is requeued for another client —
// with three active fast paths layered on top: clients abandon unreachable
// transfers (report_failure), the validator rejects corrupted payloads
// (report_invalid), and a grid-server crash un-retires accepted-but-not-yet-
// assimilated units (reissue_lost). All three requeue immediately. The
// scheduler also tracks two per-client reputation scores (exponential moving
// averages of assignment outcomes): *availability* — does the client deliver
// at all (transfer failures, deadline misses) — and *integrity* — are its
// delivered results correct (validator and consensus rejections). Splitting
// them means a flaky-network client is not treated like a dishonest one; the
// combined reliability() is their minimum. The scheduler implements three
// BOINC policies on top:
//   * sticky-file affinity: prefer giving a unit to a client that already
//     caches its sticky inputs (avoids repeated shard downloads);
//   * replication: a unit may be issued to k distinct clients for
//     computational redundancy; the first result retires it (or, with the
//     ConsensusBuffer in front, an m-of-k quorum does);
//   * adaptive replication: clients above an integrity threshold run at
//     replication 1 (with probabilistic spot-checks); untrusted or new
//     clients get the full redundancy factor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "grid/workunit.hpp"
#include "obs/metrics.hpp"

namespace vcdl {

class Scheduler {
 public:
  /// A read-out of three of the scheduler's counters (its registry holds
  /// them all): units dispatched, first results, deadline expiries.
  struct Stats {
    std::uint64_t assignments = 0;
    std::uint64_t results = 0;
    std::uint64_t timeouts = 0;
  };

  /// BOINC-style adaptive replication (enable_adaptive_replication): a unit
  /// first requested by a client whose integrity reputation clears
  /// trust_threshold is issued unreplicated — except for a spot_check_prob
  /// audit, which (like any request by an untrusted or new client) raises the
  /// unit to at least untrusted_replication replicas so consensus has a
  /// quorum to vote with.
  struct AdaptiveReplication {
    double trust_threshold = 0.7;
    std::size_t untrusted_replication = 3;
    double spot_check_prob = 0.1;
  };

  /// Counts into a registry of its own (a scheduler driven outside a run).
  Scheduler();
  /// Counts into `metrics`, the run's registry.
  explicit Scheduler(obs::Registry& metrics);

  /// Registers a client; must be called before it requests work.
  void register_client(ClientId id);

  /// Enables reliability-gated assignment (§III-B: "assign subtasks to more
  /// reliable clients"): a client whose reliability score is below the
  /// threshold is granted at most one unit per request, limiting the blast
  /// radius of flaky machines while still letting them earn trust back.
  void set_reliability_gate(double threshold) { reliability_gate_ = threshold; }

  /// Enables adaptive replication. The Rng drives spot-check draws; fork it
  /// off the run's master seed so draw order stays deterministic.
  void enable_adaptive_replication(const AdaptiveReplication& config, Rng rng);

  /// Marks a sticky file as cached (or evicted) on a client, for affinity.
  void note_cached(ClientId id, const std::string& file);
  void clear_cache(ClientId id);

  /// Pre-sizes the unit table, the assignment slab and the dense client
  /// array for a fleet of known scale, so streaming a large job in does not
  /// rehash/reallocate them mid-run. Purely a capacity hint — optional, and
  /// unobservable in behavior.
  void reserve(std::size_t expected_units, std::size_t expected_clients);

  /// Adds a unit to the ready pool (issued `replication` times).
  void add_unit(const Workunit& unit);

  /// Hands out up to `max_units` units to `client` at time `now`.
  /// A client never receives two replicas of the same unit.
  std::vector<Workunit> request_work(ClientId client, std::size_t max_units,
                                     SimTime now);

  /// Records a successful result upload. Returns true if this is the first
  /// result for the unit (it should be assimilated), false for duplicates.
  bool report_result(ClientId client, WorkunitId unit, SimTime now);

  /// Fast-fail path: the client abandons its assignment (repeated transfer
  /// failures) — the replica is requeued immediately instead of waiting for
  /// the deadline, and the client's reliability takes the same hit a timeout
  /// would have cost it.
  void report_failure(ClientId client, WorkunitId unit, SimTime now);

  /// The server-side validator rejected this client's uploaded payload
  /// (corruption), or replica consensus outvoted it. Penalizes the client's
  /// integrity reputation and requeues the replica at once (a no-op when the
  /// unit already retired — the consensus-outvoted case).
  void report_invalid(ClientId client, WorkunitId unit, SimTime now);

  /// A replica upload arrived but is parked in the consensus buffer awaiting
  /// quorum: the transfer is over, so the assignment (and its deadline) is
  /// dropped — without retiring the unit or judging the client. The
  /// integrity verdict lands later via report_result / report_invalid.
  void report_replica(ClientId client, WorkunitId unit);

  /// A held replica was lost before its quorum resolved (grid-server crash
  /// flushing the consensus buffer): requeue one replacement replica and let
  /// the holder run it again. Without this the unit would be stranded — not
  /// retired, no replicas left, nothing in flight.
  void reissue_replica(WorkunitId unit, ClientId client);

  /// Un-retires a unit whose accepted result was lost before assimilation
  /// (grid-server crash): the unit becomes ready again and counts as
  /// outstanding. No-op if the unit was never retired.
  void reissue_lost(WorkunitId unit);

  /// True once the unit's canonical result has been accepted. The grid
  /// server early-outs late replication extras on this — before paying for
  /// validation.
  bool is_retired(WorkunitId unit) const;

  /// Total replicas the scheduler settled on for this unit (adaptive
  /// replication may override Workunit::replication at first issue) — the k
  /// the consensus quorum is measured against.
  std::size_t effective_replication(WorkunitId unit) const;

  /// Requeues assignments whose deadline has passed; returns the affected
  /// unit ids. Reduces the reliability of the clients that missed.
  std::vector<WorkunitId> expire_deadlines(SimTime now);

  /// Earliest pending deadline, if any (lets the driver schedule the next
  /// timeout check exactly).
  std::optional<SimTime> next_deadline() const;

  /// All units retired (first result received).
  bool all_done() const { return outstanding_ == 0; }
  /// Units currently issuable (replicas_left > 0, not retired). O(1): the
  /// ready queue holds exactly the issuable units (see the class invariant
  /// on ready_ below), so this is its size.
  std::size_t ready_count() const { return ready_.size(); }
  std::size_t inflight_count() const { return inflight_count_; }
  /// Raw deadline-heap length, stale (already-resolved) entries included —
  /// regression hook for the deadline-index compaction rule.
  std::size_t deadline_heap_size() const { return deadline_heap_.size(); }

  /// Test/debug: walks every index and cross-checks the scheduler's state
  /// invariants, throwing Error on the first violation — every inflight
  /// assignment references a known unit + registered client and holds an
  /// issued_to entry, the ready queue has no duplicate or stale entries and
  /// contains exactly the issuable units, the sticky-affinity index mirrors
  /// the ready queue, the deadline index covers every assignment, and the
  /// outstanding count matches the unretired units. O(total state); the
  /// fleet-invariant property suite calls it after every randomized op.
  void check_invariants() const;

  /// Combined reputation — the minimum of availability and integrity (the
  /// gate should throttle a client that is bad either way).
  double reliability(ClientId id) const;
  /// Transfer/deadline track record: does the client deliver at all.
  double availability(ClientId id) const;
  /// Correctness track record: validator and consensus verdicts.
  double integrity(ClientId id) const;
  Stats stats() const;

 private:
  // Fleet-scale layout (docs/SIMULATION.md §6). The indexes keep every
  // result/failure/expiry path O(log n) while reproducing the exact grant
  // and expiry ORDER of the original linear scans, so same-seed TraceDigests
  // are bit-identical to the pre-index scheduler:
  //   * ready_ maps a monotone ready_seq to a unit — iteration order IS the
  //     old deque's FIFO push order. Invariant: a unit is in ready_ iff
  //     !done && replicas_left > 0 (retired/exhausted units are removed
  //     eagerly, so no scan ever skips stale entries).
  //   * sticky_index_ mirrors ready_ per sticky input file, so the affinity
  //     pass merges the requester's cached files' entries in ready_seq order
  //     instead of re-walking the whole queue per request.
  //   * assignments live inside their PendingUnit (at most
  //     replication_total of them, typically one or two), so every
  //     result/failure/replica path resolves an assignment with the units_
  //     lookup it already pays plus a short inline scan — no second hash
  //     table. Each assignment carries the monotone issue seq and a liveness
  //     slot; deadline_heap_ is a lazy min-heap over (deadline, seq) whose
  //     stale entries (assignment already resolved, detected by one array
  //     read into assign_slots_) are skipped on pop and compacted away when
  //     they dominate. Expiry pops only the actually expired entries and
  //     replays them sorted by issue seq — the order the old full walk of
  //     the insertion-ordered vector produced.
  struct Assignment {
    ClientId client = 0;
    SimTime deadline = 0;
    std::uint64_t seq = 0;   // issue order; expiry processing sorts on this
    std::uint32_t slot = 0;  // index into assign_slots_
  };

  // Sticky file names are interned to dense ids at add_unit/note_cached time
  // (rare paths). Everything per-poll and per-grant — the affinity pass, the
  // sticky-index maintenance in push_ready/remove_ready — then works in
  // FileIds: a direct vector index instead of a string hash + cold string
  // node per file, which at 100k-client scale was a measurable slice of the
  // grant path.
  using FileId = std::uint32_t;

  struct PendingUnit;
  // Ready entries map the monotone ready_seq to the unit's record directly:
  // units_ is node-based and never erased from, so the pointers are stable,
  // and the grant path skips a units_ lookup per candidate.
  using ReadyQueue = std::map<std::uint64_t, PendingUnit*>;

  struct PendingUnit {
    Workunit unit;
    std::vector<FileId> sticky_inputs;  // interned sticky input files
    // Iterators to this unit's entries in ready_ and in each sticky file's
    // map, held while ready_seq != 0. Map iterators are stable, so
    // remove_ready erases in O(1) instead of descending a fleet-sized tree
    // by key on every retire/exhaust.
    ReadyQueue::iterator ready_it;
    std::vector<ReadyQueue::iterator> sticky_its;
    std::size_t replicas_left = 1;      // issues remaining
    std::size_t replication_total = 1;  // k settled for this unit
    bool replication_decided = false;   // adaptive policy ran at first issue
    // Clients holding a replica — at most replication_total, so a flat
    // vector: membership tests on the grant path scan one contiguous block
    // instead of chasing per-grant tree nodes (and grants stop paying a
    // node allocation each). Order carries no meaning; nothing iterates it
    // on a behavioral path.
    std::vector<ClientId> issued_to;
    // Live assignments of this unit, at most replication_total (so one or
    // two, outside stress configs) — a short inline scan here replaces what
    // used to be a fleet-sized (unit, client)-keyed hash table.
    std::vector<Assignment> assignments;
    bool done = false;                  // first result arrived
    std::uint64_t ready_seq = 0;        // position in ready_; 0 = not queued
  };

  struct DeadlineEntry {
    SimTime deadline = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  // liveness = assign_slots_[slot].seq == seq
    WorkunitId unit = 0;
    ClientId client = 0;
  };

  // Liveness slab for deadline entries, mirroring the engine's event slots:
  // most deadline-heap pops are for assignments that already resolved (the
  // result arrived long before the deadline), and checking that through the
  // inflight_ hash table was the scheduler's hottest remaining path. A slot
  // holds the issue seq while the assignment is live and 0 after it
  // resolves, so the sweep's stale test is one array read. Slots are
  // recycled through a free list; a recycled slot's new seq can never equal
  // a stale entry's old one (seqs are monotone), so stale entries stay
  // stale.
  struct AssignSlot {
    std::uint64_t seq = 0;  // 0 = free / resolved
    std::uint32_t next_free = kNoAssignSlot;
  };
  static constexpr std::uint32_t kNoAssignSlot = 0xffffffffu;

  struct ClientState {
    double availability = 0.5;
    double integrity = 0.5;
    // Flat, deduped on insert. A vector of interned ids, not a set of
    // strings: it is iterated on every work request (affinity pass) and
    // stays small, so one contiguous block of ints beats per-element tree
    // nodes and string chases — and the affinity merge picks the minimum
    // ready_seq across all cursors, so iteration order is irrelevant to
    // grant order.
    std::vector<FileId> cached;
  };

  // Client lookup is the single hottest scheduler operation — one per poll
  // of every client in the fleet, and the fleet polls forever — and
  // volunteer fleets register dense sequential ids. Ids below kDenseClients
  // therefore live in a flat array indexed directly (one predictable cache
  // line per find, no hashing, no node chase), with an unordered_map
  // overflow for arbitrary sparse ids. Point lookups only; nothing iterates
  // the table, so the split storage is unobservable.
  class ClientTable {
   public:
    ClientState& insert(ClientId id) {
      if (id < kDenseClients) {
        if (id >= dense_.size()) dense_.resize(id + 1);
        dense_[id].present = true;
        return dense_[id].state;
      }
      return sparse_[id];
    }
    ClientState* find(ClientId id) {
      if (id < kDenseClients) {
        if (id < dense_.size() && dense_[id].present) return &dense_[id].state;
        return nullptr;
      }
      const auto it = sparse_.find(id);
      return it == sparse_.end() ? nullptr : &it->second;
    }
    const ClientState* find(ClientId id) const {
      return const_cast<ClientTable*>(this)->find(id);
    }
    bool contains(ClientId id) const { return find(id) != nullptr; }
    void reserve(std::size_t n) {
      dense_.reserve(std::min<std::size_t>(n, kDenseClients));
    }

   private:
    // Dense cap bounds the flat array at ~48 MiB if an adversarial caller
    // registers only id kDenseClients-1; sequential fleets pay O(fleet).
    static constexpr ClientId kDenseClients = 1u << 20;
    struct DenseSlot {
      ClientState state;
      bool present = false;
    };
    std::vector<DenseSlot> dense_;
    std::unordered_map<ClientId, ClientState> sparse_;
  };

  // Take the already-resolved state so paths touching both reputations (a
  // validated result bumps availability and integrity) pay one hash lookup.
  static void bump_availability(ClientState& c, bool success);
  static void bump_integrity(ClientState& c, bool success);
  /// Pushes ready/inflight depths into the obs gauges after any mutation.
  void update_gauges() const;
  /// Shared requeue logic for fast-fail / invalid-result / timeout paths:
  /// drops the (client, unit) assignment and makes the replica issuable again.
  void release_assignment(ClientId client, WorkunitId unit);
  void push_ready(WorkunitId unit);
  /// Removes the unit from ready_ and the sticky index (no-op if absent).
  void remove_ready(PendingUnit& p);
  /// Issues one replica of `p` to `client`: adaptive-replication decision at
  /// first issue, inflight + deadline-index insertion, ready bookkeeping.
  void grant_unit(ClientId client, ClientState& state, PendingUnit& p,
                  SimTime now, std::vector<Workunit>& out);
  /// True iff the heap entry still names a live assignment (same issue seq).
  bool deadline_entry_live(const DeadlineEntry& e) const {
    return assign_slots_[e.slot].seq == e.seq;
  }
  std::uint32_t acquire_assign_slot();
  void release_assign_slot(std::uint32_t slot);
  /// Drops `client`'s assignment of `p` (if any) and notes its orphaned
  /// deadline entry. Returns false when no such assignment was live.
  bool erase_assignment(PendingUnit& p, ClientId client);
  /// Rebuilds deadline_heap_ without stale entries once they dominate.
  void maybe_compact_deadlines() const;

  // Hashed, not ordered: none of these are ever iterated on a behavioral
  // path (check_invariants walks them, order-independently), and at fleet
  // scale the per-event find() is the hot path — O(1) hashing beats a
  // 17-deep red-black descent.
  std::unordered_map<WorkunitId, PendingUnit> units_;
  ReadyQueue ready_;                    // ready_seq → unit, FIFO by seq
  // Interned sticky file id → ready entries (ready_seq → unit) of units
  // listing it as a sticky input. Indexed by FileId, so the per-poll
  // affinity pass and the per-grant index maintenance never hash a string.
  // Entries come and go with ready_; per-file maps persist once interned
  // (file-name cardinality is bounded by the job's shard count, and erasing
  // them would invalidate merge iterators mid-request).
  std::vector<ReadyQueue> sticky_index_;
  std::unordered_map<std::string, FileId> file_ids_;  // intern table
  /// Returns the file's dense id, interning it on first sight. Rare path:
  /// called from note_cached and add_unit only, never per poll.
  FileId intern_file(const std::string& name);
  std::uint64_t next_ready_seq_ = 1;
  std::size_t inflight_count_ = 0;  // live assignments across all units
  // Lazy min-heap over (deadline, issue seq); mutable so const peeks
  // (next_deadline) can shed stale heads. stale_deadlines_ counts heap
  // entries whose assignment already resolved through a non-expiry path.
  mutable std::vector<DeadlineEntry> deadline_heap_;
  mutable std::size_t stale_deadlines_ = 0;
  std::vector<AssignSlot> assign_slots_;  // liveness slab, free-listed
  std::uint32_t assign_free_ = kNoAssignSlot;
  std::uint64_t next_assign_seq_ = 1;
  ClientTable clients_;
  std::size_t outstanding_ = 0;         // units not yet done
  double reliability_gate_ = 0.0;       // 0 = disabled
  bool adaptive_enabled_ = false;
  AdaptiveReplication adaptive_;
  Rng adaptive_rng_;                    // spot-check draws

  // Registry handles, resolved once at construction.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& generated = registry.counter("scheduler.generated");
    obs::Counter& dispatched = registry.counter("scheduler.dispatched");
    // Grants that matched a sticky file the client already caches.
    obs::Counter& affinity_hits = registry.counter("scheduler.affinity_hits");
    obs::Counter& results = registry.counter("scheduler.results");
    // Uploads parked in a consensus buffer awaiting quorum.
    obs::Counter& held_replicas = registry.counter("scheduler.held_replicas");
    obs::Counter& timeout = registry.counter("scheduler.failure.timeout");
    obs::Counter& fast_fail = registry.counter("scheduler.failure.fast_fail");
    obs::Counter& invalid =
        registry.counter("scheduler.failure.invalid_result");
    obs::Counter& reissue = registry.counter("scheduler.failure.reissue_lost");
    obs::Counter& replica_lost =
        registry.counter("scheduler.failure.replica_lost");
    // Adaptive replication's draws, filed under the consensus taxonomy.
    obs::Counter& spot_checks = registry.counter("consensus.spot_checks");
    obs::Counter& solo_grants = registry.counter("consensus.solo_grants");
    obs::Gauge& queue_depth = registry.gauge("scheduler.queue_depth");
    obs::Gauge& inflight = registry.gauge("scheduler.inflight");
  };
  std::unique_ptr<obs::Registry> own_metrics_;  // null when given a registry
  Metrics metrics_;
};

/// The scheduler's failure/requeue paths; each increments the obs counter
/// "scheduler.failure.<kind>". The instrumentation-coverage test asserts set
/// equality between this list and the registered counters, so adding a
/// failure path without metering it (or vice versa) fails tier 1.
const std::vector<std::string>& scheduler_failure_kinds();

}  // namespace vcdl
