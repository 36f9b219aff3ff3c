#include "grid/scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/dary_heap.hpp"
#include "common/error.hpp"
#include "grid/test_hooks.hpp"

namespace vcdl {
namespace {
constexpr double kReliabilityEma = 0.2;  // weight of the newest outcome

// Below this many deadline-heap entries a stale-majority rebuild is not
// worth it; the threshold only exists to bound big fleets.
constexpr std::size_t kDeadlineCompactFloor = 64;

// Min-heap comparator on (deadline, issue seq): earliest deadline first,
// issue order within a tick. seq uniqueness makes it a strict total order,
// so the pop sequence is the sorted order whatever the heap layout.
struct DeadlineAfter {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (a.deadline != b.deadline) return a.deadline > b.deadline;
    return a.seq > b.seq;
  }
};

// Heap arity — same cache-depth tradeoff as the engine's event queue.
constexpr std::size_t kDeadlineArity = 4;

// issued_to is a flat vector (at most replication_total entries); these are
// the set-like membership/erase helpers over it.
bool holds(const std::vector<ClientId>& v, ClientId c) {
  return std::find(v.begin(), v.end(), c) != v.end();
}

void drop_hold(std::vector<ClientId>& v, ClientId c) {
  const auto it = std::find(v.begin(), v.end(), c);
  if (it != v.end()) v.erase(it);
}
}  // namespace

const std::vector<std::string>& scheduler_failure_kinds() {
  static const std::vector<std::string> kinds = {
      "timeout", "fast_fail", "invalid_result", "reissue_lost",
      "replica_lost"};
  return kinds;
}

Scheduler::Scheduler()
    : own_metrics_(std::make_unique<obs::Registry>()),
      metrics_(*own_metrics_) {}

Scheduler::Scheduler(obs::Registry& metrics) : metrics_(metrics) {}

void Scheduler::register_client(ClientId id) { clients_.insert(id); }

Scheduler::FileId Scheduler::intern_file(const std::string& name) {
  const auto [it, inserted] =
      file_ids_.emplace(name, static_cast<FileId>(sticky_index_.size()));
  if (inserted) sticky_index_.emplace_back();
  return it->second;
}

void Scheduler::reserve(std::size_t expected_units,
                        std::size_t expected_clients) {
  units_.reserve(expected_units);
  assign_slots_.reserve(std::min<std::size_t>(expected_units, 1u << 22));
  clients_.reserve(expected_clients);
}

void Scheduler::note_cached(ClientId id, const std::string& file) {
  ClientState* c = clients_.find(id);
  VCDL_CHECK(c != nullptr, "Scheduler: unknown client");
  const FileId f = intern_file(file);
  auto& cached = c->cached;
  if (std::find(cached.begin(), cached.end(), f) == cached.end()) {
    cached.push_back(f);
  }
}

void Scheduler::clear_cache(ClientId id) {
  if (ClientState* c = clients_.find(id)) c->cached.clear();
}

void Scheduler::enable_adaptive_replication(const AdaptiveReplication& config,
                                            Rng rng) {
  VCDL_CHECK(config.untrusted_replication >= 1,
             "Scheduler: untrusted_replication must be >= 1");
  VCDL_CHECK(config.spot_check_prob >= 0.0 && config.spot_check_prob <= 1.0,
             "Scheduler: spot_check_prob out of [0,1]");
  adaptive_enabled_ = true;
  adaptive_ = config;
  adaptive_rng_ = rng;
}

void Scheduler::add_unit(const Workunit& unit) {
  VCDL_CHECK(unit.replication >= 1, "Scheduler: replication must be >= 1");
  VCDL_CHECK(units_.count(unit.id) == 0, "Scheduler: duplicate workunit id");
  PendingUnit p;
  p.unit = unit;
  for (const FileRef& f : unit.inputs) {
    if (f.sticky) p.sticky_inputs.push_back(intern_file(f.name));
  }
  p.replicas_left = unit.replication;
  p.replication_total = unit.replication;
  units_.emplace(unit.id, std::move(p));
  ++outstanding_;
  metrics_.generated.inc();
  push_ready(unit.id);
  update_gauges();
}

void Scheduler::grant_unit(ClientId client, ClientState& state, PendingUnit& p,
                           SimTime now, std::vector<Workunit>& out) {
  // Adaptive replication decides the unit's redundancy once, at first
  // issue, from the *requesting* client's integrity record: a trusted
  // client runs it solo (modulo a spot-check audit), anyone else — new
  // clients included, integrity starts at 0.5 — triggers the full
  // redundancy factor so consensus has replicas to vote with.
  if (adaptive_enabled_ && !p.replication_decided) {
    p.replication_decided = true;
    const bool trusted = state.integrity >= adaptive_.trust_threshold;
    const bool audited = trusted && adaptive_.spot_check_prob > 0.0 &&
                         adaptive_rng_.bernoulli(adaptive_.spot_check_prob);
    if (trusted && !audited) {
      p.replication_total = 1;
      metrics_.solo_grants.inc();
    } else {
      p.replication_total =
          std::max(p.unit.replication, adaptive_.untrusted_replication);
      if (audited) metrics_.spot_checks.inc();
    }
    p.replicas_left = p.replication_total;
    p.unit.replication = p.replication_total;
  }
  // Issue one replica to this client.
  --p.replicas_left;
  if (!grid_hooks::scheduler_drop_issued_hold) p.issued_to.push_back(client);
  const std::uint64_t seq = next_assign_seq_++;
  const SimTime deadline = now + p.unit.deadline_s;
  const std::uint32_t slot = acquire_assign_slot();
  assign_slots_[slot].seq = seq;
  p.assignments.push_back(Assignment{client, deadline, seq, slot});
  ++inflight_count_;
  dary_push<kDeadlineArity>(
      deadline_heap_, DeadlineEntry{deadline, seq, slot, p.unit.id, client},
      DeadlineAfter{});
  metrics_.dispatched.inc();
  out.push_back(p.unit);
  if (p.replicas_left == 0) remove_ready(p);
}

std::vector<Workunit> Scheduler::request_work(ClientId client,
                                              std::size_t max_units,
                                              SimTime now) {
  ClientState* cp = clients_.find(client);
  VCDL_CHECK(cp != nullptr, "Scheduler: unregistered client");
  ClientState& state = *cp;
  if (reliability_gate_ > 0.0 &&
      std::min(state.availability, state.integrity) < reliability_gate_) {
    max_units = std::min<std::size_t>(max_units, 1);
  }

  std::vector<Workunit> out;
  // Nothing issuable — skip both passes (the sticky index mirrors the ready
  // queue, so the affinity merge would find nothing either). A drained queue
  // is the steady state of a fleet polling faster than work arrives.
  if (ready_.empty()) {
    update_gauges();
    return out;
  }
  // Affinity pass: instead of re-walking the whole ready queue per request,
  // merge the sticky-index entries of the client's cached files in ready_seq
  // order — the exact order (and therefore grant sequence) the old linear
  // affinity scan produced, at O(candidates) instead of O(queue).
  if (!state.cached.empty() && out.size() < max_units) {
    struct Cursor {
      ReadyQueue::const_iterator it, end;
    };
    std::vector<Cursor> cursors;
    cursors.reserve(state.cached.size());
    for (const FileId file : state.cached) {
      const ReadyQueue& entries = sticky_index_[file];
      if (!entries.empty()) {
        cursors.push_back(Cursor{entries.begin(), entries.end()});
      }
    }
    while (out.size() < max_units && !cursors.empty()) {
      // Pick the lowest ready_seq across the cursors; a unit with several
      // cached sticky inputs surfaces once (same seq on every cursor).
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      for (const Cursor& c : cursors) {
        if (c.it != c.end && c.it->first < best) best = c.it->first;
      }
      if (best == std::numeric_limits<std::uint64_t>::max()) break;
      PendingUnit* pu = nullptr;
      for (Cursor& c : cursors) {
        if (c.it != c.end && c.it->first == best) {
          pu = c.it->second;
          ++c.it;  // past the entry BEFORE a grant can erase it
        }
      }
      PendingUnit& p = *pu;
      if (p.done || p.replicas_left == 0) continue;  // hook-only staleness
      if (holds(p.issued_to, client)) continue;
      metrics_.affinity_hits.inc();
      grant_unit(client, state, p, now, out);
    }
  }
  // Second pass: anything ready, FIFO. Grants erase only entries the
  // iterator has already moved past.
  for (auto it = ready_.begin();
       it != ready_.end() && out.size() < max_units;) {
    PendingUnit& p = *(it++)->second;
    if (p.done || p.replicas_left == 0) continue;  // hook-only staleness
    if (holds(p.issued_to, client)) continue;
    grant_unit(client, state, p, now, out);
  }
  update_gauges();
  return out;
}

std::uint32_t Scheduler::acquire_assign_slot() {
  if (assign_free_ != kNoAssignSlot) {
    const std::uint32_t slot = assign_free_;
    assign_free_ = assign_slots_[slot].next_free;
    return slot;
  }
  VCDL_CHECK(assign_slots_.size() < kNoAssignSlot,
             "Scheduler: assignment slot space exhausted");
  assign_slots_.emplace_back();
  return static_cast<std::uint32_t>(assign_slots_.size() - 1);
}

void Scheduler::release_assign_slot(std::uint32_t slot) {
  assign_slots_[slot].seq = 0;
  assign_slots_[slot].next_free = assign_free_;
  assign_free_ = slot;
}

bool Scheduler::erase_assignment(PendingUnit& p, ClientId client) {
  for (auto it = p.assignments.begin(); it != p.assignments.end(); ++it) {
    if (it->client != client) continue;
    release_assign_slot(it->slot);
    p.assignments.erase(it);
    --inflight_count_;
    // The assignment's deadline entry is now orphaned; it is skipped when
    // it reaches the heap head and swept out when stale entries dominate.
    ++stale_deadlines_;
    maybe_compact_deadlines();
    return true;
  }
  return false;
}

void Scheduler::maybe_compact_deadlines() const {
  if (deadline_heap_.size() < kDeadlineCompactFloor ||
      stale_deadlines_ * 2 <= deadline_heap_.size()) {
    return;
  }
  std::erase_if(deadline_heap_, [this](const DeadlineEntry& e) {
    return !deadline_entry_live(e);
  });
  dary_make<kDeadlineArity>(deadline_heap_, DeadlineAfter{});
  stale_deadlines_ = 0;
}

bool Scheduler::report_result(ClientId client, WorkunitId unit, SimTime now) {
  (void)now;
  const auto uit = units_.find(unit);
  VCDL_CHECK(uit != units_.end(), "Scheduler: result for unknown unit");
  // Drop the matching in-flight assignment (if its deadline already expired
  // the entry is gone — the result is late but may still be the first).
  erase_assignment(uit->second, client);
  // An accepted, validated result is evidence of both delivery and honesty —
  // consensus-agreeing duplicates land here too and earn the same credit.
  ClientState* c = clients_.find(client);
  VCDL_CHECK(c != nullptr, "Scheduler: result from unknown client");
  bump_availability(*c, true);
  bump_integrity(*c, true);
  // A duplicate (replication extra or late arrival) is counted by the
  // caller, the grid server, as server.results_duplicate.
  if (uit->second.done) return false;
  uit->second.done = true;
  --outstanding_;
  // Any queued replicas are no longer needed; the unit leaves the ready
  // queue (and the sticky index) with it.
  uit->second.replicas_left = 0;
  remove_ready(uit->second);
  metrics_.results.inc();
  update_gauges();
  return true;
}

void Scheduler::release_assignment(ClientId client, WorkunitId unit) {
  auto& p = units_.at(unit);
  // Already expired by a deadline sweep: that path requeued the replica.
  if (!erase_assignment(p, client)) return;
  if (p.done) return;  // another replica already retired the unit
  drop_hold(p.issued_to, client);
  ++p.replicas_left;
  if (p.replicas_left == 1) push_ready(unit);
}

void Scheduler::report_failure(ClientId client, WorkunitId unit, SimTime now) {
  (void)now;
  VCDL_CHECK(units_.count(unit) > 0, "Scheduler: failure for unknown unit");
  ClientState* c = clients_.find(client);
  VCDL_CHECK(c != nullptr, "Scheduler: failure from unknown client");
  bump_availability(*c, false);
  metrics_.fast_fail.inc();
  release_assignment(client, unit);
  update_gauges();
}

void Scheduler::report_invalid(ClientId client, WorkunitId unit, SimTime now) {
  (void)now;
  VCDL_CHECK(units_.count(unit) > 0, "Scheduler: invalid result, unknown unit");
  // The payload arrived fine — what it *contained* was wrong. Only the
  // integrity reputation takes the hit.
  ClientState* c = clients_.find(client);
  VCDL_CHECK(c != nullptr, "Scheduler: invalid result from unknown client");
  bump_integrity(*c, false);
  metrics_.invalid.inc();
  release_assignment(client, unit);
  update_gauges();
}

void Scheduler::report_replica(ClientId client, WorkunitId unit) {
  const auto uit = units_.find(unit);
  VCDL_CHECK(uit != units_.end(), "Scheduler: replica for unknown unit");
  // Drop the assignment so the deadline sweep never fires on a replica that
  // already uploaded; keep the issued_to hold (the client must not be handed
  // the same unit again while its replica awaits quorum) and defer all
  // reputation movement to the consensus verdict.
  erase_assignment(uit->second, client);
  metrics_.held_replicas.inc();
  update_gauges();
}

void Scheduler::reissue_replica(WorkunitId unit, ClientId client) {
  auto& p = units_.at(unit);
  metrics_.replica_lost.inc();
  if (p.done) return;  // promoted before the crash; nothing to replace
  drop_hold(p.issued_to, client);
  ++p.replicas_left;
  push_ready(unit);
  update_gauges();
}

bool Scheduler::is_retired(WorkunitId unit) const {
  const auto it = units_.find(unit);
  VCDL_CHECK(it != units_.end(), "Scheduler: retirement of unknown unit");
  return it->second.done;
}

std::size_t Scheduler::effective_replication(WorkunitId unit) const {
  const auto it = units_.find(unit);
  VCDL_CHECK(it != units_.end(), "Scheduler: replication of unknown unit");
  return it->second.replication_total;
}

void Scheduler::reissue_lost(WorkunitId unit) {
  auto& p = units_.at(unit);
  if (!p.done) return;  // still pending; deadline recovery will handle it
  p.done = false;
  ++outstanding_;
  metrics_.reissue.inc();
  // Keep replica holds only for assignments still actively in flight. The
  // producer's hold (its assignment was erased when its result arrived) is
  // stale and would wrongly bar it from re-running the unit — fatal when it
  // is the only client.
  std::erase_if(p.issued_to, [&p](ClientId holder) {
    return std::none_of(p.assignments.begin(), p.assignments.end(),
                        [holder](const Assignment& a) {
                          return a.client == holder;
                        });
  });
  // A still-running replica (replication > 1) can retire the unit on its own;
  // only queue a fresh replica when nobody is computing it.
  if (p.replicas_left == 0 && p.issued_to.empty()) {
    p.replicas_left = 1;
    push_ready(unit);
  }
  update_gauges();
}

void Scheduler::push_ready(WorkunitId unit) {
  auto& p = units_.at(unit);
  if (p.ready_seq != 0 && !grid_hooks::scheduler_duplicate_ready) return;
  const std::uint64_t seq = next_ready_seq_++;
  p.ready_seq = seq;
  // Inserts always land at the end (seqs are monotone), so the end hint
  // makes each emplace amortized O(1) instead of a tree search; the returned
  // iterators are kept on the unit so removal is O(1) too.
  p.ready_it = ready_.emplace_hint(ready_.end(), seq, &p);
  p.sticky_its.clear();
  for (const FileId f : p.sticky_inputs) {
    auto& entries = sticky_index_[f];
    p.sticky_its.push_back(entries.emplace_hint(entries.end(), seq, &p));
  }
}

void Scheduler::remove_ready(PendingUnit& p) {
  if (p.ready_seq == 0) return;
  ready_.erase(p.ready_it);
  for (std::size_t i = 0; i < p.sticky_its.size(); ++i) {
    sticky_index_[p.sticky_inputs[i]].erase(p.sticky_its[i]);
  }
  p.sticky_its.clear();
  p.ready_seq = 0;
}

std::vector<WorkunitId> Scheduler::expire_deadlines(SimTime now) {
  // Pop exactly the due heads (plus any stale entries shed on the way) —
  // untouched assignments cost nothing. Processing replays the due set in
  // issue order, which is the order the old insertion-ordered full walk
  // visited them in, so traces and reputation EMAs are bit-identical.
  std::vector<DeadlineEntry> due;
  while (!deadline_heap_.empty()) {
    const DeadlineEntry& top = deadline_heap_.front();
    const bool live = deadline_entry_live(top);
    if (live && top.deadline > now) break;
    const DeadlineEntry e = dary_pop<kDeadlineArity>(deadline_heap_,
                                                     DeadlineAfter{});
    if (live) {
      // Drop the assignment now; processing below never consults the
      // assignment records, so erasing early is unobservable.
      release_assign_slot(e.slot);
      auto& p = units_.at(e.unit);
      for (auto it = p.assignments.begin(); it != p.assignments.end(); ++it) {
        if (it->seq == e.seq) {
          p.assignments.erase(it);
          break;
        }
      }
      --inflight_count_;
      due.push_back(e);
    } else {
      --stale_deadlines_;
    }
  }
  std::sort(due.begin(), due.end(),
            [](const DeadlineEntry& a, const DeadlineEntry& b) {
              return a.seq < b.seq;
            });
  std::vector<WorkunitId> expired;
  for (const DeadlineEntry& e : due) {
    auto& p = units_.at(e.unit);
    bump_availability(*clients_.find(e.client), false);  // live ⇒ registered
    metrics_.timeout.inc();
    if (!p.done) {
      // Reissue. The missed client becomes eligible again too — after a
      // preemption it may be the only machine left.
      drop_hold(p.issued_to, e.client);
      ++p.replicas_left;
      if (p.replicas_left == 1) push_ready(p.unit.id);
      expired.push_back(e.unit);
    }
  }
  update_gauges();
  return expired;
}

std::optional<SimTime> Scheduler::next_deadline() const {
  while (!deadline_heap_.empty()) {
    const DeadlineEntry& top = deadline_heap_.front();
    if (deadline_entry_live(top)) return top.deadline;
    dary_pop<kDeadlineArity>(deadline_heap_, DeadlineAfter{});
    --stale_deadlines_;
  }
  return std::nullopt;
}

Scheduler::Stats Scheduler::stats() const {
  return {metrics_.dispatched.value(), metrics_.results.value(),
          metrics_.timeout.value()};
}

double Scheduler::reliability(ClientId id) const {
  return std::min(availability(id), integrity(id));
}

double Scheduler::availability(ClientId id) const {
  const ClientState* c = clients_.find(id);
  VCDL_CHECK(c != nullptr, "Scheduler: unknown client");
  return c->availability;
}

double Scheduler::integrity(ClientId id) const {
  const ClientState* c = clients_.find(id);
  VCDL_CHECK(c != nullptr, "Scheduler: unknown client");
  return c->integrity;
}

void Scheduler::check_invariants() const {
  // Ready queue: no stale or duplicate entries, and exactly the issuable
  // units (!done && replicas_left > 0) are queued.
  for (const auto& [seq, pp] : ready_) {
    const auto uit = units_.find(pp->unit.id);
    VCDL_CHECK(uit != units_.end() && &uit->second == pp,
               "invariant: ready entry for unknown unit");
    const PendingUnit& p = *pp;
    VCDL_CHECK(p.ready_seq == seq,
               "invariant: duplicate or stale ready entry for unit");
    VCDL_CHECK(!p.done, "invariant: retired unit still in ready queue");
    VCDL_CHECK(p.replicas_left > 0,
               "invariant: exhausted unit still in ready queue");
  }
  std::size_t pending_units = 0;
  for (const auto& [id, p] : units_) {
    if (!p.done) ++pending_units;
    const bool issuable = !p.done && p.replicas_left > 0;
    if (issuable) {
      const auto rit = ready_.find(p.ready_seq);
      VCDL_CHECK(p.ready_seq != 0 && rit != ready_.end() && rit->second == &p,
                 "invariant: issuable unit missing from ready queue");
      VCDL_CHECK(p.ready_it == rit,
                 "invariant: cached ready iterator is stale");
    } else {
      VCDL_CHECK(p.ready_seq == 0,
                 "invariant: non-issuable unit holds a ready seq");
    }
    // Every hold names a registered client.
    for (const ClientId holder : p.issued_to) {
      VCDL_CHECK(clients_.contains(holder),
                 "invariant: issued_to names an unregistered client");
    }
  }
  VCDL_CHECK(pending_units == outstanding_,
             "invariant: outstanding count != unretired units");
  // Sticky index mirrors the ready queue exactly, and each unit's interned
  // sticky_inputs match the sticky FileRefs it was added with.
  std::size_t sticky_expected = 0;
  for (const auto& [seq, pp] : ready_) {
    std::size_t sticky_refs = 0;
    for (const FileRef& f : pp->unit.inputs) {
      if (!f.sticky) continue;
      ++sticky_refs;
      const auto fit = file_ids_.find(f.name);
      VCDL_CHECK(fit != file_ids_.end() &&
                     std::find(pp->sticky_inputs.begin(),
                               pp->sticky_inputs.end(),
                               fit->second) != pp->sticky_inputs.end(),
                 "invariant: sticky input not interned on its unit");
    }
    VCDL_CHECK(sticky_refs == pp->sticky_inputs.size(),
               "invariant: interned sticky input count drifted");
    VCDL_CHECK(pp->sticky_its.size() == pp->sticky_inputs.size(),
               "invariant: cached sticky iterator count drifted");
    for (std::size_t i = 0; i < pp->sticky_inputs.size(); ++i) {
      const FileId f = pp->sticky_inputs[i];
      ++sticky_expected;
      const auto sit = f < sticky_index_.size() ? sticky_index_[f].find(seq)
                                                : ReadyQueue::iterator{};
      VCDL_CHECK(f < sticky_index_.size() && sit != sticky_index_[f].end() &&
                     sit->second == pp && pp->sticky_its[i] == sit,
                 "invariant: ready unit missing from sticky index");
    }
  }
  std::size_t sticky_actual = 0;
  for (const ReadyQueue& entries : sticky_index_) {
    for (const auto& [seq, pp] : entries) {
      VCDL_CHECK(ready_.count(seq) > 0 && ready_.at(seq) == pp,
                 "invariant: sticky index entry not in ready queue");
      ++sticky_actual;
    }
  }
  VCDL_CHECK(sticky_actual == sticky_expected,
             "invariant: sticky index size mismatch");
  // Inflight: every assignment names a registered client and an issued_to
  // hold, carries a live slot, and is unique per (unit, client); the
  // deadline index and the liveness slab cover the set exactly.
  std::size_t live_deadlines = 0;
  for (const DeadlineEntry& e : deadline_heap_) {
    if (deadline_entry_live(e)) ++live_deadlines;
  }
  VCDL_CHECK(live_deadlines == inflight_count_,
             "invariant: deadline index does not cover inflight exactly");
  VCDL_CHECK(deadline_heap_.size() - live_deadlines == stale_deadlines_,
             "invariant: stale deadline accounting drifted");
  std::size_t inflight_seen = 0;
  for (const auto& [id, p] : units_) {
    for (std::size_t i = 0; i < p.assignments.size(); ++i) {
      const Assignment& a = p.assignments[i];
      ++inflight_seen;
      VCDL_CHECK(clients_.contains(a.client),
                 "invariant: inflight assignment for unregistered client");
      VCDL_CHECK(holds(p.issued_to, a.client),
                 "invariant: inflight assignment without an issued_to hold");
      VCDL_CHECK(a.seq != 0 && a.seq < next_assign_seq_,
                 "invariant: inflight assignment with an impossible seq");
      VCDL_CHECK(a.slot < assign_slots_.size() &&
                     assign_slots_[a.slot].seq == a.seq,
                 "invariant: inflight assignment's liveness slot is stale");
      for (std::size_t j = i + 1; j < p.assignments.size(); ++j) {
        VCDL_CHECK(p.assignments[j].client != a.client,
                   "invariant: duplicate live assignment for one client");
      }
    }
  }
  VCDL_CHECK(inflight_seen == inflight_count_,
             "invariant: inflight count drifted");
  // Conversely, every live slot backs exactly one inflight assignment.
  std::size_t live_slots = 0;
  for (const AssignSlot& s : assign_slots_) {
    if (s.seq != 0) ++live_slots;
  }
  VCDL_CHECK(live_slots == inflight_count_,
             "invariant: live slot count != inflight assignments");
}

void Scheduler::update_gauges() const {
  metrics_.queue_depth.set(static_cast<double>(ready_count()));
  metrics_.inflight.set(static_cast<double>(inflight_count_));
}

void Scheduler::bump_availability(ClientState& c, bool success) {
  c.availability = (1.0 - kReliabilityEma) * c.availability +
                   kReliabilityEma * (success ? 1.0 : 0.0);
}

void Scheduler::bump_integrity(ClientState& c, bool success) {
  c.integrity = (1.0 - kReliabilityEma) * c.integrity +
                kReliabilityEma * (success ? 1.0 : 0.0);
}

}  // namespace vcdl
