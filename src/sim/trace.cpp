#include "sim/trace.hpp"

#include <bit>
#include <cstdio>

#include "common/blob.hpp"

namespace vcdl {
namespace {

// The bytes of a trivially copyable value, in memory order.
template <typename T>
std::span<const std::uint8_t> bytes_of(const T& value) {
  return {reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)};
}

}  // namespace

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::work_generated: return "work_generated";
    case TraceKind::assigned: return "assigned";
    case TraceKind::download: return "download";
    case TraceKind::exec_start: return "exec_start";
    case TraceKind::exec_done: return "exec_done";
    case TraceKind::upload: return "upload";
    case TraceKind::result_received: return "result_received";
    case TraceKind::assimilated: return "assimilated";
    case TraceKind::validated: return "validated";
    case TraceKind::timeout_reassign: return "timeout_reassign";
    case TraceKind::preempted: return "preempted";
    case TraceKind::instance_up: return "instance_up";
    case TraceKind::epoch_done: return "epoch_done";
    case TraceKind::job_done: return "job_done";
    case TraceKind::transfer_failed: return "transfer_failed";
    case TraceKind::subtask_abandoned: return "subtask_abandoned";
    case TraceKind::result_invalid: return "result_invalid";
    case TraceKind::server_crash: return "server_crash";
    case TraceKind::server_recovered: return "server_recovered";
    case TraceKind::checkpoint_saved: return "checkpoint_saved";
    case TraceKind::checkpoint_restored: return "checkpoint_restored";
    case TraceKind::store_fault: return "store_fault";
    case TraceKind::consensus_held: return "consensus_held";
    case TraceKind::consensus_quorum: return "consensus_quorum";
    case TraceKind::consensus_outvoted: return "consensus_outvoted";
    case TraceKind::consensus_fallback: return "consensus_fallback";
    case TraceKind::blend_rejected: return "blend_rejected";
  }
  return "?";
}

void TraceLog::record(SimTime time, TraceKind kind, std::string actor,
                      std::string detail) {
  if (!enabled_) return;
  events_.push_back(TraceEvent{time, kind, std::move(actor), std::move(detail)});
}

std::string TraceDigest::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "events=%zu hash=%016llx", events,
                static_cast<unsigned long long>(hash));
  return buf;
}

TraceDigest TraceLog::digest() const {
  TraceDigest d;
  d.hash = kFnvOffsetBasis;
  for (const auto& e : events_) {
    const auto time_bits = std::bit_cast<std::uint64_t>(e.time);
    d.hash = fnv1a(bytes_of(time_bits), d.hash);
    const auto kind = static_cast<std::uint8_t>(e.kind);
    d.hash = fnv1a(bytes_of(kind), d.hash);
    // Length-prefix the strings so ("ab","c") and ("a","bc") differ.
    const std::uint64_t actor_len = e.actor.size();
    d.hash = fnv1a(bytes_of(actor_len), d.hash);
    d.hash = fnv1a(e.actor, d.hash);
    d.hash = fnv1a(e.detail, d.hash);
    ++d.events;
  }
  return d;
}

std::size_t TraceLog::count(TraceKind kind) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::vector<TraceEvent> TraceLog::filter(TraceKind kind) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

}  // namespace vcdl
