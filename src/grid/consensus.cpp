#include "grid/consensus.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "grid/test_hooks.hpp"

namespace vcdl {

const std::vector<std::string>& consensus_metric_names() {
  static const std::vector<std::string> names = {
      "replicas_held",    "quorum_promoted", "fallback_promoted",
      "results_outvoted", "replicas_flushed",
      // Adaptive replication (Scheduler) and the blend guard (assimilator).
      "spot_checks",      "solo_grants",     "blend_rejected"};
  return names;
}

ConsensusBuffer::ConsensusBuffer(Config config, ConsensusDecoder decoder,
                                 obs::Registry& metrics)
    : config_(config), decoder_(std::move(decoder)), metrics_(metrics) {
  VCDL_CHECK(config_.quorum >= 1, "ConsensusBuffer: quorum must be >= 1");
  VCDL_CHECK(config_.tolerance >= 0.0, "ConsensusBuffer: tolerance >= 0");
  VCDL_CHECK(config_.tolerance == 0.0 || decoder_ != nullptr,
             "ConsensusBuffer: tolerance mode needs a decoder");
}

bool ConsensusBuffer::equivalent(const Replica& a, const Replica& b) const {
  if (config_.tolerance == 0.0) return a.hash == b.hash;
  // Undecodable payloads (e.g. a delta frame whose base left the ring) can
  // never be compared — they stay singleton classes and cannot win a quorum.
  if (!a.decoded.has_value() || !b.decoded.has_value()) return false;
  const auto& u = *a.decoded;
  const auto& v = *b.decoded;
  if (u.size() != v.size()) return false;
  double diff = 0.0, nu = 0.0, nv = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double d = static_cast<double>(u[i]) - static_cast<double>(v[i]);
    diff += d * d;
    nu += static_cast<double>(u[i]) * static_cast<double>(u[i]);
    nv += static_cast<double>(v[i]) * static_cast<double>(v[i]);
  }
  const double denom = std::max(std::sqrt(std::max(nu, nv)), 1e-12);
  return std::sqrt(diff) / denom <= config_.tolerance;
}

void ConsensusBuffer::classify(HeldUnit& held, Replica& fresh) {
  for (const Replica& existing : held.replicas) {
    if (equivalent(existing, fresh)) {
      fresh.cls = existing.cls;
      return;
    }
  }
  fresh.cls = held.classes++;
}

std::size_t ConsensusBuffer::held_count(WorkunitId unit) const {
  const auto it = units_.find(unit);
  return it == units_.end() ? 0 : it->second.replicas.size();
}

std::size_t ConsensusBuffer::held_replicas() const {
  std::size_t n = 0;
  for (const auto& [id, held] : units_) n += held.replicas.size();
  return n;
}

ConsensusBuffer::Submission ConsensusBuffer::submit(const Workunit& unit,
                                                    ClientId client,
                                                    Blob payload,
                                                    SimTime received_at,
                                                    std::size_t effective_k) {
  Replica replica;
  replica.client = client;
  replica.payload = std::move(payload);
  replica.received_at = received_at;
  replica.order = ++arrival_counter_;
  if (config_.tolerance == 0.0) {
    replica.hash = replica.payload.hash();  // the tolerance == 0 key
  } else {
    replica.decoded = decoder_(replica.payload);
  }

  if (grid_hooks::consensus_first_result_wins) {
    // Sabotage hook: pre-consensus behavior, for the mutation smoke test.
    Submission sub;
    sub.outcome = Outcome::promoted;
    sub.agreeing = 1;
    ResultEnvelope env;
    env.unit = unit;
    env.client = client;
    env.payload = std::move(replica.payload);
    env.received_at = received_at;
    sub.winner = std::move(env);
    return sub;
  }

  auto& held = units_[unit.id];
  if (held.replicas.empty()) held.unit = unit;
  held.effective_k = std::max(held.effective_k, std::max<std::size_t>(
                                                    effective_k, 1));
  // A client re-uploading (timeout reassign looping back to it) replaces its
  // previous replica instead of double-voting.
  const auto dup = std::find_if(
      held.replicas.begin(), held.replicas.end(),
      [&](const Replica& r) { return r.client == client; });
  if (dup != held.replicas.end()) held.replicas.erase(dup);
  classify(held, replica);
  held.replicas.push_back(std::move(replica));
  metrics_.held.inc();

  const std::size_t m = std::min(config_.quorum, held.effective_k);
  std::map<std::size_t, std::size_t> class_sizes;
  for (const Replica& r : held.replicas) ++class_sizes[r.cls];
  for (const auto& [cls, size] : class_sizes) {
    if (size >= m) return promote(unit.id, cls, Outcome::promoted);
  }
  if (held.replicas.size() >= held.effective_k) {
    // Every replica arrived and no class reached m: quorum is unreachable,
    // fall back to plurality now rather than waiting out the deadline.
    return promote(unit.id, plurality_class(held), Outcome::fallback);
  }
  Submission sub;
  sub.outcome = Outcome::held;
  return sub;
}

std::size_t ConsensusBuffer::plurality_class(const HeldUnit& held) const {
  std::map<std::size_t, std::size_t> sizes;
  std::map<std::size_t, std::uint64_t> first_order;
  for (const Replica& r : held.replicas) {
    ++sizes[r.cls];
    const auto it = first_order.find(r.cls);
    if (it == first_order.end() || r.order < it->second) {
      first_order[r.cls] = r.order;
    }
  }
  std::size_t best = held.replicas.front().cls;
  for (const auto& [cls, size] : sizes) {
    if (size > sizes.at(best) ||
        (size == sizes.at(best) && first_order.at(cls) < first_order.at(best))) {
      best = cls;
    }
  }
  return best;
}

ConsensusBuffer::Submission ConsensusBuffer::promote(WorkunitId id,
                                                     std::size_t winning_class,
                                                     Outcome outcome) {
  auto it = units_.find(id);
  VCDL_CHECK(it != units_.end(), "ConsensusBuffer: promote of unheld unit");
  HeldUnit held = std::move(it->second);
  units_.erase(it);

  Submission sub;
  sub.outcome = outcome;
  const Replica* winner = nullptr;
  for (const Replica& r : held.replicas) {
    if (r.cls != winning_class) continue;
    ++sub.agreeing;
    if (winner == nullptr || r.order < winner->order) winner = &r;
  }
  VCDL_CHECK(winner != nullptr, "ConsensusBuffer: empty winning class");
  for (const Replica& r : held.replicas) {
    if (r.cls == winning_class) continue;
    sub.outvoted.push_back(r.client);
    metrics_.outvoted.inc();
  }
  std::sort(sub.outvoted.begin(), sub.outvoted.end());

  ResultEnvelope env;
  env.unit = held.unit;
  env.client = winner->client;
  env.payload = winner->payload;  // copy: winner points into held
  env.received_at = winner->received_at;
  sub.winner = std::move(env);
  (outcome == Outcome::fallback ? metrics_.fallback : metrics_.quorum).inc();
  return sub;
}

std::optional<ConsensusBuffer::Submission> ConsensusBuffer::flush(
    WorkunitId unit) {
  const auto it = units_.find(unit);
  if (it == units_.end()) return std::nullopt;
  return promote(unit, plurality_class(it->second), Outcome::fallback);
}

std::vector<std::pair<WorkunitId, std::vector<ClientId>>>
ConsensusBuffer::drain() {
  std::vector<std::pair<WorkunitId, std::vector<ClientId>>> dropped;
  for (auto& [id, held] : units_) {
    std::vector<ClientId> clients;
    clients.reserve(held.replicas.size());
    for (const Replica& r : held.replicas) clients.push_back(r.client);
    std::sort(clients.begin(), clients.end());
    metrics_.flushed.inc(clients.size());
    dropped.emplace_back(id, std::move(clients));
  }
  units_.clear();
  return dropped;
}

bool blend_outlier(const std::vector<float>& reference,
                   const std::vector<float>& update, double threshold) {
  if (threshold <= 0.0) return false;
  bool outlier = update.size() != reference.size();
  if (!outlier) {
    double diff = 0.0, norm = 0.0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const double d = static_cast<double>(update[i]) -
                       static_cast<double>(reference[i]);
      diff += d * d;
      norm += static_cast<double>(reference[i]) *
              static_cast<double>(reference[i]);
    }
    outlier = !std::isfinite(diff) ||
              std::sqrt(diff) > threshold * std::max(std::sqrt(norm), 1e-12);
  }
  return outlier;
}

}  // namespace vcdl
