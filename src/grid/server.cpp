#include "grid/server.hpp"

#include "sim/engine.hpp"

namespace vcdl {

GridServer::GridServer(SimEngine& engine, Scheduler& scheduler, TraceLog& trace,
                       obs::Registry& metrics,
                       std::size_t num_parameter_servers,
                       ResultValidator validator)
    : engine_(engine), scheduler_(scheduler), trace_(trace), metrics_(metrics),
      validator_(std::move(validator)), ps_(num_parameter_servers) {
  VCDL_CHECK(num_parameter_servers >= 1, "GridServer: need at least one PS");
  VCDL_CHECK(validator_ != nullptr, "GridServer: null validator");
}

void GridServer::enable_consensus(ConsensusBuffer::Config config,
                                  ConsensusDecoder decoder) {
  VCDL_CHECK(consensus_ == nullptr, "GridServer: consensus already enabled");
  VCDL_CHECK(config.fallback_s > 0.0,
             "GridServer: consensus fallback_s must be positive");
  consensus_ = std::make_unique<ConsensusBuffer>(config, std::move(decoder),
                                                 metrics_.registry);
}

std::size_t GridServer::held_replicas() const {
  return consensus_ ? consensus_->held_replicas() : 0;
}

bool GridServer::submit_result(ClientId client, const Workunit& unit,
                               Blob payload) {
  if (!up_) {
    metrics_.rejected_down.inc();
    return false;
  }
  metrics_.received.inc();
  trace_.record(engine_.now(), TraceKind::result_received,
                "client-" + std::to_string(client), unit.label());
  if (scheduler_.is_retired(unit.id)) {
    // Late replication extra for an already-retired unit: skip the validator
    // (no point paying validation compute, and a garbled late duplicate must
    // not skew the invalid stats) and record the duplicate directly — the
    // scheduler still credits the client's delivery.
    metrics_.retired_skips.inc();
    metrics_.duplicates.inc();
    (void)scheduler_.report_result(client, unit.id, engine_.now());
    return true;
  }
  if (!validator_(payload)) {
    metrics_.invalid.inc();
    trace_.record(engine_.now(), TraceKind::result_invalid,
                  "client-" + std::to_string(client), unit.label());
    // Corruption feeds the reliability EMA and requeues the replica at once
    // (active recovery) instead of waiting out the deadline.
    scheduler_.report_invalid(client, unit.id, engine_.now());
    return true;  // the upload itself succeeded; the payload was rejected
  }
  trace_.record(engine_.now(), TraceKind::validated,
                "client-" + std::to_string(client), unit.label());
  if (consensus_ != nullptr) {
    const bool first_hold = !consensus_->holding(unit.id);
    ConsensusBuffer::Submission sub = consensus_->submit(
        unit, client, std::move(payload), engine_.now(),
        scheduler_.effective_replication(unit.id));
    if (sub.outcome == ConsensusBuffer::Outcome::held) {
      trace_.record(engine_.now(), TraceKind::consensus_held,
                    "client-" + std::to_string(client), unit.label());
      scheduler_.report_replica(client, unit.id);
      if (first_hold) schedule_fallback(unit.id);
      return true;
    }
    accept_promotion(std::move(sub));
    return true;
  }
  const bool first = scheduler_.report_result(client, unit.id, engine_.now());
  if (!first) {
    metrics_.duplicates.inc();
    return true;  // replication extra or post-timeout duplicate
  }
  ResultEnvelope env;
  env.unit = unit;
  env.client = client;
  env.payload = std::move(payload);
  env.received_at = engine_.now();
  const std::size_t ps_index = rr_++ % ps_.size();
  ps_[ps_index].queue.push_back(std::move(env));
  metrics_.queue_depth.set(static_cast<double>(queued_results()));
  maybe_start(ps_index);
  return true;
}

void GridServer::accept_promotion(ConsensusBuffer::Submission submission) {
  VCDL_CHECK(submission.winner.has_value(),
             "GridServer: promotion without a winner");
  ResultEnvelope env = std::move(*submission.winner);
  const std::string label = env.unit.label();
  // The consensus buffer counts promotions and outvoted replicas.
  const bool by_quorum =
      submission.outcome == ConsensusBuffer::Outcome::promoted;
  trace_.record(engine_.now(),
                by_quorum ? TraceKind::consensus_quorum
                          : TraceKind::consensus_fallback,
                "client-" + std::to_string(env.client),
                label + " " + std::to_string(submission.agreeing) +
                    " agreeing");
  // The winner retires the unit; agreeing and outvoted replicas are judged
  // afterwards, so their scheduler calls see a retired unit and only touch
  // reputations (no requeue).
  const bool first =
      scheduler_.report_result(env.client, env.unit.id, engine_.now());
  for (const ClientId loser : submission.outvoted) {
    trace_.record(engine_.now(), TraceKind::consensus_outvoted,
                  "client-" + std::to_string(loser), label);
    scheduler_.report_invalid(loser, env.unit.id, engine_.now());
  }
  if (!first) {
    // A duplicate promotion can only follow a crash-reissue race; drop it
    // rather than assimilating the same unit twice.
    metrics_.duplicates.inc();
    return;
  }
  const std::size_t ps_index = rr_++ % ps_.size();
  ps_[ps_index].queue.push_back(std::move(env));
  metrics_.queue_depth.set(static_cast<double>(queued_results()));
  maybe_start(ps_index);
}

void GridServer::schedule_fallback(WorkunitId unit) {
  // Quorum unreachable by the deadline (replicas lost to gated, crashed or
  // endlessly-retrying clients): promote the plurality of whatever arrived.
  // The generation guard kills the timer if a crash already flushed the
  // buffer; the holding() check covers normal promotion in the meantime.
  const std::uint64_t gen = generation_;
  engine_.schedule(consensus_->config().fallback_s, [this, unit, gen] {
    if (gen != generation_ || !up_ || consensus_ == nullptr) return;
    if (!consensus_->holding(unit)) return;
    auto sub = consensus_->flush(unit);
    if (sub.has_value()) accept_promotion(std::move(*sub));
  });
}

void GridServer::crash() {
  if (!up_) return;
  up_ = false;
  ++generation_;
  metrics_.crash.inc();
  // Accepted-but-unassimilated results die with the server process. Their
  // units were already retired at the scheduler, so un-retire them — the
  // alternative is an epoch that never completes.
  std::size_t lost = 0;
  for (auto& worker : ps_) {
    for (const auto& env : worker.queue) {
      scheduler_.reissue_lost(env.unit.id);
      ++lost;
    }
    worker.queue.clear();
    if (worker.busy) {
      scheduler_.reissue_lost(worker.current);
      worker.busy = false;
      worker.current = 0;
      ++lost;
    }
  }
  if (consensus_ != nullptr) {
    // Held replicas die with the server too. Each must be reissued — the
    // holders' assignments were dropped at report_replica, so without this
    // the unit would have no replicas left, nothing in flight, and no
    // deadline to rescue it.
    for (auto& [unit, clients] : consensus_->drain()) {
      for (const ClientId holder : clients) {
        scheduler_.reissue_replica(unit, holder);
        ++lost;
      }
    }
  }
  active_ = 0;
  metrics_.lost_results.inc(lost);
  metrics_.queue_depth.set(0.0);
  trace_.record(engine_.now(), TraceKind::server_crash, "grid-server",
                std::to_string(lost) + " results lost");
}

void GridServer::restore() {
  if (up_) return;
  up_ = true;
  trace_.record(engine_.now(), TraceKind::server_recovered, "grid-server");
}

std::size_t GridServer::queued_results() const {
  std::size_t n = 0;
  for (const auto& w : ps_) n += w.queue.size();
  return n;
}

void GridServer::maybe_start(std::size_t ps_index) {
  auto& worker = ps_[ps_index];
  if (worker.busy || worker.queue.empty()) return;
  VCDL_CHECK(backend_ != nullptr, "GridServer: no assimilator backend set");
  worker.busy = true;
  worker.current = worker.queue.front().unit.id;
  ++active_;
  ResultEnvelope env = std::move(worker.queue.front());
  worker.queue.pop_front();
  metrics_.queue_depth.set(static_cast<double>(queued_results()));
  const std::string label = env.unit.label();
  const std::uint64_t gen = generation_;
  backend_->assimilate(std::move(env), ps_index, [this, ps_index, label, gen] {
    // A crash between dispatch and completion already reset this worker;
    // the stale chain must not double-free the slot.
    if (gen != generation_) return;
    auto& w = ps_[ps_index];
    w.busy = false;
    w.current = 0;
    --active_;
    metrics_.assimilated.inc();
    trace_.record(engine_.now(), TraceKind::assimilated,
                  "ps-" + std::to_string(ps_index), label);
    maybe_start(ps_index);
  });
}

}  // namespace vcdl
