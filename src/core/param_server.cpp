#include "core/param_server.hpp"

#include <algorithm>
#include <memory>
#include <set>

#include "core/eval.hpp"
#include "core/test_hooks.hpp"
#include "core/vcasgd.hpp"
#include "grid/consensus.hpp"
#include "nn/model_io.hpp"
#include "sim/engine.hpp"

namespace vcdl {

namespace {
// vCPUs one validation's forward passes can use on the server instance.
constexpr double kPsThreads = 2.0;
}  // namespace

Blob encode_upload(WireMode mode, const ShardPlan& plan,
                   std::span<const float> base, std::span<const float> params,
                   std::uint64_t base_version) {
  if (mode == WireMode::full) return save_params(params);
  std::vector<Blob> parts(plan.shards());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const auto b = plan.view(base, s);
    const auto t = plan.view(params, s);
    parts[s] = mode == WireMode::delta ? encode_params_delta(b, t, base_version)
                                       : encode_params_q8(b, t, base_version);
  }
  return parts.size() == 1 ? std::move(parts[0]) : pack_shard_frames(parts);
}

bool validate_upload(const Blob& payload) {
  try {
    if (is_wire_frame(payload)) return validate_frame(payload);
    if (is_shard_bundle(payload)) return validate_shard_bundle(payload);
    load_params(payload);
    return true;
  } catch (const Error&) {
    return false;
  }
}

VcAsgdAssimilator::VcAsgdAssimilator(
    SimEngine& engine, KvStore& store, FileServer& files, GridServer& server,
    const AlphaSchedule& schedule, Model& eval_model, ExecContext& exec,
    const Dataset& validation, InstanceType server_instance, Options options,
    TraceLog& trace, obs::Registry& metrics, Rng rng,
    std::function<void(std::size_t, double)> on_assimilated)
    : engine_(engine), store_(store), files_(files), server_(server),
      schedule_(schedule), eval_model_(eval_model), exec_(exec),
      validation_(validation), server_instance_(std::move(server_instance)),
      options_(std::move(options)), trace_(trace), metrics_(metrics),
      rng_(rng), on_assimilated_(std::move(on_assimilated)) {
  VCDL_CHECK(on_assimilated_ != nullptr, "VcAsgdAssimilator: null callback");
}

void VcAsgdAssimilator::publish_initial(const std::vector<float>& params) {
  // Resolve the shard plan on first publish (checkpoint replay re-enters
  // with the same-sized vector and keeps the plan).
  if (plan_.empty() || plan_.total() != params.size()) {
    plan_ = options_.plan.empty() || options_.plan.total() != params.size()
                ? ShardPlan::single(params.size())
                : options_.plan;
    base_rings_.assign(plan_.shards(), {});
  }
  // Checkpoint replay re-enters here with rewound params while commits_
  // stays put; clear the rings so no stale pre-crash base survives under
  // its old version number. Future commits will *reuse* those version
  // numbers with different params — which is why ring hits also compare
  // the frame's base_hash: a pre-crash upload whose base_version matches a
  // post-replay entry hash-misses and takes the ring-miss path instead of
  // silently decoding against the wrong base.
  for (auto& ring : base_rings_) ring.clear();
  write_shards(params, std::vector<std::uint64_t>(plan_.shards(), 0));
}

SimTime VcAsgdAssimilator::validation_time() const {
  // Busy workers share the server instance's vCPUs; each wants kPsThreads.
  const std::size_t busy = std::max<std::size_t>(1, server_.active_assimilations());
  const double share =
      static_cast<double>(server_instance_.vcpus) / static_cast<double>(busy);
  const double eff = std::min(kPsThreads, share);
  return options_.validate_work / (server_instance_.clock_ghz * eff);
}

std::vector<float> VcAsgdAssimilator::read_shards(
    std::vector<std::uint64_t>& read_versions) {
  std::vector<float> server_params(plan_.total());
  read_versions.assign(plan_.shards(), 0);
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    const auto current = store_.get(shard_key(s));
    VCDL_CHECK(current.has_value(), "assimilate: params missing from store");
    const std::vector<float> slice = load_params(current->value);
    const auto dst = plan_.view(std::span<float>(server_params), s);
    VCDL_CHECK(slice.size() == dst.size(),
               "assimilate: shard store blob size mismatch");
    std::copy(slice.begin(), slice.end(), dst.begin());
    read_versions[s] = current->version;
  }
  return server_params;
}

void VcAsgdAssimilator::write_shards(
    const std::vector<float>& params,
    const std::vector<std::uint64_t>& read_versions) {
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    Blob blob = save_params(plan_.view(std::span<const float>(params), s));
    const std::uint64_t new_version =
        store_.put(shard_key(s), blob, read_versions[s]);
    files_.publish(shard_key(s), std::move(blob), /*compress=*/true,
                   /*delta_capable=*/options_.wire_mode != WireMode::full);
    if (read_versions[s] > 0) {
      // Versions that landed between our read and this write — 0 on a
      // strong store (the transaction serializes), positive on an eventual
      // store when another worker's blend slipped in (its update is what we
      // clobbered). Shards commit in lockstep, so every shard reports the
      // same staleness and the gauge holds one value.
      metrics_.staleness.set(
          static_cast<double>(new_version - read_versions[s] - 1));
    }
  }
  published_ = params;
  remember_base();
}

void VcAsgdAssimilator::remember_base() {
  if (options_.wire_mode == WireMode::full) return;
  std::set<std::uint64_t> pinned;
  for (const auto& [unit, bases] : exec_base_) {
    pinned.insert(bases.begin(), bases.end());
  }
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    auto& ring = base_rings_[s];
    const auto slice = plan_.view(std::span<const float>(published_), s);
    ring[commits_] = {params_hash(slice), {slice.begin(), slice.end()}};
    for (auto it = ring.begin();
         ring.size() > options_.version_ring && it != ring.end() &&
         it->first < commits_;) {
      if (pinned.count(it->first) > 0) {
        ++it;
      } else {
        it = ring.erase(it);
      }
    }
  }
}

std::optional<std::vector<float>> VcAsgdAssimilator::decode_upload(
    const Blob& payload, bool peek) const {
  const bool bundle = is_shard_bundle(payload);
  if (!bundle && !is_wire_frame(payload)) return load_params(payload);
  // A bare frame is a one-part bundle.
  const std::vector<Blob> parts =
      bundle ? unpack_shard_frames(payload) : std::vector<Blob>{payload};
  if (parts.size() != plan_.shards()) {
    // A bundle from a different plan (or a sabotaged client) cannot be
    // routed; drop it like a ring-missed delta.
    if (!peek) metrics_.frames_dropped.inc();
    return std::nullopt;
  }
  std::vector<float> out(plan_.total());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const WireFrame frame = read_frame_header(parts[s]);
    const auto& ring = base_rings_[s];
    const auto it = ring.find(frame.base_version);
    std::span<const float> base;
    if (it != ring.end() && it->second.hash == frame.base_hash) {
      base = it->second.params;
      if (!peek) metrics_.frames_decoded.inc();
    } else {
      // Peek has no fallback: an undecodable replica must stay
      // incomparable, not coincidentally match.
      if (peek) return std::nullopt;
      metrics_.base_misses.inc();
      if (frame.mode == WireMode::delta) {
        // One undecodable bit-space part poisons the whole vector, so the
        // upload is dropped rather than blended.
        metrics_.frames_dropped.inc();
        return std::nullopt;
      }
      // q8 diffs live in float space: against the published slice the
      // decode degrades to plain update application.
      base = plan_.view(std::span<const float>(published_), s);
    }
    const std::vector<float> slice = decode_params(parts[s], base);
    const auto dst = plan_.view(std::span<float>(out), s);
    VCDL_CHECK(slice.size() == dst.size(),
               "decode_upload: shard slice size mismatch");
    std::copy(slice.begin(), slice.end(), dst.begin());
  }
  return out;
}

void VcAsgdAssimilator::note_exec_base(WorkunitId unit) {
  exec_base_[unit].push_back(commits_);
}

void VcAsgdAssimilator::assimilate(ResultEnvelope env, std::size_t ps_index,
                                   std::function<void()> on_done) {
  auto shared_env = std::make_shared<ResultEnvelope>(std::move(env));
  auto done = std::make_shared<std::function<void()>>(std::move(on_done));
  try_assimilate(std::move(shared_env), std::move(done), ps_index,
                 /*attempt=*/0);
}

void VcAsgdAssimilator::try_assimilate(
    std::shared_ptr<ResultEnvelope> env,
    std::shared_ptr<std::function<void()>> done, std::size_t ps_index,
    std::size_t attempt) {
  // Every continuation below checks the server generation it started under:
  // a crash bumps it, the worker slot was already reset, and this chain must
  // stop dead — committing pre-crash state after a checkpoint replay would
  // resurrect exactly what the crash destroyed.
  const std::uint64_t gen = server_.generation();
  const std::string ps_name = "ps-" + std::to_string(ps_index);

  // Injected store fault: one draw covers this attempt's read+write pair.
  double latency_factor = 1.0;
  if (faults_ != nullptr) {
    const auto fault = faults_->on_transfer(FaultSite::store);
    if (fault.dropped) {
      // Outage: back off and retry the whole attempt. Unbounded but capped —
      // the result is already retired at the scheduler, so abandoning it
      // here would strand the workunit.
      trace_.record(engine_.now(), TraceKind::store_fault, ps_name,
                    env->unit.label() + " retry " + std::to_string(attempt));
      metrics_.outage_retries.inc();
      const SimTime delay = store_retry_.delay(attempt, rng_);
      engine_.schedule(delay, [this, env, done, ps_index, attempt, gen] {
        if (server_.generation() != gen) return;
        try_assimilate(env, done, ps_index, attempt + 1);
      });
      return;
    }
    latency_factor = fault.time_factor;
    if (latency_factor > 1.0) {
      trace_.record(engine_.now(), TraceKind::store_fault, ps_name,
                    env->unit.label() + " latency spike");
    }
  }

  const double alpha = schedule_.alpha(env->unit.epoch);

  if (store_.consistency() == Consistency::strong) {
    // MySQL-like: the read-blend-write is one serializable transaction; the
    // virtual lock makes concurrent workers queue, then each pays the full
    // 1.29 s update latency. Validation happens outside the transaction.
    txn_lock_.acquire([this, env, done, alpha, gen, latency_factor] {
      if (server_.generation() != gen) {
        txn_lock_.release();
        return;
      }
      observe_store_latency(latency_factor);
      engine_.schedule(store_.latency().update_s() * latency_factor,
                       [this, env, done, alpha, gen] {
                         if (server_.generation() != gen) {
                           txn_lock_.release();
                           return;
                         }
                         const Blend blended = blend(*env, alpha);
                         commit_blend(env->unit.id, blended);
                         txn_lock_.release();
                         validate_and_report(env, done, blended.params, gen);
                       });
    });
    return;
  }

  // Redis-like (eventual): read and write are independent events separated
  // only by the store latencies; two workers whose windows overlap clobber
  // each other (lost updates), exactly as in §III-D. Validation happens
  // *after* the write, outside the race window, as in the paper's pipeline
  // ("after assimilating ... the parameter server computes the validation
  // accuracy").
  observe_store_latency(latency_factor);
  engine_.schedule(
      store_.latency().read_s * latency_factor,
      [this, env, done, alpha, gen, latency_factor] {
        if (server_.generation() != gen) return;
        auto blended = std::make_shared<Blend>(blend(*env, alpha));
        engine_.schedule(store_.latency().write_s * latency_factor,
                         [this, env, done, blended, gen] {
                           if (server_.generation() != gen) return;
                           commit_blend(env->unit.id, *blended);
                           validate_and_report(env, done, blended->params,
                                               gen);
                         });
      });
}

void VcAsgdAssimilator::observe_store_latency(double latency_factor) {
  metrics_.read_s.observe(store_.latency().read_s * latency_factor);
  metrics_.write_s.observe(store_.latency().write_s * latency_factor);
  metrics_.alpha_mix_s.observe(store_.latency().update_s() * latency_factor);
}

VcAsgdAssimilator::Blend VcAsgdAssimilator::blend(const ResultEnvelope& env,
                                                  double alpha) {
  Blend blended;
  blended.params = read_shards(blended.read_versions);
  std::optional<std::vector<float>> client =
      decode_upload(env.payload, /*peek=*/false);
  if (client.has_value() &&
      blend_outlier(blended.params, *client,
                    options_.blend_outlier_threshold)) {
    metrics_.blend_rejected.inc();
    trace_.record(engine_.now(), TraceKind::blend_rejected, "assimilator",
                  env.unit.label() + " client-" + std::to_string(env.client));
    client.reset();
  }
  blended.applied = client.has_value();
  if (!blended.applied) return blended;
  // Eq. (1) routed per shard slice — elementwise, so the concatenation of
  // the shard blends is bit-identical to one full-span blend (the
  // cross-shard property in tests/test_shard_plane.cpp).
  for (std::size_t s = 0; s < plan_.shards(); ++s) {
    if (shard_hooks::misroute_blend && s == 0) continue;
    vcasgd_update(plan_.view(std::span<float>(blended.params), s),
                  plan_.view(std::span<const float>(*client), s), alpha);
  }
  return blended;
}

void VcAsgdAssimilator::commit_blend(WorkunitId unit, const Blend& blended) {
  // Release the unit's base-ring pins before the commit prunes the rings.
  // Dropping every replica's pin is safe because the grid server retires the
  // unit on its first valid result (Scheduler::report_result) and later
  // duplicates never reach assimilate() — no further decode for this unit
  // can occur. A dropped upload's unit is retired all the same, so it still
  // validates (the unchanged params) and reports; an abandoned chain would
  // stall the epoch.
  const auto it = exec_base_.find(unit);
  if (it != exec_base_.end()) {
    if (blended.applied) {
      metrics_.gradient_age.observe(
          static_cast<double>(commits_ - it->second.back()));
    }
    exec_base_.erase(it);
  }
  if (!blended.applied) return;
  ++commits_;
  write_shards(blended.params, blended.read_versions);
  metrics_.updates.inc();
}

void VcAsgdAssimilator::validate_and_report(
    std::shared_ptr<ResultEnvelope> env,
    std::shared_ptr<std::function<void()>> done,
    const std::vector<float>& params, std::uint64_t gen) {
  eval_model_.set_flat_params(params);
  const double acc = evaluate_accuracy_subsample(
      eval_model_, validation_, options_.validation_subsample, rng_, exec_);
  engine_.schedule(validation_time(),
                   [this, env = std::move(env), done = std::move(done), acc,
                    gen] {
                     if (server_.generation() != gen) return;
                     on_assimilated_(env->unit.epoch, acc);
                     (*done)();
                   });
}

}  // namespace vcdl
