#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vcdl {

const std::vector<std::string>& fault_kind_names() {
  static const std::vector<std::string> kinds = {
      "transfer_drop",  "transfer_stall", "corruption",      "store_failure",
      "store_slowdown", "server_crash",   "byzantine_result"};
  return kinds;
}

FaultInjector::FaultInjector(FaultPlan plan, Rng rng, obs::Registry& metrics)
    : plan_(std::move(plan)), rng_(rng), metrics_(metrics) {
  auto check_transfer = [](const TransferFaults& m, const char* site) {
    VCDL_CHECK(m.drop_prob >= 0.0 && m.drop_prob <= 1.0,
               std::string("FaultPlan: ") + site + " drop_prob out of [0,1]");
    VCDL_CHECK(m.stall_prob >= 0.0 && m.stall_prob <= 1.0,
               std::string("FaultPlan: ") + site + " stall_prob out of [0,1]");
    VCDL_CHECK(m.stall_factor >= 1.0,
               std::string("FaultPlan: ") + site + " stall_factor must be >= 1");
  };
  check_transfer(plan_.download, "download");
  check_transfer(plan_.upload, "upload");
  VCDL_CHECK(plan_.corruption_prob >= 0.0 && plan_.corruption_prob <= 1.0,
             "FaultPlan: corruption_prob out of [0,1]");
  VCDL_CHECK(plan_.store.fail_prob >= 0.0 && plan_.store.fail_prob < 1.0,
             "FaultPlan: store fail_prob must be in [0,1) or retries never end");
  VCDL_CHECK(plan_.server_recovery_s > 0.0,
             "FaultPlan: server_recovery_s must be positive");
  for (const SimTime t : plan_.server_crashes) {
    VCDL_CHECK(t >= 0.0, "FaultPlan: crash times must be non-negative");
  }
}

FaultInjector::TransferOutcome FaultInjector::draw(const TransferFaults& model) {
  TransferOutcome out;
  if (!model.any()) return out;
  if (model.drop_prob > 0.0 && rng_.bernoulli(model.drop_prob)) {
    out.dropped = true;
    metrics_.transfer_drop.inc();
    return out;
  }
  if (model.stall_prob > 0.0 && rng_.bernoulli(model.stall_prob)) {
    out.time_factor = model.stall_factor;
    metrics_.transfer_stall.inc();
  }
  return out;
}

FaultInjector::TransferOutcome FaultInjector::on_transfer(FaultSite site) {
  switch (site) {
    case FaultSite::download:
      return draw(plan_.download);
    case FaultSite::upload:
      return draw(plan_.upload);
    case FaultSite::store: {
      TransferOutcome out;
      if (!plan_.store.any()) return out;
      if (plan_.store.fail_prob > 0.0 && rng_.bernoulli(plan_.store.fail_prob)) {
        out.dropped = true;
        metrics_.store_failure.inc();
        return out;
      }
      if (plan_.store.slow_prob > 0.0 && rng_.bernoulli(plan_.store.slow_prob)) {
        out.time_factor = plan_.store.slow_factor;
        metrics_.store_slowdown.inc();
      }
      return out;
    }
  }
  return {};
}

bool FaultInjector::corrupt_result() {
  if (plan_.corruption_prob <= 0.0) return false;
  const bool hit = rng_.bernoulli(plan_.corruption_prob);
  if (hit) metrics_.corruption.inc();
  return hit;
}

void FaultInjector::corrupt(Blob& payload) {
  if (payload.empty()) return;
  // Flip a handful of distinct-ish bytes; any flip breaks the payload's
  // 64-bit body checksum, so the server-side validator rejects it.
  auto* bytes = payload.data();
  const std::size_t n = payload.size();
  const std::size_t flips = std::min<std::size_t>(4, n);
  for (std::size_t i = 0; i < flips; ++i) {
    bytes[rng_.uniform_index(n)] ^= static_cast<std::uint8_t>(0x80 >> i);
  }
}

AdversaryModel::AdversaryModel(AdversaryPlan plan, std::size_t fleet_size,
                               Rng rng, obs::Registry& metrics)
    : plan_(std::move(plan)), rng_(rng),
      attacks_(metrics.counter("faults.byzantine_result")) {
  VCDL_CHECK(plan_.fraction >= 0.0 && plan_.fraction <= 1.0,
             "AdversaryPlan: fraction out of [0,1]");
  VCDL_CHECK(plan_.attack_prob >= 0.0 && plan_.attack_prob <= 1.0,
             "AdversaryPlan: attack_prob out of [0,1]");
  VCDL_CHECK(plan_.noise_sigma >= 0.0, "AdversaryPlan: noise_sigma >= 0");
  // Round to the nearest whole client; seeded shuffle picks which ones.
  const auto count = static_cast<std::size_t>(
      plan_.fraction * static_cast<double>(fleet_size) + 0.5);
  std::vector<std::size_t> ids(fleet_size);
  for (std::size_t i = 0; i < fleet_size; ++i) ids[i] = i;
  rng_.shuffle(ids.begin(), ids.end());
  adversaries_.assign(ids.begin(),
                      ids.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(count, fleet_size)));
  std::sort(adversaries_.begin(), adversaries_.end());
  noise_seed_ = rng_();
}

bool AdversaryModel::is_adversary(std::size_t client) const {
  return std::binary_search(adversaries_.begin(), adversaries_.end(), client);
}

std::optional<Tamper> AdversaryModel::draw(std::uint64_t unit) {
  if (adversaries_.empty()) return std::nullopt;
  if (plan_.attack_prob < 1.0 && !rng_.bernoulli(plan_.attack_prob)) {
    return std::nullopt;
  }
  Tamper tamper{.mode = plan_.mode,
                .scale_factor = plan_.scale_factor,
                .constant_value = plan_.constant_value,
                .noise_sigma = plan_.noise_sigma};
  if (plan_.mode == AttackMode::noise) {
    // The stream is keyed by the workunit when colluding (identical payloads
    // per unit across all adversaries) and by a fresh ordinal otherwise
    // (replicas never agree).
    const std::uint64_t key =
        plan_.collude ? unit : mix64(unit, ++attack_ordinal_);
    tamper.noise_seed = mix64(noise_seed_, key);
  }
  attacks_.inc();
  return tamper;
}

void Tamper::apply(std::vector<float>& params) const {
  switch (mode) {
    case AttackMode::sign_flip:
      for (float& p : params) p = -p;
      break;
    case AttackMode::scale:
      for (float& p : params) p *= static_cast<float>(scale_factor);
      break;
    case AttackMode::constant:
      for (float& p : params) p = constant_value;
      break;
    case AttackMode::noise: {
      // Subtle poisoning: gaussian noise scaled to the vector's RMS.
      if (params.empty()) return;
      double sq = 0.0;
      for (const float p : params) {
        sq += static_cast<double>(p) * static_cast<double>(p);
      }
      const double rms = std::sqrt(sq / static_cast<double>(params.size()));
      const double sigma = noise_sigma * std::max(rms, 1e-6);
      Rng noise(noise_seed);
      for (float& p : params) {
        p += static_cast<float>(sigma * noise.normal());
      }
      break;
    }
  }
}

SimTime RetryPolicy::delay(std::size_t attempt, Rng& rng) const {
  const double factor = std::pow(2.0, static_cast<double>(attempt));
  const SimTime capped = std::min(max_backoff_s, base_backoff_s * factor);
  const double spread = jitter > 0.0 ? 1.0 + jitter * rng.uniform() : 1.0;
  return capped * spread;
}

}  // namespace vcdl
