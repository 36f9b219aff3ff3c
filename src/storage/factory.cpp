#include <memory>

#include "storage/eventual_store.hpp"
#include "storage/strong_store.hpp"

namespace vcdl {

namespace {

// `metrics` is empty (the store owns a registry) or one run registry.
template <typename... R>
std::unique_ptr<KvStore> make(const std::string& kind, R&... metrics) {
  if (kind == "strong") return std::make_unique<StrongStore>(metrics...);
  if (kind == "eventual") return std::make_unique<EventualStore>(metrics...);
  throw InvalidArgument("make_store: unknown store kind '" + kind +
                        "' (expected 'strong' or 'eventual')");
}

}  // namespace

KvStore::KvStore(StoreLatencyModel latency)
    : latency_(latency),
      own_metrics_(std::make_unique<obs::Registry>()),
      metrics_(*own_metrics_) {}

KvStore::KvStore(StoreLatencyModel latency, obs::Registry& metrics)
    : latency_(latency), metrics_(metrics) {}

std::unique_ptr<KvStore> make_store(const std::string& kind) {
  return make(kind);
}

std::unique_ptr<KvStore> make_store(const std::string& kind,
                                    obs::Registry& metrics) {
  return make(kind, metrics);
}

}  // namespace vcdl
