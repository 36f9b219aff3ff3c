#include "storage/kvstore.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace vcdl {

namespace {

/// One key's record of the versions stale puts were charged for. A put that
/// read `read_version` (0 = blind write, which charges nothing) and lands on
/// `slot_version` clobbers (read_version, slot_version] unseen; it is
/// charged for the versions in that range no earlier put was charged for.
/// A slot behind the read (erased and rewritten since) charges one.
class LostUpdateLedger {
 public:
  std::uint64_t charge(std::uint64_t slot_version, std::uint64_t read_version) {
    if (read_version == 0 || read_version == slot_version) return 0;
    if (read_version > slot_version) return 1;
    std::uint64_t first = read_version + 1;
    std::uint64_t lost = slot_version - read_version;
    // Fold the runs that overlap or touch the range into one.
    while (!charged_.empty() && charged_.back().second >= read_version) {
      const auto [lo, hi] = charged_.back();
      charged_.pop_back();
      if (hi >= first) lost -= hi - std::max(lo, first) + 1;
      first = std::min(first, lo);
    }
    charged_.emplace_back(first, slot_version);
    return lost;
  }

 private:
  // Disjoint, non-adjacent runs [first, last] of charged versions, ascending.
  // A clobbered range ends at the newest version, so it merges at the back,
  // and each stale put adds at most one run.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> charged_;
};

Consistency consistency_from_name(const std::string& name) {
  if (name == "strong") return Consistency::strong;
  if (name == "eventual") return Consistency::eventual;
  throw InvalidArgument("make_store: unknown store kind '" + name +
                        "' (expected 'strong' or 'eventual')");
}

StoreLatencyModel latency_for(Consistency consistency) {
  return consistency == Consistency::strong ? mysql_like_latency()
                                            : redis_like_latency();
}

}  // namespace

struct KvStore::Table {
  // A key's entry; erasing the key drops its ledger too.
  struct Slot {
    VersionedValue current;
    LostUpdateLedger ledger;
  };

  std::mutex mutex;
  std::map<std::string, Slot> slots;
};

StoreLatencyModel redis_like_latency() {
  // 0.87 s per read-modify-write (§IV-D), split 40/60 read/write.
  return StoreLatencyModel{.read_s = 0.35, .write_s = 0.52};
}

StoreLatencyModel mysql_like_latency() {
  // 1.29 s per update transaction (§IV-D).
  return StoreLatencyModel{.read_s = 0.52, .write_s = 0.77};
}

KvStore::KvStore(Consistency consistency)
    : consistency_(consistency), latency_(latency_for(consistency)),
      own_metrics_(std::make_unique<obs::Registry>()),
      metrics_(*own_metrics_), table_(std::make_unique<Table>()) {}

KvStore::KvStore(Consistency consistency, obs::Registry& metrics)
    : consistency_(consistency), latency_(latency_for(consistency)),
      metrics_(metrics), table_(std::make_unique<Table>()) {}

KvStore::~KvStore() = default;

std::optional<VersionedValue> KvStore::get(const std::string& key) {
  std::lock_guard lock(table_->mutex);
  metrics_.reads.inc();
  const auto it = table_->slots.find(key);
  if (it == table_->slots.end()) return std::nullopt;
  return it->second.current;
}

std::uint64_t KvStore::put(const std::string& key, Blob value,
                           std::uint64_t read_version) {
  std::lock_guard lock(table_->mutex);
  auto& slot = table_->slots[key];
  metrics_.writes.inc();
  const std::uint64_t lost =
      slot.ledger.charge(slot.current.version, read_version);
  if (lost > 0) metrics_.lost_updates.inc(lost);
  slot.current.value = std::move(value);
  return ++slot.current.version;
}

std::uint64_t KvStore::update(const std::string& key,
                              const std::function<Blob(const Blob*)>& fn) {
  if (consistency_ == Consistency::eventual) {
    // Deliberately NOT atomic: read, compute outside the lock, write. Two
    // concurrent updaters can both read version v; the second write wins and
    // the first updater's contribution is lost (and counted).
    const auto current = get(key);
    Blob next = fn(current ? &current->value : nullptr);
    return put(key, std::move(next), current ? current->version : 0);
  }
  // try_lock first so contention is observable in store.contended_updates.
  std::unique_lock lock(table_->mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    metrics_.contended.inc();
  }
  metrics_.reads.inc();
  metrics_.writes.inc();
  auto& current = table_->slots[key].current;
  current.value = fn(current.version > 0 ? &current.value : nullptr);
  return ++current.version;
}

bool KvStore::contains(const std::string& key) {
  std::lock_guard lock(table_->mutex);
  return table_->slots.count(key) > 0;
}

void KvStore::erase(const std::string& key) {
  std::lock_guard lock(table_->mutex);
  table_->slots.erase(key);
}

std::unique_ptr<KvStore> make_store(const std::string& name) {
  return std::make_unique<KvStore>(consistency_from_name(name));
}

std::unique_ptr<KvStore> make_store(const std::string& name,
                                    obs::Registry& metrics) {
  return std::make_unique<KvStore>(consistency_from_name(name), metrics);
}

}  // namespace vcdl
