#include "storage/strong_store.hpp"


namespace vcdl {

StoreLatencyModel redis_like_latency() {
  // 0.87 s per read-modify-write (§IV-D), split 40/60 read/write.
  return StoreLatencyModel{.read_s = 0.35, .write_s = 0.52};
}

StoreLatencyModel mysql_like_latency() {
  // 1.29 s per update transaction (§IV-D).
  return StoreLatencyModel{.read_s = 0.52, .write_s = 0.77};
}

std::optional<VersionedValue> StrongStore::get(const std::string& key) {
  std::lock_guard lock(mutex_);
  metrics_.reads.inc();
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second.current;
}

std::uint64_t StrongStore::put(const std::string& key, Blob value,
                               std::uint64_t read_version) {
  std::lock_guard lock(mutex_);
  metrics_.writes.inc();
  auto& slot = map_[key];
  // put() is still last-writer-wins — strong consistency lives in update(),
  // which serializes the whole read-modify-write. But a caller doing
  // get→put against this store races exactly like on the eventual store, so
  // a stale read_version is counted instead of silently discarded: the
  // misuse is observable in store.lost_updates.
  const std::uint64_t lost =
      slot.ledger.charge(slot.current.version, read_version);
  if (lost > 0) {
    metrics_.lost_updates.inc(lost);
  }
  slot.current.value = std::move(value);
  return ++slot.current.version;
}

std::uint64_t StrongStore::update(const std::string& key,
                                  const std::function<Blob(const Blob*)>& fn) {
  // try_lock first so contention is observable in store.contended_updates.
  std::unique_lock lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock.lock();
    metrics_.contended.inc();
  }
  metrics_.reads.inc();
  metrics_.writes.inc();
  auto& slot = map_[key].current;
  const Blob* current = slot.version > 0 ? &slot.value : nullptr;
  slot.value = fn(current);
  return ++slot.version;
}

bool StrongStore::contains(const std::string& key) {
  std::lock_guard lock(mutex_);
  return map_.count(key) > 0;
}

void StrongStore::erase(const std::string& key) {
  std::lock_guard lock(mutex_);
  map_.erase(key);
}

}  // namespace vcdl
