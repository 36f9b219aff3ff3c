#include "storage/eventual_store.hpp"

#include <functional>


namespace vcdl {

EventualStore::Shard& EventualStore::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kShards];
}

std::optional<VersionedValue> EventualStore::get(const std::string& key) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  metrics_.reads.inc();
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  return it->second.current;
}

std::uint64_t EventualStore::put(const std::string& key, Blob value,
                                 std::uint64_t read_version) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  auto& slot = shard.map[key];
  const std::uint64_t lost =
      slot.ledger.charge(slot.current.version, read_version);
  metrics_.writes.inc();
  if (lost > 0) {
    // We clobber versions we never saw.
    metrics_.lost_updates.inc(lost);
  }
  slot.current.value = std::move(value);
  return ++slot.current.version;
}

std::uint64_t EventualStore::update(const std::string& key,
                                    const std::function<Blob(const Blob*)>& fn) {
  // Deliberately NOT atomic: read, compute outside the lock, blind write.
  // Two concurrent updaters can both read version v and the second write
  // wins — the first updater's contribution is lost (and counted).
  const auto current = get(key);
  const Blob* base = current ? &current->value : nullptr;
  Blob next = fn(base);
  return put(key, std::move(next), current ? current->version : 0);
}

bool EventualStore::contains(const std::string& key) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  return shard.map.count(key) > 0;
}

void EventualStore::erase(const std::string& key) {
  auto& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  shard.map.erase(key);
}

}  // namespace vcdl
