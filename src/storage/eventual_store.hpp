// Eventual-consistency in-memory store — the Redis stand-in.
//
// Sharded map with per-shard locks (so individual operations are atomic and
// the structure is thread-safe) but *no* cross-operation isolation: update()
// decomposes into get + put, and a put whose read_version is stale overwrites
// the racing writer's value (last-writer-wins). That lost-update semantics is
// precisely what the paper accepts in exchange for scalability (§III-D:
// "an eventual consistency database improves scalability, but can lose some
// parameter updates").
#pragma once

#include <array>
#include <map>
#include <mutex>

#include "storage/kvstore.hpp"

namespace vcdl {

class EventualStore : public KvStore {
 public:
  EventualStore() : KvStore(redis_like_latency()) {}
  explicit EventualStore(obs::Registry& metrics)
      : KvStore(redis_like_latency(), metrics) {}

  std::string kind() const override { return "eventual"; }
  std::optional<VersionedValue> get(const std::string& key) override;
  std::uint64_t put(const std::string& key, Blob value,
                    std::uint64_t read_version) override;
  std::uint64_t update(const std::string& key,
                       const std::function<Blob(const Blob*)>& fn) override;
  bool contains(const std::string& key) override;
  void erase(const std::string& key) override;

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    std::mutex mutex;
    std::map<std::string, StoreSlot> map;
  };

  Shard& shard_for(const std::string& key);

  std::array<Shard, kShards> shards_;
};

}  // namespace vcdl
