// Serializable (strong-consistency) in-memory store — the MySQL stand-in.
#pragma once

#include <map>
#include <mutex>

#include "storage/kvstore.hpp"

namespace vcdl {

class StrongStore : public KvStore {
 public:
  StrongStore() : KvStore(mysql_like_latency()) {}
  explicit StrongStore(obs::Registry& metrics)
      : KvStore(mysql_like_latency(), metrics) {}

  std::string kind() const override { return "strong"; }
  std::optional<VersionedValue> get(const std::string& key) override;
  std::uint64_t put(const std::string& key, Blob value,
                    std::uint64_t read_version) override;
  std::uint64_t update(const std::string& key,
                       const std::function<Blob(const Blob*)>& fn) override;
  bool contains(const std::string& key) override;
  void erase(const std::string& key) override;

 private:
  // One global lock keeps the implementation obviously serializable; the
  // paper's bottleneck analysis (§IV-D) is about transaction latency, not
  // lock granularity, and the latency model is charged by the caller anyway.
  mutable std::mutex mutex_;
  std::map<std::string, StoreSlot> map_;
};

}  // namespace vcdl
