// Versioned key-value parameter store (§III-D, §IV-D).
//
// The paper keeps the shared server parameter copy in a database so that
// several parameter servers can update it, and compares Redis (main-memory,
// eventual consistency, 0.87 s/update) against MySQL (strong consistency,
// 1.29 s/update). VCDL has one store class that carries that choice as its
// Consistency: a thread-safe in-memory map of versioned values, plus a
// *latency model* chosen by the consistency — the simulated per-operation
// cost the DES charges, calibrated to the paper's measurements. The
// in-memory operation itself is fast; the model is what an experiment bills.
//
// In a simulated run the consistency semantics live in the assimilator
// (core/param_server.hpp), which reads consistency() to pick how it
// schedules a read-blend-write in simulated time:
//
//  * strong   — each read-blend-write holds the assimilator's transaction
//    lock, so concurrent workers queue and no update is lost;
//  * eventual — the read and the write are separate events, and a worker
//    whose window overlaps another's clobbers that worker's update.
//
// That path calls only get() and put(), which behave the same under both
// consistencies. put() takes the version its writer read: a put that lands
// on a newer version overwrites the versions in between unseen, and the
// store counts each such version once in store.lost_updates.
//
// update() serves callers on real threads (the §IV-D store bench,
// bench_micro, the store tests and the fuzz). It is the one method that
// reads the consistency: a strong store runs the read-modify-write
// atomically under the store's lock; an eventual store runs get, fn and put
// as three steps, so two concurrent updaters can both read version v and the
// second write discards the first (counted as a lost update).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "common/blob.hpp"
#include "obs/metrics.hpp"

namespace vcdl {

struct VersionedValue {
  Blob value;
  std::uint64_t version = 0;
};

/// Simulated per-operation latency (seconds). The presets reproduce §IV-D:
/// one parameter *update* (read + blend + write) costs 0.87 s on Redis and
/// 1.29 s on MySQL; VCDL splits that into read/write halves.
struct StoreLatencyModel {
  double read_s = 0.0;
  double write_s = 0.0;
  double update_s() const { return read_s + write_s; }
};

/// Latency presets from the paper's measurements (§IV-D).
StoreLatencyModel redis_like_latency();   // 0.87 s per update
StoreLatencyModel mysql_like_latency();   // 1.29 s per update

enum class Consistency {
  eventual,  // Redis-like: last writer wins, updates may be lost
  strong,    // MySQL-like: serializable updates
};

class KvStore {
 public:
  /// Counts into a registry of its own (a store outside a run).
  explicit KvStore(Consistency consistency);
  /// Counts into `metrics`, the run's registry.
  KvStore(Consistency consistency, obs::Registry& metrics);
  ~KvStore();

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  Consistency consistency() const { return consistency_; }
  const StoreLatencyModel& latency() const { return latency_; }

  /// Versioned read; nullopt when the key does not exist.
  std::optional<VersionedValue> get(const std::string& key);

  /// Writes `value`. `read_version` is the version the writer based its
  /// value on (0 = blind write); the store uses it to count lost updates.
  /// Returns the new version.
  std::uint64_t put(const std::string& key, Blob value,
                    std::uint64_t read_version = 0);

  /// Read-modify-write; `fn` receives the current value (nullptr when
  /// missing) and returns the new one. Atomic on a strong store; on an
  /// eventual store it is get + fn + put and NOT atomic under concurrency.
  std::uint64_t update(const std::string& key,
                       const std::function<Blob(const Blob*)>& fn);

  bool contains(const std::string& key);
  void erase(const std::string& key);

 private:
  // Both consistencies record into the same "store.*" counters: a run uses
  // one store, and its snapshot should not care which consistency it has.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& reads = registry.counter("store.reads");
    obs::Counter& writes = registry.counter("store.writes");
    // Versions a put (with a non-zero read_version) overwrote unseen — the
    // racing writers' updates are lost. Each counts once. On an eventual
    // store it is the accepted §III-D race; on a strong store it flags a
    // get→put misuse of an API whose atomic path is update().
    obs::Counter& lost_updates = registry.counter("store.lost_updates");
    // Strong update(): lock acquisitions that had to wait.
    obs::Counter& contended = registry.counter("store.contended_updates");
  };

  // The guarded map of key slots, each with its lost-update ledger
  // (kvstore.cpp).
  struct Table;

  Consistency consistency_;
  StoreLatencyModel latency_;
  std::unique_ptr<obs::Registry> own_metrics_;  // null when given a registry
  Metrics metrics_;
  std::unique_ptr<Table> table_;
};

/// Builds the store named "strong" (MySQL-like) or "eventual" (Redis-like),
/// counting into a registry of its own, or into `metrics`. Throws
/// InvalidArgument for any other name.
std::unique_ptr<KvStore> make_store(const std::string& name);
std::unique_ptr<KvStore> make_store(const std::string& name,
                                    obs::Registry& metrics);

}  // namespace vcdl
