// Key-value parameter store interface (§III-D, §IV-D).
//
// The paper stores the shared server parameter copy in a database so that
// multiple parameter servers can update it concurrently, and compares Redis
// (main-memory, eventual consistency, 0.87 s/update) against MySQL (strong
// consistency, 1.29 s/update). VCDL's stores are real thread-safe in-memory
// maps with the two consistency semantics:
//
//  * StrongStore  — update() is an atomic read-modify-write under a per-key
//    lock; concurrent updaters serialize, nothing is ever lost.
//  * EventualStore — readers get a (possibly stale) versioned snapshot and
//    writers blindly last-write-wins; a read-modify-write that raced another
//    writer silently discards that writer's contribution. The store counts
//    these lost updates so experiments can report them.
//
// Each store also carries a *latency model*: the simulated per-operation
// cost charged by the DES (calibrated to the paper's measurements). The
// in-memory operation itself is fast; the model is what an experiment bills.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/blob.hpp"
#include "obs/metrics.hpp"

namespace vcdl {

struct VersionedValue {
  Blob value;
  std::uint64_t version = 0;
};

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

/// A key's entry in either store; erasing the key drops its ledger too.
struct StoreSlot {
  VersionedValue current;
  LostUpdateLedger ledger;
};

/// Simulated per-operation latency (seconds). The defaults reproduce §IV-D:
/// one parameter *update* (read + blend + write) costs 0.87 s on Redis and
/// 1.29 s on MySQL; VCDL splits that into read/write halves.
struct StoreLatencyModel {
  double read_s = 0.0;
  double write_s = 0.0;
  double update_s() const { return read_s + write_s; }
};

class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual std::string kind() const = 0;

  /// Versioned read; nullopt when the key does not exist.
  virtual std::optional<VersionedValue> get(const std::string& key) = 0;

  /// Writes `value`. `read_version` is the version the writer based its
  /// value on (0 = blind write); the store uses it to detect lost updates.
  /// Returns the new version.
  virtual std::uint64_t put(const std::string& key, Blob value,
                            std::uint64_t read_version = 0) = 0;

  /// Atomic read-modify-write; `fn` receives the current value (nullptr when
  /// missing) and returns the new one. On a strong store this serializes; on
  /// an eventual store it deliberately decomposes into get + put and is NOT
  /// atomic under concurrency.
  virtual std::uint64_t update(const std::string& key,
                               const std::function<Blob(const Blob*)>& fn) = 0;

  virtual bool contains(const std::string& key) = 0;
  virtual void erase(const std::string& key) = 0;

  const StoreLatencyModel& latency() const { return latency_; }
  void set_latency(StoreLatencyModel model) { latency_ = model; }

 protected:
  /// Counts into a registry of its own (a store outside a run).
  explicit KvStore(StoreLatencyModel latency);
  /// Counts into `metrics`, the run's registry.
  KvStore(StoreLatencyModel latency, obs::Registry& metrics);

  // Both consistency flavors record into the same "store.*" counters: a run
  // uses one store, and its snapshot should not care which flavor it was.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& reads = registry.counter("store.reads");
    obs::Counter& writes = registry.counter("store.writes");
    // Versions a put (with a non-zero read_version) overwrote unseen — the
    // racing writers' updates are lost. Each counts once (LostUpdateLedger).
    // Both stores count this: on the eventual store it is the accepted
    // §III-D race, on the strong store it flags a get→put misuse of an API
    // whose atomic path is update().
    obs::Counter& lost_updates = registry.counter("store.lost_updates");
    // StrongStore: lock acquisitions that had to wait.
    obs::Counter& contended = registry.counter("store.contended_updates");
  };

  StoreLatencyModel latency_;

 private:
  std::unique_ptr<obs::Registry> own_metrics_;  // null when given a registry

 protected:
  Metrics metrics_;
};

/// Latency presets from the paper's measurements (§IV-D).
StoreLatencyModel redis_like_latency();   // 0.87 s per update
StoreLatencyModel mysql_like_latency();   // 1.29 s per update

/// Factory: "strong" (MySQL-like) or "eventual" (Redis-like), counting
/// into a registry of its own, or into `metrics`.
std::unique_ptr<KvStore> make_store(const std::string& kind);
std::unique_ptr<KvStore> make_store(const std::string& kind,
                                    obs::Registry& metrics);

}  // namespace vcdl
