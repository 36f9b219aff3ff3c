// File server — the BOINC web-server role (§II-C).
//
// Holds named, versioned blobs (architecture file, parameter copies, data
// shards). Payloads can be marked for on-the-wire compression: the wire size
// (what a transfer is billed for) is then the compressed size, computed once
// per version. Client-side caching of sticky files is handled by SimClient;
// the server just exposes versions so caches can be validated.
//
// Delta-capable files (the parameter copies) additionally keep a small ring
// of recent versions: a client that last saw version `v` is billed for an
// encoded delta against `v` (common/wire_codec.hpp) instead of the full
// blob, falling back to the full wire size when `v` has aged out of the
// ring or the delta would not actually be smaller. The ring is only
// maintained when a non-`full` wire mode is configured, so the default
// configuration behaves (and bills) exactly like the pre-codec server.
//
// Payloads are handed out as shared_ptr: a publish() that replaces the entry
// never invalidates a payload a caller still holds, which models a client
// finishing an in-flight download of the version it started with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/blob.hpp"
#include "common/wire_codec.hpp"
#include "obs/metrics.hpp"

namespace vcdl {

class FileServer {
 public:
  /// A read-out of two of the file server's counters (its registry holds
  /// them all): pulls served as version deltas, and delta-capable pulls
  /// served as full blobs.
  struct Stats {
    std::uint64_t delta_pulls = 0;
    std::uint64_t delta_fallbacks = 0;
  };

  /// What one client download transfer is charged for.
  struct PullReceipt {
    std::shared_ptr<const Blob> payload;  // current full payload, pinned
    std::uint64_t version = 0;            // version the payload carries
    std::size_t wire_bytes = 0;           // bytes billed on the sim network
    bool was_delta = false;
  };

  /// Counts into a registry of its own (a file server outside a run).
  FileServer();
  /// Counts into `metrics`, the run's registry.
  explicit FileServer(obs::Registry& metrics);

  /// Selects the wire codec for delta-capable files and how many past
  /// versions each keeps for delta encoding. Call before publishing.
  void set_wire_codec(WireMode mode, std::size_t version_ring);

  /// Publishes (or replaces) a file; bumps its version. `delta_capable`
  /// marks files (the parameter copies) served via the version-delta
  /// protocol when a non-`full` codec is configured.
  void publish(const std::string& name, Blob payload, bool compress_on_wire,
               bool delta_capable = false);

  bool has(const std::string& name) const;
  std::uint64_t version(const std::string& name) const;
  /// Payload size before wire compression.
  std::size_t raw_size(const std::string& name) const;
  /// Bytes a full-blob transfer is charged for.
  std::size_t wire_size(const std::string& name) const;

  /// Download protocol: a client that last downloaded `have_version` of the
  /// file (0 = never) gets the current payload, billed at the delta wire
  /// size when the codec and ring allow it, the full wire size otherwise.
  /// The receipt's payload stays valid across republishes.
  PullReceipt pull(const std::string& name, std::uint64_t have_version);

  /// Called by clients when a sticky-file cache hit avoids a transfer.
  void record_cache_hit();

  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Blob> payload;
    std::uint64_t version = 0;
    std::size_t wire_size = 0;
    bool delta_capable = false;
    // version -> payload for the current + recent versions (delta bases).
    std::map<std::uint64_t, std::shared_ptr<const Blob>> ring;
    // from-version -> encoded delta size against the *current* version;
    // cleared on publish, filled lazily on first pull per base version.
    std::map<std::uint64_t, std::size_t> delta_sizes;
  };

  const Entry& entry(const std::string& name) const;
  std::size_t delta_wire_size(Entry& e, std::uint64_t have_version);

  // Registry handles, resolved once at construction.
  struct Metrics {
    explicit Metrics(obs::Registry& r) : registry(r) {}
    obs::Registry& registry;
    obs::Counter& publishes = registry.counter("file_server.publishes");
    obs::Counter& fetches = registry.counter("file_server.fetches");
    obs::Counter& bytes_raw = registry.counter("file_server.bytes_raw");
    obs::Counter& bytes_wire = registry.counter("file_server.bytes_wire");
    obs::Counter& cache_hits = registry.counter("file_server.cache_hits");
    obs::Counter& delta_pulls = registry.counter("file_server.delta_pulls");
    obs::Counter& delta_fallbacks =
        registry.counter("file_server.delta_fallbacks");
    // Delta-capable files only: billed bytes vs what full blobs would have
    // cost for the same pulls — the codec's measured download win.
    obs::Counter& bytes_delta_wire =
        registry.counter("file_server.bytes_delta_wire");
    obs::Counter& bytes_delta_full =
        registry.counter("file_server.bytes_delta_full");
  };

  std::map<std::string, Entry> files_;
  std::unique_ptr<obs::Registry> own_metrics_;  // null when given a registry
  Metrics metrics_;
  WireMode mode_ = WireMode::full;
  std::size_t version_ring_ = 8;
};

}  // namespace vcdl
