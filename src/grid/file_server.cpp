#include "grid/file_server.hpp"

#include "common/compress.hpp"
#include "common/error.hpp"

namespace vcdl {

FileServer::FileServer()
    : own_metrics_(std::make_unique<obs::Registry>()),
      metrics_(*own_metrics_) {}

FileServer::FileServer(obs::Registry& metrics) : metrics_(metrics) {}

void FileServer::set_wire_codec(WireMode mode, std::size_t version_ring) {
  mode_ = mode;
  version_ring_ = version_ring > 0 ? version_ring : 1;
}

void FileServer::publish(const std::string& name, Blob payload,
                         bool compress_on_wire, bool delta_capable) {
  auto& e = files_[name];
  e.wire_size =
      compress_on_wire ? compressed_size(payload.view()) : payload.size();
  e.delta_capable = delta_capable;
  e.payload = std::make_shared<const Blob>(std::move(payload));
  ++e.version;
  if (delta_capable && mode_ != WireMode::full) {
    e.ring[e.version] = e.payload;
    e.delta_sizes.clear();  // deltas are always encoded against the head
    // The ring holds the current version plus up to version_ring_ - 1 past
    // bases; drop the oldest beyond that.
    while (e.ring.size() > version_ring_) e.ring.erase(e.ring.begin());
  }
  metrics_.publishes.inc();
}

bool FileServer::has(const std::string& name) const {
  return files_.count(name) > 0;
}

const FileServer::Entry& FileServer::entry(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw NotFound("FileServer: no file named '" + name + "'");
  }
  return it->second;
}

std::uint64_t FileServer::version(const std::string& name) const {
  return entry(name).version;
}

std::size_t FileServer::raw_size(const std::string& name) const {
  return entry(name).payload->size();
}

std::size_t FileServer::wire_size(const std::string& name) const {
  return entry(name).wire_size;
}

void FileServer::record_cache_hit() { metrics_.cache_hits.inc(); }

std::size_t FileServer::delta_wire_size(Entry& e, std::uint64_t have_version) {
  const auto cached = e.delta_sizes.find(have_version);
  if (cached != e.delta_sizes.end()) return cached->second;
  const std::size_t size =
      delta_encode(e.ring.at(have_version)->view(), e.payload->view()).size();
  e.delta_sizes[have_version] = size;
  return size;
}

FileServer::PullReceipt FileServer::pull(const std::string& name,
                                         std::uint64_t have_version) {
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw NotFound("FileServer: no file named '" + name + "'");
  }
  Entry& e = it->second;

  PullReceipt receipt;
  receipt.payload = e.payload;
  receipt.version = e.version;
  receipt.wire_bytes = e.wire_size;

  if (e.delta_capable && mode_ != WireMode::full && have_version != 0) {
    if (e.ring.count(have_version) > 0) {
      const std::size_t delta_bytes = delta_wire_size(e, have_version);
      if (delta_bytes < e.wire_size) {
        receipt.wire_bytes = delta_bytes;
        receipt.was_delta = true;
      }
    }
    if (receipt.was_delta) {
      metrics_.delta_pulls.inc();
    } else {
      // Base aged out of the ring, or the delta did not beat the full blob.
      metrics_.delta_fallbacks.inc();
    }
  }

  metrics_.fetches.inc();
  metrics_.bytes_raw.inc(e.payload->size());
  metrics_.bytes_wire.inc(receipt.wire_bytes);
  if (e.delta_capable) {
    metrics_.bytes_delta_wire.inc(receipt.wire_bytes);
    metrics_.bytes_delta_full.inc(e.wire_size);
  }
  return receipt;
}

FileServer::Stats FileServer::stats() const {
  return {metrics_.delta_pulls.value(), metrics_.delta_fallbacks.value()};
}

}  // namespace vcdl
