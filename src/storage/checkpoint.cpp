#include "storage/checkpoint.hpp"

#include "common/error.hpp"

namespace vcdl {

Checkpointer::Checkpointer(KvStore& store, std::vector<std::string> keys,
                           RepublishAll republish, obs::Registry& metrics)
    : store_(store), keys_(std::move(keys)), republish_(std::move(republish)),
      snapshots_(metrics.counter("checkpoint.snapshots")),
      restores_(metrics.counter("checkpoint.restores")) {
  VCDL_CHECK(!keys_.empty(), "Checkpointer: need >= 1 key");
  for (const auto& key : keys_) {
    VCDL_CHECK(!key.empty(), "Checkpointer: empty key");
  }
  VCDL_CHECK(republish_ != nullptr, "Checkpointer: null republish hook");
}

void Checkpointer::set_state_hooks(CaptureState capture, RestoreState restore) {
  VCDL_CHECK((capture != nullptr) == (restore != nullptr),
             "Checkpointer: state hooks must be set as a pair");
  capture_state_ = std::move(capture);
  restore_state_ = std::move(restore);
}

bool Checkpointer::snapshot() {
  std::vector<Blob> blobs;
  blobs.reserve(keys_.size());
  for (const auto& key : keys_) {
    const auto current = store_.get(key);
    if (!current.has_value()) return false;
    blobs.push_back(current->value);
  }
  snap_ = std::move(blobs);
  if (capture_state_) state_snap_ = capture_state_();
  snapshots_.inc();
  return true;
}

bool Checkpointer::restore() {
  if (!snap_.has_value()) return false;
  republish_(*snap_);
  if (restore_state_ && state_snap_.has_value()) restore_state_(*state_snap_);
  restores_.inc();
  return true;
}

}  // namespace vcdl
