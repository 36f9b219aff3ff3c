#include "core/job.hpp"

#include "common/error.hpp"

namespace vcdl {

const EpochStats& TrainResult::final_epoch() const {
  VCDL_CHECK(!epochs.empty(), "TrainResult: no epochs recorded");
  return epochs.back();
}

}  // namespace vcdl
