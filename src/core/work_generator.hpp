// Work generator — §III-A.
//
// Splits one DL training job into data-parallel subtasks: publishes the
// static artifacts (architecture file, sticky data shards) once, then at each
// epoch creates one workunit per shard referencing the current parameter
// file. "The design of the work generator automatically handles the details
// of converting a training job into a data parallel training job."
#pragma once

#include "core/shard_plan.hpp"
#include "grid/file_server.hpp"
#include "grid/scheduler.hpp"
#include "sim/trace.hpp"

namespace vcdl {

class WorkGenerator {
 public:
  struct Options {
    std::size_t num_shards = 50;
    SimTime subtask_timeout_s = 300.0;
    std::size_t replication = 1;
  };

  /// `plan` is the parameter plane's slicing: each workunit references
  /// every shard's parameter file (ShardPlan::shard_key), at more than one
  /// shard in a single parallel fetch group.
  WorkGenerator(Scheduler& scheduler, FileServer& files, TraceLog& trace,
                SimEngine& engine, ShardPlan plan, Options options);

  /// Publishes the architecture file and the (sticky, wire-compressed)
  /// shard files. Call once before the first epoch.
  void publish_static(Blob arch, std::vector<Blob> shard_blobs);

  /// Creates the epoch's workunits (one per shard). Epochs are 1-based.
  void generate_epoch(std::size_t epoch);

  std::size_t epochs_generated() const { return epochs_generated_; }

 private:
  Scheduler& scheduler_;
  FileServer& files_;
  TraceLog& trace_;
  SimEngine& engine_;
  ShardPlan plan_;
  Options options_;
  WorkunitId next_id_ = 1;
  std::size_t epochs_generated_ = 0;
};

}  // namespace vcdl
