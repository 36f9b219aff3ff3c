#include "core/work_generator.hpp"

#include "common/error.hpp"
#include "sim/engine.hpp"

namespace vcdl {

namespace {
constexpr const char* kArchFile = "arch";

std::string shard_file(std::size_t shard) {
  return "shard/" + std::to_string(shard);
}
}  // namespace

WorkGenerator::WorkGenerator(Scheduler& scheduler, FileServer& files,
                             TraceLog& trace, SimEngine& engine,
                             ShardPlan plan, Options options)
    : scheduler_(scheduler), files_(files), trace_(trace), engine_(engine),
      plan_(std::move(plan)), options_(std::move(options)) {
  VCDL_CHECK(options_.num_shards >= 1, "WorkGenerator: need >= 1 shard");
  VCDL_CHECK(options_.replication >= 1, "WorkGenerator: replication >= 1");
  VCDL_CHECK(!plan_.empty(), "WorkGenerator: empty parameter plan");
}

void WorkGenerator::publish_static(Blob arch, std::vector<Blob> shard_blobs) {
  VCDL_CHECK(shard_blobs.size() == options_.num_shards,
             "WorkGenerator: shard blob count mismatch");
  files_.publish(kArchFile, std::move(arch), /*compress=*/true);
  for (std::size_t s = 0; s < shard_blobs.size(); ++s) {
    files_.publish(shard_file(s), std::move(shard_blobs[s]), /*compress=*/true);
  }
}

void WorkGenerator::generate_epoch(std::size_t epoch) {
  VCDL_CHECK(epoch == epochs_generated_ + 1,
             "WorkGenerator: epochs must be generated in order");
  for (std::size_t p = 0; p < plan_.shards(); ++p) {
    VCDL_CHECK(files_.has(plan_.shard_key(kParamsName, p)),
               "WorkGenerator: parameter file not published yet");
  }
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    Workunit wu;
    wu.id = next_id_++;
    wu.epoch = epoch;
    wu.shard = s;
    wu.deadline_s = options_.subtask_timeout_s;
    wu.replication = options_.replication;
    // The architecture file and the data shard are sticky (cacheable); the
    // parameter copies change with every assimilation and are always
    // fetched — at more than one plane shard, one ref per shard file in a
    // single parallel fetch group (the client overlaps the transfers).
    wu.inputs = {FileRef{kArchFile, /*sticky=*/true}};
    for (std::size_t p = 0; p < plan_.shards(); ++p) {
      wu.inputs.push_back(FileRef{plan_.shard_key(kParamsName, p),
                                  /*sticky=*/false,
                                  plan_.shards() > 1 ? 1u : 0u});
    }
    wu.inputs.push_back(FileRef{shard_file(s), /*sticky=*/true});
    scheduler_.add_unit(wu);
    trace_.record(engine_.now(), TraceKind::work_generated, "work-generator",
                  wu.label());
  }
  ++epochs_generated_;
}

}  // namespace vcdl
