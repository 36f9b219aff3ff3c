// Sharded parameter plane — deterministic balanced slicing of the flat
// parameter vector over N parameter-server shards.
//
// SINGA slices each parameter object across server groups (SliceParams /
// PartitionSlice); VCDL's equivalent is a ShardPlan: the model's flat
// parameter vector is cut into `shards` contiguous half-open ranges whose
// sizes stay within a quarter-chunk of the ideal total/shards split. Cuts
// prefer layer boundaries (a shard then holds whole layers and its store
// blob never splits one tensor), falling back to an intra-layer cut when no
// boundary is close enough to keep the plan balanced — the giant-embedding
// case where one layer outweighs the rest of the model combined.
//
// The plan is a pure function of (layer sizes, shard count): no RNG, no
// iteration-order dependence, so every component that needs the same slicing
// (assimilator store keys, file-server names, client seen-version tracking,
// upload bundles) derives it independently and agrees. A one-shard plan is
// the whole vector and shard_key() returns the base name unchanged, which is
// what keeps param_shards=1 runs bit-identical to the monolithic plane
// (docs/SIMULATION.md §4c).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace vcdl {

/// Base name of the parameter plane's store keys and parameter files;
/// ShardPlan::shard_key derives each shard's name from it.
inline constexpr const char* kParamsName = "params";

class ShardPlan {
 public:
  struct Slice {
    std::size_t begin = 0;  // first flat index
    std::size_t end = 0;    // one past the last flat index
    std::size_t size() const { return end - begin; }
  };

  /// Builds the balanced plan for a model whose layers hold `layer_sizes`
  /// parameters (zero-parameter layers allowed). When the total is at least
  /// `shards`, every slice is non-empty; otherwise the tail slices are empty.
  static ShardPlan build(const std::vector<std::size_t>& layer_sizes,
                         std::size_t shards);

  /// The trivial one-slice plan covering `total` parameters — what a
  /// default-constructed assimilator uses for the monolithic plane.
  static ShardPlan single(std::size_t total);

  std::size_t shards() const { return slices_.size(); }
  std::size_t total() const { return total_; }
  bool empty() const { return slices_.empty(); }
  const Slice& slice(std::size_t shard) const { return slices_[shard]; }
  const std::vector<Slice>& slices() const { return slices_; }

  /// View of shard `i`'s range inside a full-length parameter vector.
  std::span<const float> view(std::span<const float> full,
                              std::size_t shard) const;
  std::span<float> view(std::span<float> full, std::size_t shard) const;

  /// Store key / file name for one shard: the base name itself at one shard
  /// ("params"), "<base>/<i>" otherwise — so the monolithic names, traces and
  /// client cache keys are untouched by a one-shard plan.
  std::string shard_key(const std::string& base, std::size_t shard) const;

 private:
  std::vector<Slice> slices_;
  std::size_t total_ = 0;
};

}  // namespace vcdl
