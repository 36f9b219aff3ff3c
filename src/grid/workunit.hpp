// Workunit and result types — the BOINC job model (§II-C, §III-A).
//
// A DL training job is split by the work generator into one workunit per
// (epoch, shard): the unit carries references to its input files on the file
// server (model architecture, current server parameter copy, data shard) and
// a completion deadline after which the scheduler reassigns it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "sim/engine.hpp"

namespace vcdl {

using WorkunitId = std::uint64_t;
using ClientId = std::size_t;

struct FileRef {
  std::string name;
  /// Sticky files stay cached on the client across workunits (BOINC
  /// sticky-file feature, §III-B); the scheduler prefers assigning units to
  /// clients that already hold their sticky inputs.
  bool sticky = false;
  /// Refs sharing a nonzero group download concurrently (the sharded
  /// parameter plane fetches all shard files in parallel): every ref still
  /// bills its bytes, but the group's elapsed time is the slowest member
  /// instead of the sum. 0 (default) = sequential, the monolithic behavior.
  std::size_t fetch_group = 0;
};

struct Workunit {
  WorkunitId id = 0;
  std::size_t epoch = 0;
  std::size_t shard = 0;
  std::vector<FileRef> inputs;
  /// Completion timeout t_o: if no result arrives within this many simulated
  /// seconds of assignment, the unit is reassigned (§III-B, §IV-E).
  SimTime deadline_s = 300.0;
  /// Issue the unit to this many distinct clients (BOINC computational
  /// redundancy); the first valid result wins.
  std::size_t replication = 1;

  // Appends: an inlined "e" + std::to_string(...) chain draws false GCC 12
  // -Wrestrict warnings at -O3.
  std::string label() const {
    std::string s = "e";
    s += std::to_string(epoch);
    s += "/s";
    s += std::to_string(shard);
    return s;
  }
};

/// A client's uploaded result for one workunit.
struct ResultEnvelope {
  Workunit unit;
  ClientId client = 0;
  Blob payload;            // trained parameter copy W_{c_i,j}
  SimTime received_at = 0; // server receive time (virtual)
};

}  // namespace vcdl
