// Size-tiered compaction policy and merge (DESIGN.md §5.12).
//
// Policy: when a level accumulates `fanout` runs, all of them merge into a
// single run at the next level, newest-wins by run sequence. The merge also
// garbage-collects: the store tracks row liveness in an authoritative id
// set (deletes never write tombstones into runs — see row_store.h), so any
// entry whose id is no longer live, and any version shadowed by a newer
// run, is dropped from the output at *every* level. This is crash-safe
// because compaction never deletes a manifest-referenced input: until the
// next durable checkpoint stops referencing them, the inputs survive as
// zombies and recovery rebuilds the exact pre-compaction state from the old
// manifest plus the WAL tail.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "osprey/storage/sstable.h"

namespace osprey::storage {

/// One input run's decoded entries, tagged with its version order.
struct CompactionInput {
  std::uint64_t seq = 0;
  std::vector<RunEntry> entries;
};

/// Lowest level holding at least `fanout` runs, if any. `level_counts` maps
/// level -> run count.
std::optional<std::uint32_t> pick_compaction_level(
    const std::map<std::uint32_t, std::size_t>& level_counts,
    std::uint32_t fanout);

/// One input of a streaming merge: `next` yields the run's entries in
/// ascending id order, then nullopt.
struct MergeInput {
  std::uint64_t seq = 0;
  std::function<Result<std::optional<RunEntry>>()> next;
};

/// Merge inputs newest-wins by seq, dropping versions whose id fails
/// `is_live`, and hand the survivors to `emit` in ascending id order. Holds
/// one entry per input, so the engine compacts a level without loading it.
Status merge_streams(std::vector<MergeInput> inputs,
                     const std::function<bool(db::RowId)>& is_live,
                     const std::function<Status(const RunEntry&)>& emit);

/// merge_streams over decoded inputs, collecting the output (ascending by
/// id, ready for encode_run). May be empty (every input entry dead).
std::vector<RunEntry> merge_runs(std::vector<CompactionInput> inputs,
                                 const std::function<bool(db::RowId)>& is_live);

}  // namespace osprey::storage
