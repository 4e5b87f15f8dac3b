#include "osprey/storage/compaction.h"

#include <algorithm>
#include <utility>

namespace osprey::storage {

std::optional<std::uint32_t> pick_compaction_level(
    const std::map<std::uint32_t, std::size_t>& level_counts,
    std::uint32_t fanout) {
  if (fanout == 0) return std::nullopt;
  for (const auto& [level, count] : level_counts) {
    if (count >= fanout) return level;
  }
  return std::nullopt;
}

Status merge_streams(std::vector<MergeInput> inputs,
                     const std::function<bool(db::RowId)>& is_live,
                     const std::function<Status(const RunEntry&)>& emit) {
  std::vector<std::optional<RunEntry>> heads(inputs.size());
  auto advance = [&](std::size_t i) -> Status {
    Result<std::optional<RunEntry>> next = inputs[i].next();
    if (!next.ok()) return next.error();
    heads[i] = std::move(next).take();
    return Status::ok();
  };
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (Status s = advance(i); !s.is_ok()) return s;
  }
  while (true) {
    // The lowest id any input holds, in its newest version.
    std::optional<std::size_t> newest;
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (!heads[i]) continue;
      if (!newest || heads[i]->id < heads[*newest]->id ||
          (heads[i]->id == heads[*newest]->id &&
           inputs[i].seq > inputs[*newest].seq)) {
        newest = i;
      }
    }
    if (!newest) return Status::ok();
    const db::RowId id = heads[*newest]->id;
    if (is_live(id)) {
      if (Status s = emit(*heads[*newest]); !s.is_ok()) return s;
    }
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (!heads[i] || heads[i]->id != id) continue;
      if (Status s = advance(i); !s.is_ok()) return s;
    }
  }
}

std::vector<RunEntry> merge_runs(
    std::vector<CompactionInput> inputs,
    const std::function<bool(db::RowId)>& is_live) {
  std::vector<MergeInput> streams;
  for (CompactionInput& input : inputs) {
    streams.push_back(
        {input.seq,
         [entries = std::move(input.entries),
          pos = std::size_t{0}]() mutable -> Result<std::optional<RunEntry>> {
           if (pos == entries.size()) return std::optional<RunEntry>{};
           return std::optional<RunEntry>{std::move(entries[pos++])};
         }});
  }
  std::vector<RunEntry> out;
  (void)merge_streams(std::move(streams), is_live,
                      [&out](const RunEntry& e) {
                        out.push_back(e);
                        return Status::ok();
                      });
  return out;
}

}  // namespace osprey::storage
