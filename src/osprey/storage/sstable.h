// Immutable sorted runs (SSTables) on a LogDevice (DESIGN.md §5.12).
//
// A run is one device segment holding a table's rows sorted by row id:
//
//   [8B magic "OSPSSTv1"]
//   block*:  [u32 payload_len][u32 crc32(payload)][payload]
//   payload: [u32 entry_count] entry*
//   entry:   [u64 row_id][u16 cell_count] cell*      (WAL cell tags)
//
// Runs are written whole (append + sync) and never modified; a torn run —
// the device died mid-flush — simply fails its CRC and is garbage-collected
// as an orphan at the next recovery. All metadata needed to *read* a run
// (block index, bloom filter, id range) is computed at write time and
// persisted in the checkpoint manifest, so attaching a run at recovery costs
// zero device reads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "osprey/core/error.h"
#include "osprey/db/value.h"
#include "osprey/json/json.h"

namespace osprey::storage {

/// One row version in a run, in ascending-id order.
struct RunEntry {
  db::RowId id = 0;
  db::Row row;
};

/// Bloom filter over the row ids of one run: lets point reads skip runs
/// that cannot contain the id without touching the device.
class BloomFilter {
 public:
  BloomFilter() = default;
  /// Sized for `expected_keys` at `bits_per_key` (0 keys yields a filter
  /// that answers "maybe" for everything, which is safely conservative).
  BloomFilter(std::size_t expected_keys, std::uint32_t bits_per_key);

  void add(db::RowId id);
  bool may_contain(db::RowId id) const;

  /// Serialization for the checkpoint manifest.
  std::string to_hex() const;
  std::uint32_t hashes() const { return k_; }
  static Result<BloomFilter> from_hex(const std::string& hex, std::uint32_t k);

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t k_ = 0;  // 0 => empty filter: may_contain always true
};

/// Block index entry: the frame at [offset, offset+length) holds entries
/// with ids >= first_id (and < the next block's first_id).
struct BlockIndexEntry {
  db::RowId first_id = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
};

/// Everything the engine knows about one run. Persisted in the checkpoint
/// manifest; `in_manifest` is engine bookkeeping (a manifest-referenced run
/// must survive until the *next* durable manifest stops referencing it).
struct RunMeta {
  std::string segment;       // device segment name ("sst-<table>-<seq>-L<n>")
  std::uint64_t seq = 0;     // newest-wins version order within the store
  std::uint32_t level = 0;   // size-tiered compaction level
  db::RowId min_id = 0;
  db::RowId max_id = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;   // whole-segment size
  std::vector<BlockIndexEntry> blocks;
  BloomFilter bloom;
  bool in_manifest = false;
};

/// Device segment name for a run.
std::string run_segment_name(const std::string& table, std::uint64_t seq,
                             std::uint32_t level);

/// Encode `entries` (ascending id) as a complete segment image, cutting
/// blocks at ~`block_bytes`, and fill `*meta` (blocks, bloom, counts,
/// bytes). segment/seq/level of `*meta` are left to the caller.
std::string encode_run(const std::vector<RunEntry>& entries,
                       std::uint64_t block_bytes,
                       std::uint32_t bloom_bits_per_key, RunMeta* meta);

/// Writes a run block by block: add() entries in ascending id order, and
/// each block goes to `sink` (the magic with the first) as soon as it is
/// cut, so the writer holds one block and the ids, never the run. The bytes
/// are exactly encode_run's, which is a RunWriter into one string.
class RunWriter {
 public:
  using Sink = std::function<Status(const std::string& bytes)>;
  RunWriter(std::uint64_t block_bytes, Sink sink);

  Status add(const RunEntry& entry);
  std::uint64_t entries() const { return ids_.size(); }
  /// Cut the last block and fill `*meta` (blocks, bloom, counts, bytes).
  Status finish(std::uint32_t bloom_bits_per_key, RunMeta* meta);

 private:
  Status cut();

  std::uint64_t block_bytes_;
  Sink sink_;
  std::string pending_;  // bytes not yet handed to the sink
  std::string payload_;  // the open block
  std::uint32_t count_ = 0;
  std::uint64_t offset_ = 0;  // run bytes before pending_
  std::vector<db::RowId> ids_;
  std::vector<BlockIndexEntry> blocks_;
};

/// Decode one CRC-framed block (the bytes a BlockIndexEntry points at).
/// kInvalidArgument on a CRC mismatch or malformed payload.
Result<std::vector<RunEntry>> decode_block(const std::string& frame);

/// RunMeta <-> JSON for the checkpoint manifest.
json::Value run_meta_to_json(const RunMeta& meta);
Result<RunMeta> run_meta_from_json(const json::Value& doc);

}  // namespace osprey::storage
