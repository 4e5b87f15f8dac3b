// The LSM storage engine (DESIGN.md §5.12): a RowStore whose cold rows
// spill from a memtable to immutable sorted runs (SSTables) on the same
// LogDevice that carries the WAL.
//
// Write path: every put lands in the table's active memtable; past the byte
// budget the memtable rotates to an immutable slot and is flushed — encoded
// as a CRC-framed run, appended, synced — then size-tiered compaction folds
// full levels together. Read path: memtable, then the immutable slot, then
// runs newest-first, skipping by id range and bloom filter, with decoded
// blocks served from a shared LRU cache.
//
// Durability contract: the WAL stays the redo log — runs are an *index* of
// already-logged state, never a durability frontier. A checkpoint therefore
// writes a manifest (storage/manifest.h) referencing the live runs plus the
// small memtable images instead of dumping every row, and recovery is
// O(manifest + WAL tail): orphaned runs from torn flushes or un-checkpointed
// compactions are deleted up front, manifest runs are re-attached without
// reading them, and the committed tail replays through the normal store.
// Compacted-away runs that a durable manifest still references survive as
// zombies until the next checkpoint stops referencing them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "osprey/core/fault.h"
#include "osprey/db/wal.h"
#include "osprey/json/json.h"
#include "osprey/storage/cache.h"
#include "osprey/storage/memtable.h"
#include "osprey/storage/row_store.h"
#include "osprey/storage/sstable.h"

namespace osprey::storage {

struct StorageOptions {
  /// Rotate + flush a table's memtable once it holds this many bytes.
  std::uint64_t memtable_bytes = 256 * 1024;
  /// Target encoded size of one run block (the cache / read granularity).
  std::uint64_t block_bytes = 16 * 1024;
  /// Capacity of the shared decoded-block cache, in blocks.
  std::size_t cache_blocks = 256;
  /// Size-tiered trigger: a level with this many runs compacts into one
  /// run at the next level. 0 disables compaction.
  std::uint32_t compact_fanout = 4;
  /// Bloom filter budget per run entry. 0 disables bloom filters.
  std::uint32_t bloom_bits_per_key = 10;
};

/// Aggregate engine counters (benches, the C API, check_telemetry).
struct StorageStats {
  std::uint64_t memtable_bytes = 0;  // active + immutable, all tables
  std::uint64_t memtable_rows = 0;
  std::uint64_t spilled_rows = 0;    // live rows resident only in runs
  std::uint64_t runs = 0;
  std::uint64_t run_bytes = 0;
  std::uint64_t zombie_runs = 0;     // compacted away, manifest-pinned
  std::uint64_t flushes = 0;
  std::uint64_t flush_failures = 0;
  std::uint64_t compactions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t read_errors = 0;     // failed block reads (dead device)

  /// Add another engine's counters: the cross-shard sum.
  void merge(const StorageStats& other) {
    memtable_bytes += other.memtable_bytes;
    memtable_rows += other.memtable_rows;
    spilled_rows += other.spilled_rows;
    runs += other.runs;
    run_bytes += other.run_bytes;
    zombie_runs += other.zombie_runs;
    flushes += other.flushes;
    flush_failures += other.flush_failures;
    compactions += other.compactions;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    read_errors += other.read_errors;
  }
};

class StorageEngine;

/// The engine-backed RowStore: one per table, created by the factory that
/// StorageEngine::attach installs on the database. Liveness is authoritative
/// in an id set — deletes never write tombstones; a run entry whose id has
/// left the set is garbage, dropped at the next compaction that sees it.
class LsmStore : public RowStore {
 public:
  LsmStore(StorageEngine& engine, std::string table);
  ~LsmStore() override;

  // RowStore:
  void put(db::RowId id, db::Row row) override;
  std::optional<db::Row> get(db::RowId id) const override;
  const db::Row* get_ref(db::RowId id) const override;
  bool erase(db::RowId id) override;
  void clear() override;
  std::size_t size() const override;
  bool contains(db::RowId id) const override;
  std::vector<db::RowId> ids() const override;
  Status scan(const std::function<Status(db::RowId, const db::Row&)>& fn)
      const override;

  /// Rotate the active memtable (if non-empty) and flush everything buffered
  /// to a run now. Tests and benches use this to force spills.
  Status flush();

  const std::string& table() const { return table_; }
  /// Live runs, newest (highest seq) first.
  const std::vector<std::shared_ptr<RunMeta>>& runs() const { return runs_; }
  std::uint64_t next_run_seq() const { return next_seq_; }

 private:
  friend class StorageEngine;

  StorageEngine& engine_;
  std::string table_;
  MemTable mem_;        // active write buffer
  MemTable immutable_;  // rotated, flush pending (non-empty only on failure)
  std::vector<std::shared_ptr<RunMeta>> runs_;  // sorted by seq descending
  std::set<db::RowId> live_;                    // authoritative liveness
  std::uint64_t next_seq_ = 1;
  // Per-table telemetry handles, acquired lazily while obs::enabled().
  obs::Counter* obs_flushes_ = nullptr;
  obs::Counter* obs_compactions_ = nullptr;
};

/// Engine façade: owns the device-facing machinery (flush, compaction, block
/// cache, manifest checkpointing, recovery GC) shared by every LsmStore.
class StorageEngine {
 public:
  /// Runs live on `device` beside the WAL segments ("sst-*" vs "wal-*").
  /// `faults` arms the storage.flush.fail / storage.compact.fail points.
  explicit StorageEngine(db::wal::LogDevice& device, StorageOptions options = {},
                         FaultRegistry* faults = nullptr);
  ~StorageEngine();

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Install this engine as `db`'s store factory: every table created from
  /// now on is LSM-backed. `db` must still be empty (kConflict
  /// otherwise — a mixed-store database cannot manifest-checkpoint).
  Status attach(db::Database& db);

  /// Wire the checkpoint plane of `wal`: checkpoints write manifests via
  /// build_manifest and the post-checkpoint hook garbage-collects zombie
  /// runs. Call after attach(), in any order relative to WalManager::open.
  void install(db::wal::WalManager& wal);

  /// Snapshot provider: the checkpoint manifest for `db` (falls back to a
  /// full db/dump snapshot if any table is not engine-backed).
  json::Value build_manifest(db::Database& db);

  /// Snapshot restorer: rebuild tables, memtable images, liveness, and run
  /// registrations from a manifest into the empty attached `db`.
  Status restore_manifest(db::Database& db, const json::Value& manifest);

  /// Full crash recovery: wal::recover with a restorer that understands
  /// both the manifest and plain-snapshot formats and, once the checkpoint
  /// is restored and before the tail replays, GCs the runs it does not
  /// reference. A checkpoint that cannot be read fails the recovery with
  /// every segment untouched. Implies attach(db).
  Result<db::wal::RecoveryInfo> recover(db::Database& db);

  /// Post-checkpoint hook body: delete zombie runs, pin manifest runs.
  void on_checkpoint(db::wal::Lsn lsn);

  StorageStats stats() const;
  const StorageOptions& options() const { return options_; }
  db::wal::LogDevice& device() { return device_; }

 private:
  friend class LsmStore;

  // All called with mutex_ held (public entry points lock; LsmStore methods
  // lock before delegating).
  Status rotate_and_flush_locked(LsmStore& store);
  Status flush_immutable_locked(LsmStore& store);
  Status compact_locked(LsmStore& store);
  /// A compaction input stream over `run`'s entries, one block in memory.
  std::function<Result<std::optional<RunEntry>>()> block_reader_locked(
      const RunMeta& run);
  std::optional<db::Row> find_in_runs_locked(const LsmStore& store,
                                             db::RowId id);
  BlockCache::Block read_block_locked(const RunMeta& run, std::size_t ordinal);
  void retire_run_locked(const std::shared_ptr<RunMeta>& run);
  void register_store(LsmStore* store);
  void unregister_store(LsmStore* store);
  void update_gauges_locked(const LsmStore& store);

  db::wal::LogDevice& device_;
  StorageOptions options_;
  FaultRegistry* faults_;
  db::Database* db_ = nullptr;
  mutable std::recursive_mutex mutex_;
  std::map<std::string, LsmStore*> stores_;
  BlockCache cache_;
  // Segments pinned by the last *built* manifest (awaiting its durability
  // hook) and segments compacted away while still manifest-referenced.
  std::vector<std::string> manifest_segments_;
  std::vector<std::string> zombies_;
  std::uint64_t flushes_ = 0;
  std::uint64_t flush_failures_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t read_errors_ = 0;
};

}  // namespace osprey::storage
