// LSM storage-engine suite (storage/, DESIGN.md §5.12).
//
// Bottom-up: the run codec, bloom filter, block cache, memtable accounting,
// and compaction policy as units; then the engine behind a real Database —
// memtable spill, newest-wins reads through the cache, erase-without-
// tombstones GC'd by compaction, flush-fault retry; then the checkpoint-
// manifest recovery matrix the issue prescribes: {no SSTables, SSTables with
// an empty WAL tail, mid-flush torn run, mid-compaction crash exercising the
// zombie protocol, orphaned-run GC on startup}. Every recovery must rebuild
// the database bit-identically (dump equality) from the manifest plus the
// committed WAL tail.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/db/database.h"
#include "osprey/db/dump.h"
#include "osprey/db/expr.h"
#include "osprey/db/wal.h"
#include "osprey/storage/cache.h"
#include "osprey/storage/compaction.h"
#include "osprey/storage/engine.h"
#include "osprey/storage/manifest.h"
#include "osprey/storage/memtable.h"
#include "osprey/storage/sstable.h"

namespace osprey::storage {
namespace {

using db::ColumnType;
using db::Database;
using db::Row;
using db::RowId;
using db::Schema;
using db::Table;
using db::Value;

Schema task_schema() {
  return Schema({
      {"eq_task_id", ColumnType::kInt, false, true},
      {"status", ColumnType::kText, false, false},
      {"payload", ColumnType::kText, true, false},
      {"score", ColumnType::kReal, true, false},
  });
}

Row make_task(std::int64_t id, const std::string& status,
              std::size_t payload_bytes, double score) {
  return Row{Value(id), Value(status),
             Value(std::string(payload_bytes, static_cast<char>('a' + id % 26))),
             Value(score)};
}

std::string dump_str(const Database& db) { return db::dump_database(db).dump(); }

std::vector<RunEntry> sample_entries(int n, std::size_t payload_bytes = 32) {
  std::vector<RunEntry> entries;
  for (int i = 1; i <= n; ++i) {
    entries.push_back(RunEntry{static_cast<RowId>(i * 3),
                               make_task(i, "queued", payload_bytes, 0.5 * i)});
  }
  return entries;
}

// A database + engine pair on a SimLogDevice, with spill-friendly options.
struct EngineHarness {
  explicit EngineHarness(std::shared_ptr<db::wal::SimDisk> disk,
                         StorageOptions opts = spill_options(),
                         FaultRegistry* faults = nullptr)
      : device(std::move(disk), faults), engine(device, opts, faults) {
    EXPECT_TRUE(engine.attach(db).is_ok());
  }

  static StorageOptions spill_options() {
    StorageOptions opts;
    opts.memtable_bytes = 2048;  // a handful of rows per run
    opts.block_bytes = 512;
    opts.cache_blocks = 8;
    opts.compact_fanout = 4;
    return opts;
  }

  Table* create_tasks() {
    Table* t = db.create_table("tasks", task_schema()).value();
    EXPECT_TRUE(t->create_index("status").is_ok());
    return t;
  }

  LsmStore& store(Table* t) {
    auto* s = dynamic_cast<LsmStore*>(&t->store());
    EXPECT_NE(s, nullptr);
    return *s;
  }

  db::wal::SimLogDevice device;
  StorageEngine engine;
  Database db;
};

// --- run codec ---------------------------------------------------------------

TEST(SstableTest, EncodeDecodeRoundTripsEntriesAndMetadata) {
  std::vector<RunEntry> entries = sample_entries(40);
  RunMeta meta;
  std::string image = encode_run(entries, 256, 10, &meta);
  EXPECT_EQ(meta.entries, 40u);
  EXPECT_EQ(meta.min_id, 3u);
  EXPECT_EQ(meta.max_id, 120u);
  EXPECT_GT(meta.blocks.size(), 1u);  // 256-byte blocks must split 40 rows
  EXPECT_EQ(meta.bytes, image.size());

  std::vector<RunEntry> decoded;
  for (const BlockIndexEntry& block : meta.blocks) {
    ASSERT_LE(block.offset + block.length, image.size());
    Result<std::vector<RunEntry>> r =
        decode_block(image.substr(block.offset, block.length));
    ASSERT_TRUE(r.ok());
    for (RunEntry& e : r.value()) decoded.push_back(std::move(e));
  }
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].id, entries[i].id);
    EXPECT_EQ(decoded[i].row, entries[i].row);
  }
  // Block index first_ids are the decoded block boundaries, ascending.
  for (std::size_t b = 1; b < meta.blocks.size(); ++b) {
    EXPECT_LT(meta.blocks[b - 1].first_id, meta.blocks[b].first_id);
  }
}

TEST(SstableTest, DecodeRejectsCorruptedBlocks) {
  std::vector<RunEntry> entries = sample_entries(5);
  RunMeta meta;
  std::string image = encode_run(entries, 4096, 10, &meta);
  ASSERT_EQ(meta.blocks.size(), 1u);
  std::string frame =
      image.substr(meta.blocks[0].offset, meta.blocks[0].length);
  std::string flipped = frame;
  flipped[frame.size() / 2] ^= 0x40;
  EXPECT_FALSE(decode_block(flipped).ok());      // payload bit flip
  EXPECT_FALSE(decode_block(frame.substr(0, frame.size() - 3)).ok());  // torn
  EXPECT_FALSE(decode_block("").ok());
  EXPECT_TRUE(decode_block(frame).ok());         // pristine frame still fine
}

TEST(SstableTest, RunMetaJsonRoundTrip) {
  std::vector<RunEntry> entries = sample_entries(20);
  RunMeta meta;
  std::string image = encode_run(entries, 256, 10, &meta);
  meta.segment = run_segment_name("tasks", 7, 1);
  meta.seq = 7;
  meta.level = 1;
  meta.bytes = image.size();

  Result<RunMeta> back = run_meta_from_json(run_meta_to_json(meta));
  ASSERT_TRUE(back.ok());
  const RunMeta& m = back.value();
  EXPECT_EQ(m.segment, meta.segment);
  EXPECT_EQ(m.seq, 7u);
  EXPECT_EQ(m.level, 1u);
  EXPECT_EQ(m.min_id, meta.min_id);
  EXPECT_EQ(m.max_id, meta.max_id);
  EXPECT_EQ(m.entries, meta.entries);
  EXPECT_EQ(m.bytes, meta.bytes);
  ASSERT_EQ(m.blocks.size(), meta.blocks.size());
  for (std::size_t i = 0; i < m.blocks.size(); ++i) {
    EXPECT_EQ(m.blocks[i].first_id, meta.blocks[i].first_id);
    EXPECT_EQ(m.blocks[i].offset, meta.blocks[i].offset);
    EXPECT_EQ(m.blocks[i].length, meta.blocks[i].length);
  }
  // A manifest-loaded run is by definition manifest-referenced.
  EXPECT_TRUE(m.in_manifest);
  for (const RunEntry& e : entries) {
    EXPECT_TRUE(m.bloom.may_contain(e.id));
  }
}

// --- bloom filter ------------------------------------------------------------

TEST(BloomFilterTest, NeverFalseNegativeAndMostlySkipsAbsentIds) {
  BloomFilter bloom(1000, 10);
  for (RowId id = 1; id <= 1000; ++id) bloom.add(id * 2);  // even ids
  for (RowId id = 1; id <= 1000; ++id) {
    EXPECT_TRUE(bloom.may_contain(id * 2)) << id * 2;
  }
  int false_positives = 0;
  for (RowId id = 0; id < 1000; ++id) {
    if (bloom.may_contain(2 * id + 100001)) ++false_positives;
  }
  EXPECT_LT(false_positives, 50);  // ~1% expected at 10 bits/key
}

TEST(BloomFilterTest, HexRoundTripPreservesAnswers) {
  BloomFilter bloom(64, 10);
  for (RowId id = 5; id <= 320; id += 5) bloom.add(id);
  Result<BloomFilter> back = BloomFilter::from_hex(bloom.to_hex(), bloom.hashes());
  ASSERT_TRUE(back.ok());
  for (RowId id = 1; id <= 400; ++id) {
    EXPECT_EQ(back.value().may_contain(id), bloom.may_contain(id)) << id;
  }
}

TEST(BloomFilterTest, EmptyFilterAnswersMaybe) {
  BloomFilter empty;
  EXPECT_TRUE(empty.may_contain(42));
  BloomFilter zero_keys(0, 10);
  EXPECT_TRUE(zero_keys.may_contain(42));
}

// --- block cache -------------------------------------------------------------

BlockCache::Block make_block(int tag) {
  return std::make_shared<const std::vector<RunEntry>>(
      std::vector<RunEntry>{RunEntry{static_cast<RowId>(tag), {}}});
}

TEST(BlockCacheTest, LruEvictsOldestAndCountsTraffic) {
  BlockCache cache(2);
  cache.put(BlockCache::key("sst-a", 0), make_block(1));
  cache.put(BlockCache::key("sst-a", 1), make_block(2));
  EXPECT_NE(cache.get(BlockCache::key("sst-a", 0)), nullptr);  // 0 now MRU
  cache.put(BlockCache::key("sst-b", 0), make_block(3));       // evicts a:1
  EXPECT_NE(cache.get(BlockCache::key("sst-a", 0)), nullptr);
  EXPECT_EQ(cache.get(BlockCache::key("sst-a", 1)), nullptr);
  EXPECT_NE(cache.get(BlockCache::key("sst-b", 0)), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BlockCacheTest, EraseSegmentDropsOnlyThatSegmentsBlocks) {
  BlockCache cache(8);
  cache.put(BlockCache::key("sst-a", 0), make_block(1));
  cache.put(BlockCache::key("sst-a", 1), make_block(2));
  cache.put(BlockCache::key("sst-ab", 0), make_block(3));  // prefix, not equal
  cache.erase_segment("sst-a");
  EXPECT_EQ(cache.get(BlockCache::key("sst-a", 0)), nullptr);
  EXPECT_EQ(cache.get(BlockCache::key("sst-a", 1)), nullptr);
  EXPECT_NE(cache.get(BlockCache::key("sst-ab", 0)), nullptr);
}

TEST(BlockCacheTest, ZeroCapacityNeverStores) {
  BlockCache cache(0);
  cache.put(BlockCache::key("sst-a", 0), make_block(1));
  EXPECT_EQ(cache.get(BlockCache::key("sst-a", 0)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

// --- memtable ----------------------------------------------------------------

TEST(MemTableTest, ByteAccountingTracksPutOverwriteErase) {
  MemTable mem;
  EXPECT_EQ(mem.bytes(), 0u);
  mem.put(1, make_task(1, "queued", 100, 0));
  std::size_t one = mem.bytes();
  EXPECT_GT(one, 100u);  // payload + overhead
  mem.put(2, make_task(2, "queued", 100, 0));
  EXPECT_GT(mem.bytes(), one);
  mem.put(1, make_task(1, "queued", 10, 0));  // overwrite with smaller row
  EXPECT_LT(mem.bytes(), one + one);
  EXPECT_EQ(mem.size(), 2u);
  EXPECT_TRUE(mem.erase(1));
  EXPECT_FALSE(mem.erase(1));
  EXPECT_EQ(mem.size(), 1u);
  mem.clear();
  EXPECT_EQ(mem.bytes(), 0u);
  EXPECT_TRUE(mem.empty());
}

// --- compaction policy -------------------------------------------------------

TEST(CompactionTest, PicksTheLowestFullLevel) {
  std::map<std::uint32_t, std::size_t> counts{{0, 3}, {1, 4}, {2, 5}};
  EXPECT_EQ(pick_compaction_level(counts, 4), std::optional<std::uint32_t>(1));
  counts[0] = 4;
  EXPECT_EQ(pick_compaction_level(counts, 4), std::optional<std::uint32_t>(0));
  EXPECT_EQ(pick_compaction_level(counts, 0), std::nullopt);  // disabled
  EXPECT_EQ(pick_compaction_level({}, 4), std::nullopt);
}

TEST(CompactionTest, MergeIsNewestWinsAndDropsDeadIds) {
  std::vector<CompactionInput> inputs;
  inputs.push_back({2, {{1, make_task(1, "running", 8, 0)},
                        {3, make_task(3, "running", 8, 0)}}});
  inputs.push_back({1, {{1, make_task(1, "queued", 8, 0)},
                        {2, make_task(2, "queued", 8, 0)},
                        {4, make_task(4, "queued", 8, 0)}}});
  std::vector<RunEntry> merged = merge_runs(
      std::move(inputs), [](RowId id) { return id != 4; });  // 4 was erased
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 1u);
  EXPECT_EQ(merged[0].row[1], Value(std::string("running")));  // seq 2 wins
  EXPECT_EQ(merged[1].id, 2u);
  EXPECT_EQ(merged[2].id, 3u);
}

// --- engine: spill and read path --------------------------------------------

TEST(LsmEngineTest, SpillsPastTheBudgetAndReadsEveryRowBack) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  StorageOptions opts = EngineHarness::spill_options();
  opts.cache_blocks = 1024;  // hold the whole working set for the warm pass
  EngineHarness h(disk, opts);
  Table* tasks = h.create_tasks();

  Database shadow;
  Table* shadow_tasks = shadow.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(shadow_tasks->create_index("status").is_ok());

  constexpr int kRows = 200;
  for (int i = 1; i <= kRows; ++i) {
    Row row = make_task(i, i % 2 ? "queued" : "running", 64, 0.25 * i);
    ASSERT_TRUE(tasks->insert(row).ok());
    ASSERT_TRUE(shadow_tasks->insert(std::move(row)).ok());
  }
  StorageStats stats = h.engine.stats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.runs, 0u);
  EXPECT_GT(stats.spilled_rows, 0u);
  EXPECT_EQ(stats.flush_failures, 0u);
  EXPECT_EQ(tasks->row_count(), static_cast<std::size_t>(kRows));

  // Point reads, index scans, ordered scans, and the full dump all agree
  // with a plain in-memory database fed the same operations.
  for (int i = 1; i <= kRows; ++i) {
    std::optional<RowId> id = tasks->find_pk(Value(std::int64_t{i}));
    ASSERT_TRUE(id.has_value()) << i;
    EXPECT_EQ(tasks->get(*id), shadow_tasks->get(*id));
  }
  db::ScanOptions queued;
  queued.where = db::eq("status", Value(std::string("queued")));
  EXPECT_EQ(tasks->select(queued).value(), shadow_tasks->select(queued).value());
  EXPECT_EQ(dump_str(h.db), dump_str(shadow));

  // A second full pass is served from the block cache.
  std::uint64_t misses_before = h.engine.stats().cache_misses;
  EXPECT_EQ(dump_str(h.db), dump_str(shadow));
  StorageStats after = h.engine.stats();
  EXPECT_GT(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, misses_before);  // fully warm
}

TEST(LsmEngineTest, CompactionCollapsesLevelsAndDropsErasedRows) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  StorageOptions opts = EngineHarness::spill_options();
  opts.compact_fanout = 2;
  EngineHarness h(disk, opts);
  Table* tasks = h.create_tasks();

  constexpr int kRows = 300;
  for (int i = 1; i <= kRows; ++i) {
    ASSERT_TRUE(tasks->insert(make_task(i, "queued", 64, 0)).ok());
  }
  // Erase a third, then force enough churn to compact the erased versions out.
  for (int i = 1; i <= kRows; i += 3) {
    db::ScanOptions victim;
    victim.where = db::eq("eq_task_id", Value(std::int64_t{i}));
    ASSERT_EQ(tasks->erase(victim).value(), 1u);
  }
  ASSERT_TRUE(h.store(tasks).flush().is_ok());
  StorageStats stats = h.engine.stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(tasks->row_count(),
            static_cast<std::size_t>(kRows - (kRows + 2) / 3));

  // Every surviving run entry must be live: total entries across runs never
  // exceeds what compaction could have kept plus fresh level-0 churn.
  for (const auto& run : h.store(tasks).runs()) {
    EXPECT_GT(run->entries, 0u);
  }
  for (int i = 1; i <= kRows; ++i) {
    bool erased = (i % 3 == 1);
    EXPECT_EQ(tasks->find_pk(Value(std::int64_t{i})).has_value(), !erased) << i;
  }
}

TEST(LsmEngineTest, FlushFaultKeepsRowsReadableAndRetries) {
  ManualClock clock;
  FaultRegistry faults(clock, 11);
  auto disk = std::make_shared<db::wal::SimDisk>();
  EngineHarness h(disk, EngineHarness::spill_options(), &faults);
  Table* tasks = h.create_tasks();

  faults.set_active(fault_point::storage_flush_fail(), true);
  for (int i = 1; i <= 60; ++i) {
    ASSERT_TRUE(tasks->insert(make_task(i, "queued", 64, 0)).ok());
  }
  StorageStats failing = h.engine.stats();
  EXPECT_GT(failing.flush_failures, 0u);
  EXPECT_EQ(failing.flushes, 0u);
  EXPECT_EQ(failing.runs, 0u);
  // Rows that should have spilled are still served from the retained
  // immutable memtable.
  for (int i = 1; i <= 60; ++i) {
    EXPECT_TRUE(tasks->find_pk(Value(std::int64_t{i})).has_value()) << i;
  }

  faults.set_active(fault_point::storage_flush_fail(), false);
  ASSERT_TRUE(h.store(tasks).flush().is_ok());
  StorageStats healed = h.engine.stats();
  EXPECT_GT(healed.flushes, 0u);
  EXPECT_GT(healed.runs, 0u);
  EXPECT_EQ(tasks->row_count(), 60u);
}

TEST(LsmEngineTest, AttachRequiresAnEmptyDatabase) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  db::wal::SimLogDevice device(disk);
  Database db;
  ASSERT_TRUE(db.create_table("tasks", task_schema()).ok());
  StorageEngine engine(device);
  Status s = engine.attach(db);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kConflict);
}

TEST(LsmEngineTest, ClearAndDropTableDeleteUnpinnedRuns) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  EngineHarness h(disk);
  Table* tasks = h.create_tasks();
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(tasks->insert(make_task(i, "queued", 64, 0)).ok());
  }
  ASSERT_GT(h.engine.stats().runs, 0u);
  ASSERT_TRUE(tasks->clear().is_ok());
  EXPECT_EQ(h.engine.stats().runs, 0u);
  EXPECT_EQ(tasks->row_count(), 0u);
  // No manifest was ever written, so nothing is pinned: the run segments are
  // gone from the device too.
  std::vector<std::string> device_names = h.device.list().value();
  for (const std::string& name : device_names) {
    EXPECT_NE(name.rfind("sst-", 0), 0u) << name;
  }
}

// A dead device must surface spilled-row reads as kUnavailable at every
// Table entry point — never as a silently absent row, a stale older
// version, or (in release builds) a moved-from garbage row.
TEST(LsmEngineTest, DeadDeviceSurfacesUnavailableNotGarbage) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  EngineHarness h(disk);
  Table* tasks = h.create_tasks();
  for (int i = 1; i <= 100; ++i) {
    ASSERT_TRUE(tasks->insert(make_task(i, "queued", 64, 0.5 * i)).ok());
  }
  ASSERT_GT(h.engine.stats().spilled_rows, 0u);
  // A live row resident only in a run.
  RowId spilled = 0;
  for (RowId id : tasks->all_row_ids()) {
    if (!tasks->store().get_ref(id)) {
      spilled = id;
      break;
    }
  }
  ASSERT_NE(spilled, 0u);
  // The oldest row spilled first: the mutation checks below rely on the
  // failure hitting id 1 before any resident row is touched.
  ASSERT_EQ(spilled, 1u);

  h.device.crash();

  // Point read: still reported live, but the row itself is unreadable —
  // nullopt (the row_store.h unreadable signal), not a stale version.
  EXPECT_TRUE(tasks->store().contains(spilled));
  EXPECT_FALSE(tasks->get(spilled).has_value());

  // A predicate scan reads each candidate row for the conjuncts the index
  // seek does not answer: kUnavailable, not a miss.
  db::ScanOptions where_queued;
  where_queued.where = db::and_(db::eq("status", Value(std::string("queued"))),
                                db::gt("score", Value(0.0)));
  auto selected = tasks->select(where_queued);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.code(), ErrorCode::kUnavailable);
  // The status index alone answers `status = 'queued'`: no row is read.
  where_queued.where = db::eq("status", Value(std::string("queued")));
  auto covered = tasks->select(where_queued);
  ASSERT_TRUE(covered.ok());
  EXPECT_EQ(covered.value().size(), 100u);

  // ORDER BY pins spilled rows before sorting: the pin failure propagates.
  db::ScanOptions by_score;
  by_score.order_by = {{"score", true}};
  auto sorted = tasks->select(by_score);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.code(), ErrorCode::kUnavailable);

  // UPDATE re-reads the old row for the undo journal and index maintenance.
  auto updated =
      tasks->update({}, {{"status", db::lit(Value(std::string("lost")))}});
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.code(), ErrorCode::kUnavailable);

  // DELETE: erase_row cannot fetch the old row for the undo journal and the
  // row stays live — surfaced as an error, not a silent under-count.
  auto erased = tasks->erase({});
  ASSERT_FALSE(erased.ok());
  EXPECT_EQ(erased.code(), ErrorCode::kUnavailable);

  // CREATE INDEX backfill aborts cleanly; no partial index is installed.
  Status indexed = tasks->create_index("score");
  ASSERT_FALSE(indexed.is_ok());
  EXPECT_EQ(indexed.code(), ErrorCode::kUnavailable);
  EXPECT_FALSE(tasks->has_index("score"));

  // clear() under a journal aborts before wiping the store, and the rewound
  // journal leaves the rollback a no-op.
  {
    db::Transaction txn(h.db);
    Status cleared = tasks->clear();
    ASSERT_FALSE(cleared.is_ok());
    EXPECT_EQ(cleared.code(), ErrorCode::kUnavailable);
  }
  EXPECT_EQ(tasks->row_count(), 100u);
}

// --- WAL + manifest integration ----------------------------------------------

// One campaign step: an insert, an update, and periodically an erase, all
// committed through the WAL observer.
Status apply_txn(Database& db, int i) {
  Table* tasks = db.table("tasks");
  db::Transaction txn(db);
  auto inserted = tasks->insert(make_task(i, "queued", 64, 0.5 * i));
  if (!inserted.ok()) return inserted.error();
  if (i > 1) {
    db::ScanOptions prev;
    prev.where = db::eq("eq_task_id", Value(std::int64_t{i - 1}));
    auto updated = tasks->update(prev, {{"status", db::lit(Value(std::string("running")))}});
    if (!updated.ok()) return updated.error();
  }
  if (i % 5 == 0 && i > 2) {
    db::ScanOptions victim;
    victim.where = db::eq("eq_task_id", Value(std::int64_t{i - 2}));
    auto erased = tasks->erase(victim);
    if (!erased.ok()) return erased.error();
  }
  return txn.commit();
}

// A logged campaign on an engine-backed database: returns the dump after
// `txns` transactions, with a checkpoint (manifest) after `ckpt_at`.
struct LoggedCampaign {
  LoggedCampaign(std::shared_ptr<db::wal::SimDisk> disk, int txns, int ckpt_at,
                 FaultRegistry* faults = nullptr,
                 StorageOptions opts = EngineHarness::spill_options())
      : harness(std::move(disk), opts, faults), manager(harness.device) {
    EXPECT_TRUE(manager.open().is_ok());
    manager.attach(harness.db);
    harness.engine.install(manager);
    harness.create_tasks();
    for (int i = 1; i <= txns; ++i) {
      EXPECT_TRUE(apply_txn(harness.db, i).is_ok()) << i;
      if (i == ckpt_at) {
        Result<db::wal::Lsn> ckpt = manager.checkpoint(harness.db);
        EXPECT_TRUE(ckpt.ok());
        checkpoint_lsn = ckpt.ok() ? ckpt.value() : 0;
      }
    }
  }

  ~LoggedCampaign() { manager.detach(); }

  EngineHarness harness;
  db::wal::WalManager manager;
  db::wal::Lsn checkpoint_lsn = 0;
};

// Recover the campaign's disk into a fresh engine + database and return both
// the RecoveryInfo and the recovered dump.
struct Recovered {
  explicit Recovered(std::shared_ptr<db::wal::SimDisk> disk,
                     StorageOptions opts = EngineHarness::spill_options())
      : device(std::move(disk)), engine(device, opts) {
    info = engine.recover(db);
  }

  db::wal::SimLogDevice device;
  StorageEngine engine;
  Database db;
  Result<db::wal::RecoveryInfo> info = Error(ErrorCode::kInternal, "unset");
};

TEST(StorageRecoveryTest, ManifestPlusTailRebuildsBitIdentically) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  std::string expected;
  db::wal::Lsn ckpt_lsn = 0;
  {
    LoggedCampaign campaign(disk, 120, 80);
    expected = dump_str(campaign.harness.db);
    ckpt_lsn = campaign.checkpoint_lsn;
    EXPECT_GT(campaign.harness.engine.stats().runs, 0u);
  }
  Recovered r(disk);
  ASSERT_TRUE(r.info.ok());
  EXPECT_EQ(dump_str(r.db), expected);
  EXPECT_TRUE(r.info.value().used_checkpoint);
  EXPECT_EQ(r.info.value().checkpoint_lsn, ckpt_lsn);
  EXPECT_GT(r.info.value().transactions_replayed, 0u);  // the 40-txn tail
  EXPECT_GT(r.engine.stats().runs, 0u);  // manifest runs re-attached

  // The recovered instance keeps working: more churn, another recovery.
  db::wal::WalManager manager2(r.device);
  ASSERT_TRUE(manager2.open().is_ok());
  manager2.attach(r.db);
  r.engine.install(manager2);
  for (int i = 121; i <= 140; ++i) {
    ASSERT_TRUE(apply_txn(r.db, i).is_ok());
  }
  std::string expected2 = dump_str(r.db);
  manager2.detach();
  Recovered r2(disk);
  ASSERT_TRUE(r2.info.ok());
  EXPECT_EQ(dump_str(r2.db), expected2);
}

TEST(StorageRecoveryTest, RecoveryIsManifestSizedNotHistorySized) {
  // With a checkpoint right at the end, recovery replays (almost) nothing:
  // the state comes from the manifest, whose runs are attached without
  // device reads.
  auto disk = std::make_shared<db::wal::SimDisk>();
  std::string expected;
  {
    LoggedCampaign campaign(disk, 150, 150);
    expected = dump_str(campaign.harness.db);
  }
  Recovered r(disk);
  ASSERT_TRUE(r.info.ok());
  EXPECT_EQ(dump_str(r.db), expected);
  EXPECT_TRUE(r.info.value().used_checkpoint);
  EXPECT_EQ(r.info.value().transactions_replayed, 0u);
  EXPECT_EQ(r.info.value().records_replayed, 0u);
}

TEST(StorageRecoveryTest, NoSstablesFallsBackToPlainReplay) {
  // Everything fits in the memtable: no runs, no manifest checkpoint taken —
  // recovery is a plain WAL replay through the engine's store factory.
  auto disk = std::make_shared<db::wal::SimDisk>();
  StorageOptions roomy;  // defaults: 256 KiB memtable, far above 20 txns
  std::string expected;
  {
    LoggedCampaign campaign(disk, 20, /*ckpt_at=*/-1, nullptr, roomy);
    expected = dump_str(campaign.harness.db);
    EXPECT_EQ(campaign.harness.engine.stats().runs, 0u);
  }
  Recovered r(disk, roomy);
  ASSERT_TRUE(r.info.ok());
  EXPECT_EQ(dump_str(r.db), expected);
  EXPECT_FALSE(r.info.value().used_checkpoint);
  EXPECT_EQ(r.engine.stats().runs, 0u);
}

TEST(StorageRecoveryTest, MidFlushTornRunIsGarbageCollected) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  ManualClock clock;
  FaultRegistry faults(clock, 23);
  std::string expected;
  {
    LoggedCampaign campaign(disk, 100, 60, &faults);
    expected = dump_str(campaign.harness.db);
    // Push more rows into the memtable, then kill the device mid-run-write:
    // the sync of the flushed run persists only half its bytes.
    Table* tasks = campaign.harness.db.table("tasks");
    for (int i = 101; i <= 110; ++i) {
      ASSERT_TRUE(apply_txn(campaign.harness.db, i).is_ok());
      expected = dump_str(campaign.harness.db);
    }
    faults.set_magnitude(fault_point::wal_partial_flush(), 0.5);
    faults.fail_next(fault_point::wal_partial_flush(), 1);
    Status flushed =
        campaign.harness.store(tasks).flush();
    EXPECT_FALSE(flushed.is_ok());  // device died mid-flush
    EXPECT_TRUE(campaign.harness.device.dead());
    EXPECT_GT(campaign.harness.engine.stats().flush_failures, 0u);
  }
  Recovered r(disk);
  ASSERT_TRUE(r.info.ok());
  EXPECT_EQ(dump_str(r.db), expected);
  // The torn run must be gone: every surviving sst segment is either attached
  // to a recovered store or still pinned by the durable manifest (replaying
  // the tail re-runs compactions, turning manifest runs into zombies that
  // must outlive the next checkpoint).
  std::set<std::string> attached;
  for (const std::string& name : r.db.table_names()) {
    auto* store = dynamic_cast<LsmStore*>(&r.db.table(name)->store());
    ASSERT_NE(store, nullptr);
    for (const auto& run : store->runs()) attached.insert(run->segment);
  }
  db::wal::Lsn manifest_lsn = 0;
  Result<json::Value> manifest = db::wal::decode_checkpoint(
      r.device
          .read(db::wal::checkpoint_segment_name(r.info.value().checkpoint_lsn))
          .value(),
      &manifest_lsn);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(is_manifest(manifest.value()));
  std::set<std::string> pinned = manifest_run_segments(manifest.value());
  std::vector<std::string> device_names = r.device.list().value();
  for (const std::string& name : device_names) {
    if (name.rfind("sst-", 0) == 0) {
      EXPECT_TRUE(attached.count(name) || pinned.count(name))
          << "orphan survived: " << name;
    }
  }
}

TEST(StorageRecoveryTest, MidCompactionCrashRestoresFromZombieInputs) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  StorageOptions opts = EngineHarness::spill_options();
  opts.compact_fanout = 2;
  opts.memtable_bytes = 64 * 1024;  // no auto-rotation: flushes are explicit
  std::string expected;
  std::string zombie_segment;
  {
    db::wal::SimLogDevice device(disk);
    StorageEngine engine(device, opts);
    Database db;
    ASSERT_TRUE(engine.attach(db).is_ok());
    db::wal::WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    engine.install(manager);
    Table* tasks = db.create_table("tasks", task_schema()).value();
    ASSERT_TRUE(tasks->create_index("status").is_ok());
    auto* store = dynamic_cast<LsmStore*>(&tasks->store());
    ASSERT_NE(store, nullptr);

    // Run A, then a manifest that pins it.
    for (int i = 1; i <= 20; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    ASSERT_TRUE(store->flush().is_ok());
    ASSERT_EQ(store->runs().size(), 1u);
    zombie_segment = store->runs()[0]->segment;
    ASSERT_TRUE(manager.checkpoint(db).ok());

    // Run B triggers the fanout-2 compaction: A and B merge to level 1,
    // A (manifest-pinned) becomes a zombie that must stay on the device.
    for (int i = 21; i <= 40; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    ASSERT_TRUE(store->flush().is_ok());
    EXPECT_GT(engine.stats().compactions, 0u);
    EXPECT_EQ(engine.stats().zombie_runs, 1u);
    std::vector<std::string> names = device.list().value();
    EXPECT_TRUE(std::count(names.begin(), names.end(), zombie_segment))
        << "zombie deleted before the next checkpoint";

    expected = dump_str(db);
    manager.detach();
    // Crash here: no checkpoint after the compaction, so the durable
    // manifest still describes run A + the WAL tail.
  }
  Recovered r(disk, opts);
  ASSERT_TRUE(r.info.ok());
  EXPECT_EQ(dump_str(r.db), expected);
  // The compaction output was an orphan (never checkpointed) and must be
  // GC'd; the zombie input the manifest references was re-attached.
  auto* store = dynamic_cast<LsmStore*>(&r.db.table("tasks")->store());
  ASSERT_NE(store, nullptr);
  std::set<std::string> attached;
  for (const auto& run : store->runs()) attached.insert(run->segment);
  EXPECT_TRUE(attached.count(zombie_segment));
  std::vector<std::string> device_names = r.device.list().value();
  for (const std::string& name : device_names) {
    if (name.rfind("sst-", 0) == 0) {
      EXPECT_TRUE(attached.count(name)) << "orphan survived: " << name;
    }
  }
}

TEST(StorageRecoveryTest, OrphanedRunsAreRemovedOnStartup) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  std::string expected;
  {
    LoggedCampaign campaign(disk, 60, 40);
    expected = dump_str(campaign.harness.db);
  }
  // Plant junk runs a previous process might have leaked: never referenced
  // by any manifest.
  disk->segments["sst-tasks-00000000deadbeef-L0"] = "OSPSSTv1garbage";
  disk->segments["sst-ghosts-0000000000000001-L2"] = "torn";
  Recovered r(disk);
  ASSERT_TRUE(r.info.ok());
  EXPECT_EQ(dump_str(r.db), expected);
  std::vector<std::string> names = r.device.list().value();
  EXPECT_EQ(std::count(names.begin(), names.end(),
                       std::string("sst-tasks-00000000deadbeef-L0")), 0);
  EXPECT_EQ(std::count(names.begin(), names.end(),
                       std::string("sst-ghosts-0000000000000001-L2")), 0);
}

TEST(StorageRecoveryTest, CheckpointAfterCompactionFreesZombies) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  StorageOptions opts = EngineHarness::spill_options();
  opts.compact_fanout = 2;
  opts.memtable_bytes = 64 * 1024;  // no auto-rotation: flushes are explicit
  db::wal::SimLogDevice device(disk);
  StorageEngine engine(device, opts);
  Database db;
  ASSERT_TRUE(engine.attach(db).is_ok());
  db::wal::WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  engine.install(manager);
  Table* tasks = db.create_table("tasks", task_schema()).value();
  auto* store = dynamic_cast<LsmStore*>(&tasks->store());
  ASSERT_NE(store, nullptr);

  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(tasks->insert(make_task(i, "queued", 64, 0)).ok());
  }
  ASSERT_TRUE(store->flush().is_ok());
  std::string pinned = store->runs()[0]->segment;
  ASSERT_TRUE(manager.checkpoint(db).ok());
  for (int i = 21; i <= 40; ++i) {
    ASSERT_TRUE(tasks->insert(make_task(i, "queued", 64, 0)).ok());
  }
  ASSERT_TRUE(store->flush().is_ok());  // compacts; `pinned` becomes a zombie
  ASSERT_EQ(engine.stats().zombie_runs, 1u);

  // The next durable manifest no longer references the zombie: it is
  // deleted by the post-checkpoint hook.
  ASSERT_TRUE(manager.checkpoint(db).ok());
  EXPECT_EQ(engine.stats().zombie_runs, 0u);
  std::vector<std::string> names = device.list().value();
  EXPECT_EQ(std::count(names.begin(), names.end(), pinned), 0);
  manager.detach();
}

}  // namespace
}  // namespace osprey::storage
