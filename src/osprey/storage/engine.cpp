#include "osprey/storage/engine.h"

#include <algorithm>
#include <utility>

#include "osprey/db/dump.h"
#include "osprey/obs/telemetry.h"
#include "osprey/storage/compaction.h"
#include "osprey/storage/manifest.h"

namespace osprey::storage {

namespace {

constexpr const char* kRunPrefix = "sst-";

/// Engine-global telemetry (DESIGN.md §observability): block-cache traffic
/// and the spill/compaction size distributions. Per-table families (memtable
/// bytes, flush/compaction counters, runs per level) are acquired lazily per
/// store since their label sets are dynamic.
struct StorageObs {
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& read_errors;
  obs::Histogram& flush_bytes;
  obs::Histogram& compaction_bytes;
};

StorageObs& storage_obs() {
  static StorageObs o{
      obs::telemetry().metrics.counter("osprey_storage_cache_hits_total"),
      obs::telemetry().metrics.counter("osprey_storage_cache_misses_total"),
      obs::telemetry().metrics.counter("osprey_storage_read_errors_total"),
      obs::telemetry().metrics.histogram("osprey_storage_flush_bytes", {},
                                         obs::bytes_buckets()),
      obs::telemetry().metrics.histogram("osprey_storage_compaction_bytes", {},
                                         obs::bytes_buckets()),
  };
  return o;
}

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

// --- LsmStore ----------------------------------------------------------------

LsmStore::LsmStore(StorageEngine& engine, std::string table)
    : engine_(engine), table_(std::move(table)) {
  engine_.register_store(this);
}

LsmStore::~LsmStore() { engine_.unregister_store(this); }

void LsmStore::put(db::RowId id, db::Row row) {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  live_.insert(id);
  mem_.put(id, std::move(row));
  if (mem_.bytes() >= engine_.options_.memtable_bytes) {
    // Budget reached: rotate and spill. Failure (fault point, dead device)
    // is not an error for the caller — the rows stay readable in the
    // immutable slot and the flush is retried at the next rotation.
    engine_.rotate_and_flush_locked(*this);
  }
}

std::optional<db::Row> LsmStore::get(db::RowId id) const {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  if (!live_.count(id)) return std::nullopt;
  if (const db::Row* row = mem_.find(id)) return *row;
  if (const db::Row* row = immutable_.find(id)) return *row;
  return engine_.find_in_runs_locked(*this, id);
}

const db::Row* LsmStore::get_ref(db::RowId id) const {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  if (!live_.count(id)) return nullptr;
  if (const db::Row* row = mem_.find(id)) return row;
  if (const db::Row* row = immutable_.find(id)) return row;
  return nullptr;  // spilled: caller falls back to get()
}

bool LsmStore::erase(db::RowId id) {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  if (live_.erase(id) == 0) return false;
  // No tombstones: liveness left with the id set; any version of the row
  // still sitting in a run is dropped by the next compaction that sees it.
  mem_.erase(id);
  immutable_.erase(id);
  return true;
}

void LsmStore::clear() {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  live_.clear();
  mem_.clear();
  immutable_.clear();
  for (const auto& run : runs_) engine_.retire_run_locked(run);
  runs_.clear();
  engine_.update_gauges_locked(*this);
}

std::size_t LsmStore::size() const {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  return live_.size();
}

bool LsmStore::contains(db::RowId id) const {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  return live_.count(id) > 0;
}

std::vector<db::RowId> LsmStore::ids() const {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  return std::vector<db::RowId>(live_.begin(), live_.end());
}

Status LsmStore::scan(
    const std::function<Status(db::RowId, const db::Row&)>& fn) const {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  // Ascending-id order; consecutive spilled ids land in the same decoded
  // block, so the cache makes this O(blocks) device reads, not O(rows).
  for (db::RowId id : live_) {
    if (const db::Row* row = mem_.find(id)) {
      Status s = fn(id, *row);
      if (!s.is_ok()) return s;
      continue;
    }
    if (const db::Row* row = immutable_.find(id)) {
      Status s = fn(id, *row);
      if (!s.is_ok()) return s;
      continue;
    }
    std::optional<db::Row> row = engine_.find_in_runs_locked(*this, id);
    if (!row) {
      return Status(ErrorCode::kUnavailable,
                    "storage: live row " + std::to_string(id) + " of '" +
                        table_ + "' unreadable");
    }
    Status s = fn(id, *row);
    if (!s.is_ok()) return s;
  }
  return Status::ok();
}

Status LsmStore::flush() {
  std::lock_guard<std::recursive_mutex> lock(engine_.mutex_);
  return engine_.rotate_and_flush_locked(*this);
}

// --- StorageEngine -----------------------------------------------------------

StorageEngine::StorageEngine(db::wal::LogDevice& device, StorageOptions options,
                             FaultRegistry* faults)
    : device_(device),
      options_(options),
      faults_(faults),
      cache_(options.cache_blocks) {}

StorageEngine::~StorageEngine() = default;

Status StorageEngine::attach(db::Database& db) {
  // Lock order: database outer, engine inner. Table calls into LsmStore
  // under the database mutex and the store takes the engine mutex inside
  // it, so any engine path that calls back into the database must take the
  // database mutex first.
  std::lock_guard<std::recursive_mutex> db_lock(db.mutex());
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!db.table_names().empty()) {
    return Status(ErrorCode::kConflict,
                  "storage: attach requires an empty database (existing "
                  "tables would keep their in-memory stores)");
  }
  db.set_store_factory([this](const std::string& table) {
    return std::make_unique<LsmStore>(*this, table);
  });
  db_ = &db;
  return Status::ok();
}

void StorageEngine::install(db::wal::WalManager& wal) {
  wal.set_snapshot_provider(
      [this](db::Database& db) { return build_manifest(db); });
  wal.set_post_checkpoint_hook(
      [this](db::wal::Lsn lsn) { on_checkpoint(lsn); });
}

Result<db::wal::RecoveryInfo> StorageEngine::recover(db::Database& db) {
  if (db_ != &db) {
    Status attached = attach(db);
    if (!attached.is_ok()) return attached.error();
  }
  // recover() reads the checkpoint once and hands it (null when there is
  // none) to this restorer. Once it is restored, and before the tail
  // replays, every run it does not reference — a torn flush, an
  // un-checkpointed compaction output, or a leftover the previous process
  // never deleted — is dead weight, because everything it held is
  // re-derivable from the manifest plus the WAL tail. The GC must precede
  // replay: a replayed flush may reuse an orphan's segment name. A
  // checkpoint that cannot be read fails recover() before this runs, so
  // the GC never deletes runs a manifest still needs.
  return db::wal::recover(
      device_, db,
      [this](db::Database& target, const json::Value& snapshot) -> Status {
        Status restored = Status::ok();
        if (is_manifest(snapshot)) {
          restored = restore_manifest(target, snapshot);
        } else if (!snapshot.is_null()) {
          restored = db::restore_database(target, snapshot);
        }
        if (!restored.is_ok()) return restored;
        const std::set<std::string> referenced =
            manifest_run_segments(snapshot);
        Result<std::vector<std::string>> names = device_.list();
        if (!names.ok()) return names.error();
        for (const std::string& name : names.value()) {
          if (has_prefix(name, kRunPrefix) && !referenced.count(name)) {
            Status removed = device_.remove(name);
            if (!removed.is_ok()) return removed;
          }
        }
        return Status::ok();
      });
}

void StorageEngine::on_checkpoint(db::wal::Lsn) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // The manifest is durable: runs it references must now be pinned until a
  // later manifest drops them; runs the *previous* manifest pinned but this
  // one no longer references (compacted away, table dropped) are free.
  for (const std::string& segment : zombies_) {
    device_.remove(segment);  // best effort; recovery GC sweeps leftovers
    cache_.erase_segment(segment);
  }
  zombies_.clear();
  std::set<std::string> pinned(manifest_segments_.begin(),
                               manifest_segments_.end());
  manifest_segments_.clear();
  for (auto& [name, store] : stores_) {
    (void)name;
    for (auto& run : store->runs_) {
      run->in_manifest = pinned.count(run->segment) > 0;
    }
  }
}

StorageStats StorageEngine::stats() const {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  StorageStats s;
  for (const auto& [name, store] : stores_) {
    (void)name;
    s.memtable_bytes += store->mem_.bytes() + store->immutable_.bytes();
    s.memtable_rows += store->mem_.size() + store->immutable_.size();
    std::size_t resident = 0;
    for (db::RowId id : store->live_) {
      if (store->mem_.find(id) || store->immutable_.find(id)) ++resident;
    }
    s.spilled_rows += store->live_.size() - resident;
    s.runs += store->runs_.size();
    for (const auto& run : store->runs_) s.run_bytes += run->bytes;
  }
  s.zombie_runs = zombies_.size();
  s.flushes = flushes_;
  s.flush_failures = flush_failures_;
  s.compactions = compactions_;
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.read_errors = read_errors_;
  return s;
}

Status StorageEngine::rotate_and_flush_locked(LsmStore& store) {
  // A pending immutable memtable (earlier flush failed) goes first; while it
  // cannot be written the active memtable keeps absorbing writes past the
  // budget — correctness over footprint.
  if (!store.immutable_.empty()) {
    Status s = flush_immutable_locked(store);
    if (!s.is_ok()) return s;
  }
  if (store.mem_.empty()) return Status::ok();
  std::swap(store.mem_, store.immutable_);
  return flush_immutable_locked(store);
}

Status StorageEngine::flush_immutable_locked(LsmStore& store) {
  if (store.immutable_.empty()) return Status::ok();
  if (faults_ && faults_->should_fire(fault_point::storage_flush_fail())) {
    ++flush_failures_;
    return Status(ErrorCode::kUnavailable, "storage: flush fault injected");
  }
  std::vector<RunEntry> entries;
  entries.reserve(store.immutable_.size());
  for (const auto& [id, row] : store.immutable_.entries()) {
    entries.push_back(RunEntry{id, row});
  }
  auto meta = std::make_shared<RunMeta>();
  std::string image = encode_run(entries, options_.block_bytes,
                                 options_.bloom_bits_per_key, meta.get());
  meta->seq = store.next_seq_;
  meta->level = 0;
  meta->segment = run_segment_name(store.table_, meta->seq, 0);
  meta->bytes = image.size();
  // A previous torn attempt may have left bytes under this name.
  device_.remove(meta->segment);
  cache_.erase_segment(meta->segment);
  Status appended = device_.append(meta->segment, image);
  if (!appended.is_ok()) {
    ++flush_failures_;
    return appended;
  }
  Status synced = device_.sync(meta->segment);
  if (!synced.is_ok()) {
    ++flush_failures_;
    return synced;
  }
  store.next_seq_++;
  store.runs_.insert(store.runs_.begin(), meta);  // newest first
  store.immutable_.clear();
  ++flushes_;
  if (obs::enabled()) {
    storage_obs().flush_bytes.observe(static_cast<double>(image.size()));
    if (!store.obs_flushes_) {
      store.obs_flushes_ = &obs::telemetry().metrics.counter(
          "osprey_storage_flushes_total", {{"table", store.table_}});
    }
    store.obs_flushes_->inc();
  }
  update_gauges_locked(store);
  return compact_locked(store);
}

Status StorageEngine::compact_locked(LsmStore& store) {
  while (true) {
    std::map<std::uint32_t, std::size_t> level_counts;
    for (const auto& run : store.runs_) ++level_counts[run->level];
    std::optional<std::uint32_t> level =
        pick_compaction_level(level_counts, options_.compact_fanout);
    if (!level) return Status::ok();
    if (faults_ &&
        faults_->should_fire(fault_point::storage_compact_fail())) {
      return Status(ErrorCode::kUnavailable,
                    "storage: compaction fault injected");
    }

    // Stream the merge: each input is read one block at a time and each
    // output block is appended as soon as it is cut, so a compaction holds
    // a block per input instead of its whole level (which, decoded, used to
    // set the process's peak memory).
    std::vector<std::shared_ptr<RunMeta>> inputs;
    std::vector<MergeInput> streams;
    std::uint64_t out_seq = 0;
    for (const auto& run : store.runs_) {
      if (run->level != *level) continue;
      out_seq = std::max(out_seq, run->seq);
      inputs.push_back(run);
      streams.push_back({run->seq, block_reader_locked(*run)});
    }
    auto output = std::make_shared<RunMeta>();
    // The output's seq is the newest input's: the merged data is exactly as
    // new as that run, and must stay *older* than any level-0 run flushed
    // since.
    output->seq = out_seq;
    output->level = *level + 1;
    output->segment =
        run_segment_name(store.table_, output->seq, output->level);
    device_.remove(output->segment);
    cache_.erase_segment(output->segment);
    RunWriter writer(options_.block_bytes, [&](const std::string& bytes) {
      return device_.append(output->segment, bytes);
    });
    Status merged = merge_streams(
        std::move(streams),
        [&store](db::RowId id) { return store.live_.count(id) > 0; },
        [&writer](const RunEntry& e) { return writer.add(e); });
    // On failure the inputs stay live; a partial output is an orphan that
    // the next attempt or recovery GC removes.
    if (!merged.is_ok()) return merged;
    if (writer.entries() == 0) {
      output.reset();  // every input entry dead: no output run
    } else {
      Status written =
          writer.finish(options_.bloom_bits_per_key, output.get());
      if (written.is_ok()) written = device_.sync(output->segment);
      if (!written.is_ok()) return written;
      if (obs::enabled()) {
        storage_obs().compaction_bytes.observe(
            static_cast<double>(output->bytes));
      }
    }

    // Output durable (or empty): swap it in for the inputs. Inputs a durable
    // manifest still references become zombies until the next checkpoint.
    auto is_input = [&inputs](const std::shared_ptr<RunMeta>& run) {
      return std::find(inputs.begin(), inputs.end(), run) != inputs.end();
    };
    store.runs_.erase(
        std::remove_if(store.runs_.begin(), store.runs_.end(), is_input),
        store.runs_.end());
    if (output) {
      auto pos = std::upper_bound(
          store.runs_.begin(), store.runs_.end(), output->seq,
          [](std::uint64_t seq, const std::shared_ptr<RunMeta>& run) {
            return seq > run->seq;
          });
      store.runs_.insert(pos, output);
    }
    for (const auto& run : inputs) retire_run_locked(run);
    ++compactions_;
    if (obs::enabled()) {
      if (!store.obs_compactions_) {
        store.obs_compactions_ = &obs::telemetry().metrics.counter(
            "osprey_storage_compactions_total", {{"table", store.table_}});
      }
      store.obs_compactions_->inc();
    }
    update_gauges_locked(store);
  }
}

std::function<Result<std::optional<RunEntry>>()>
StorageEngine::block_reader_locked(const RunMeta& run) {
  // Compaction input: one device read per block, bypassing the block cache
  // (compaction inputs are about to disappear).
  return [this, &run, ordinal = std::size_t{0}, block = std::vector<RunEntry>{},
          pos = std::size_t{0}]() mutable -> Result<std::optional<RunEntry>> {
    while (pos == block.size()) {
      if (ordinal == run.blocks.size()) return std::optional<RunEntry>{};
      const BlockIndexEntry& index = run.blocks[ordinal++];
      Result<std::string> frame =
          device_.read_range(run.segment, index.offset, index.length);
      if (!frame.ok()) return frame.error();
      if (frame.value().size() < index.length) {
        return Error(ErrorCode::kInvalidArgument,
                     "storage: run '" + run.segment +
                         "' shorter than its index");
      }
      Result<std::vector<RunEntry>> decoded = decode_block(frame.value());
      if (!decoded.ok()) return decoded.error();
      block = std::move(decoded).take();
      pos = 0;
    }
    return std::optional<RunEntry>{std::move(block[pos++])};
  };
}

std::optional<db::Row> StorageEngine::find_in_runs_locked(
    const LsmStore& store, db::RowId id) {
  for (const auto& run : store.runs_) {  // newest first
    if (run->blocks.empty() || id < run->min_id || id > run->max_id) continue;
    if (!run->bloom.may_contain(id)) continue;
    // Last block whose first_id <= id.
    auto it = std::upper_bound(
        run->blocks.begin(), run->blocks.end(), id,
        [](db::RowId target, const BlockIndexEntry& block) {
          return target < block.first_id;
        });
    if (it == run->blocks.begin()) continue;
    std::size_t ordinal =
        static_cast<std::size_t>(std::prev(it) - run->blocks.begin());
    BlockCache::Block block = read_block_locked(*run, ordinal);
    if (!block) {
      // Read error (counted in read_block_locked) on a run that may hold the
      // newest version of this row: falling through to older runs could
      // silently serve a stale version. Fail the lookup instead — a nullopt
      // for a live id is the unreadable-row signal (row_store.h contract).
      return std::nullopt;
    }
    auto entry = std::lower_bound(
        block->begin(), block->end(), id,
        [](const RunEntry& e, db::RowId target) { return e.id < target; });
    if (entry != block->end() && entry->id == id) return entry->row;
  }
  return std::nullopt;
}

BlockCache::Block StorageEngine::read_block_locked(const RunMeta& run,
                                                   std::size_t ordinal) {
  const std::string key = BlockCache::key(run.segment, ordinal);
  if (BlockCache::Block cached = cache_.get(key)) {
    if (obs::enabled()) storage_obs().cache_hits.inc();
    return cached;
  }
  if (obs::enabled()) storage_obs().cache_misses.inc();
  const BlockIndexEntry& index = run.blocks[ordinal];
  Result<std::string> frame =
      device_.read_range(run.segment, index.offset, index.length);
  if (!frame.ok() || frame.value().size() < index.length) {
    ++read_errors_;
    if (obs::enabled()) storage_obs().read_errors.inc();
    return nullptr;
  }
  Result<std::vector<RunEntry>> decoded = decode_block(frame.value());
  if (!decoded.ok()) {
    ++read_errors_;
    if (obs::enabled()) storage_obs().read_errors.inc();
    return nullptr;
  }
  auto block = std::make_shared<const std::vector<RunEntry>>(
      std::move(decoded).take());
  cache_.put(key, block);
  return block;
}

void StorageEngine::retire_run_locked(const std::shared_ptr<RunMeta>& run) {
  if (run->in_manifest) {
    // The last durable manifest references this run: recovery would need it
    // if we crashed now. Keep it until the next checkpoint proves it stale.
    zombies_.push_back(run->segment);
  } else {
    device_.remove(run->segment);  // best effort; recovery GC sweeps
    cache_.erase_segment(run->segment);
  }
}

void StorageEngine::register_store(LsmStore* store) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  stores_[store->table_] = store;
}

void StorageEngine::unregister_store(LsmStore* store) {
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  // Dropping a table retires its runs; manifest-pinned ones linger as
  // zombies until the next checkpoint (whose manifest omits the table).
  for (const auto& run : store->runs_) retire_run_locked(run);
  auto it = stores_.find(store->table_);
  if (it != stores_.end() && it->second == store) stores_.erase(it);
}

void StorageEngine::update_gauges_locked(const LsmStore& store) {
  if (!obs::enabled()) return;
  obs::telemetry()
      .metrics.gauge("osprey_storage_memtable_bytes",
                     {{"table", store.table_}})
      .set(static_cast<double>(store.mem_.bytes() +
                               store.immutable_.bytes()));
  std::map<std::uint32_t, std::size_t> level_counts;
  std::uint32_t max_level = 0;
  for (const auto& run : store.runs_) {
    ++level_counts[run->level];
    max_level = std::max(max_level, run->level);
  }
  // Levels that just emptied must drop to 0, so walk 0..max inclusive.
  for (std::uint32_t level = 0; level <= max_level; ++level) {
    obs::telemetry()
        .metrics.gauge("osprey_storage_runs",
                       {{"table", store.table_},
                        {"level", std::to_string(level)}})
        .set(static_cast<double>(level_counts[level]));
  }
}

}  // namespace osprey::storage
