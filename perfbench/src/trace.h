// Traced mode: an in-memory span recorder plus decorators that time the
// public seams of the stack from outside —
//
//   - TracedStore wraps a storage::RowStore (installed with
//     Database::set_store_factory around MemStore or LsmStore);
//   - TracedDevice wraps a db::wal::LogDevice (the FileLogDevice that carries
//     the WAL and, with storage on, the sorted runs);
//   - TracedObserver wraps Database::commit_observer(), which is the
//     notifier -> WAL chain every commit passes through.
//
// Harness code opens a Span around every public call it makes (eqsql.*,
// capi.*, pool.run). Spans nest per thread; each closed frame charges its
// duration to its parent, so a frame's self time is its duration minus its
// children's. Row-store calls are far too frequent for one record each (a
// priority-0 claim visits the whole backlog), so they are *aggregated*
// frames: they count toward parents and the per-name tallies exactly, but
// are written to the Chrome trace only as per-parent totals.
//
// Nothing here is installed in an untraced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osprey/db/database.h"
#include "osprey/db/wal.h"
#include "osprey/storage/row_store.h"

namespace perfbench::trace {

/// Per-name tallies merged across threads.
struct NameStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  /// Row-store time and rows read inside frames of this name (descendants).
  std::int64_t store_ns = 0;
  std::uint64_t store_rows = 0;
  /// Storage-tier device reads inside frames of this name (descendants).
  std::uint64_t device_reads = 0;
  /// Bytes moved by frames of this name (device appends / reads).
  std::uint64_t bytes = 0;
  /// Durations of the non-aggregated frames, for percentiles.
  std::vector<std::int64_t> durations_ns;
};

/// The layer a span name belongs to: the text before its first '.'.
std::string layer_of(const std::string& name);

class Recorder {
 public:
  static Recorder& instance();

  static bool active() {
    return active_flag().load(std::memory_order_relaxed);
  }
  void set_active(bool on) {
    active_flag().store(on, std::memory_order_relaxed);
  }

  /// Drop every recorded span and tally (between traced segments).
  void reset();

  /// Per-name tallies across all threads. Call only while no instrumented
  /// thread is running.
  std::map<std::string, NameStats> stats() const;

  /// Chrome trace_event JSON of every recorded span ("X" events, one tid
  /// per thread; args carry the request id and aggregated row-store time).
  bool write_chrome(const std::string& path) const;

  // Used by Span.
  void begin(const char* name, bool aggregated);
  void end(std::int64_t request, std::uint64_t rows, std::uint64_t bytes,
           bool device_read);
  /// Is the innermost open frame on this thread a row-store call?
  bool inside_store() const;

 private:
  static std::atomic<bool>& active_flag();
};

/// RAII frame. Costs one relaxed load while tracing is off.
class Span {
 public:
  explicit Span(const char* name, bool aggregated = false) {
    if (Recorder::active()) {
      Recorder::instance().begin(name, aggregated);
      armed_ = true;
    }
  }
  ~Span() {
    if (armed_) {
      Recorder::instance().end(request_, rows_, bytes_, device_read_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void request(std::int64_t id) { request_ = id; }
  void rows(std::uint64_t n) { rows_ = n; }
  void bytes(std::uint64_t n) { bytes_ = n; }
  void device_read() { device_read_ = true; }

 private:
  bool armed_ = false;
  bool device_read_ = false;
  std::int64_t request_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t bytes_ = 0;
};

/// RowStore decorator: every call is an aggregated "db.store.*" frame;
/// get / get_ref / scan report the rows they read.
class TracedStore : public osprey::storage::RowStore {
 public:
  explicit TracedStore(std::unique_ptr<osprey::storage::RowStore> inner)
      : inner_(std::move(inner)) {}

  void put(osprey::db::RowId id, osprey::db::Row row) override;
  std::optional<osprey::db::Row> get(osprey::db::RowId id) const override;
  const osprey::db::Row* get_ref(osprey::db::RowId id) const override;
  bool erase(osprey::db::RowId id) override;
  void clear() override;
  std::size_t size() const override;
  bool contains(osprey::db::RowId id) const override;
  std::vector<osprey::db::RowId> ids() const override;
  osprey::Status scan(
      const std::function<osprey::Status(osprey::db::RowId,
                                         const osprey::db::Row&)>& fn)
      const override;

 private:
  std::unique_ptr<osprey::storage::RowStore> inner_;
};

/// LogDevice decorator: a "wal.device.*" span per call, or
/// "storage.device.*" when the call comes from inside a row-store call
/// (a memtable flush, a compaction, a run-block read).
class TracedDevice : public osprey::db::wal::LogDevice {
 public:
  explicit TracedDevice(osprey::db::wal::LogDevice& inner) : inner_(inner) {}

  osprey::Status append(const std::string& segment,
                        const std::string& data) override;
  osprey::Status sync(const std::string& segment) override;
  osprey::Result<std::string> read(const std::string& segment) override;
  osprey::Result<std::string> read_range(const std::string& segment,
                                         std::uint64_t offset,
                                         std::uint64_t length) override;
  osprey::Status truncate(const std::string& segment,
                          std::uint64_t size) override;
  osprey::Status remove(const std::string& segment) override;
  osprey::Result<std::vector<std::string>> list() override;

 private:
  osprey::db::wal::LogDevice& inner_;
};

/// Commit-observer decorator: one "commit.hook" span per committed
/// transaction around the wrapped chain (notifier -> WAL). install() takes
/// the database's observer slot; uninstall() must run before the service is
/// torn down so the chain unwinds in its own order.
class TracedObserver : public osprey::db::CommitObserver {
 public:
  TracedObserver() = default;
  TracedObserver(const TracedObserver&) = delete;
  TracedObserver& operator=(const TracedObserver&) = delete;

  void install(osprey::db::Database& db);
  void uninstall();
  ~TracedObserver() override { uninstall(); }

  osprey::Status on_commit(
      osprey::db::Database& db,
      const std::vector<osprey::db::UndoRecord>& journal) override;
  osprey::Status on_create_table(const osprey::db::Table& table) override;
  osprey::Status on_drop_table(const std::string& name) override;
  osprey::Status on_create_index(const std::string& table,
                                 const std::string& column) override;

 private:
  osprey::db::Database* db_ = nullptr;
  osprey::db::CommitObserver* inner_ = nullptr;
};

/// Store factory for Database::set_store_factory: wraps whatever `inner`
/// builds (nullptr from `inner` = the default MemStore).
osprey::db::Database::StoreFactory traced_store_factory(
    osprey::db::Database::StoreFactory inner);

}  // namespace perfbench::trace
