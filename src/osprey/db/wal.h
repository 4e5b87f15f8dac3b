// Write-ahead log and crash recovery for the embedded database.
//
// The paper's §IV-B/§IV-C fault-tolerance story says a campaign survives the
// loss of a resource because all task state lives in the EMEWS DB. This
// module makes that durable in the literal sense: every committed transaction
// is appended to a binary redo log *before* it is acknowledged, so after a
// crash `recover()` rebuilds exactly the committed prefix — the latest
// checkpoint snapshot plus the WAL tail, truncated at the first torn record.
//
// Layout. The log is a sequence of *segments* managed through a pluggable
// LogDevice (a directory of files in production, a simulated crashable device
// under test). Segment names encode their first LSN in 16 hex digits so
// lexical order is log order: "wal-00000000000000a1". Checkpoint segments
// ("ckpt-<lsn>") hold a db/dump snapshot plus the LSN it covers; on
// checkpoint all fully-covered wal segments are deleted, bounding recovery
// time by the checkpoint interval rather than campaign length.
//
// Record framing (all little-endian):
//   [u32 payload_len][u32 crc32(payload)][payload]
//   payload = [u64 lsn][u8 type][body]
// DML records carry the full post-image of the row, which makes replay
// idempotent-converging: applying a record to a database that already
// reflects it is a no-op. A transaction's records are buffered by recovery
// and applied only when its commit marker is seen, so an un-committed tail
// is discarded wholesale. DDL records are self-committing, matching the
// non-transactional DDL of the engine.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "osprey/core/fault.h"
#include "osprey/db/database.h"
#include "osprey/json/json.h"

namespace osprey::db::wal {

/// Log sequence number: dense, strictly increasing, starts at 1.
using Lsn = std::uint64_t;

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `n` bytes. Exposed so
/// tests can forge and corrupt frames deliberately.
std::uint32_t crc32(const void* data, std::size_t n);

enum class RecordType : std::uint8_t {
  kInsert = 1,       // table, row_id, full row post-image
  kUpdate = 2,       // table, row_id, full row post-image
  kDelete = 3,       // table, row_id
  kCommit = 4,       // count of DML records in the transaction
  kCreateTable = 5,  // table, schema JSON (dump format "columns" array)
  kDropTable = 6,    // table
  kCreateIndex = 7,  // table, index spec (db::index_spec_string)
  kEpoch = 8,        // replication leadership epoch (osprey::repl fencing)
};

/// One decoded log record. Which fields are meaningful depends on `type`.
struct Record {
  Lsn lsn = 0;
  RecordType type = RecordType::kCommit;
  std::string table;
  RowId row_id = 0;
  Row row;                  // kInsert / kUpdate post-image
  std::string column;       // kCreateIndex: the index spec
  std::string schema_json;  // kCreateTable
  std::uint32_t txn_records = 0;  // kCommit
  std::uint64_t epoch = 0;        // kEpoch
};

/// Encode a record as a complete frame (length + CRC + payload).
std::string encode_record(const Record& record);

enum class DecodeStatus {
  kOk,         // one frame decoded, `consumed` advanced
  kEndOfLog,   // clean end: no bytes left
  kTruncated,  // partial frame at the tail (torn write)
  kCorrupt,    // CRC mismatch or malformed payload
};

/// Decode the frame starting at `offset`; on kOk `*consumed` is set to the
/// frame's byte length. kTruncated/kCorrupt mean the log ends here (recovery
/// truncates).
DecodeStatus decode_record(const std::string& buffer, std::size_t offset,
                           Record* out, std::size_t* consumed);

// ---------------------------------------------------------------------------
// Log geometry helpers (shared with osprey::repl, which maintains follower
// logs out of shipped frames rather than through a WalManager).

/// "wal-<16 hex digits of first LSN>": lexical order is log order.
std::string wal_segment_name(Lsn first_lsn);
/// "ckpt-<16 hex digits of covered LSN>".
std::string checkpoint_segment_name(Lsn lsn);
/// The 16-byte segment header (magic + first LSN) every wal segment starts
/// with; a follower writes this before appending shipped frames.
std::string wal_segment_header(Lsn first_lsn);
/// A complete checkpoint segment image: magic, CRC-framed [lsn][snapshot]
/// where `snapshot` is a db/dump document. Written by WalManager::checkpoint
/// and by replica bootstrap (the snapshot arrives over the wire there).
std::string encode_checkpoint(Lsn lsn, const json::Value& snapshot);

/// encode_checkpoint's inverse: the snapshot, with its covered LSN in
/// `*lsn`. kInvalidArgument for a torn image (bad magic, length or CRC, or
/// an unparseable body).
Result<json::Value> decode_checkpoint(const std::string& image, Lsn* lsn);

/// Redo-apply one record into `db`. DML converges idempotently (full
/// post-images), DDL is idempotent by construction, and kCommit / kEpoch
/// markers are no-ops. This is the single-record form of what recover()
/// does, exposed for the replication applier.
Status apply_record(Database& db, const Record& record);

class LogDevice;

// ---------------------------------------------------------------------------
// Log devices

/// Storage abstraction the WAL writes through: named append-only segments
/// with an explicit durability barrier (sync). Implementations must make
/// append+sync atomic at frame granularity no stronger than a real disk
/// does — i.e. not at all; recovery owns torn-tail handling.
class LogDevice {
 public:
  virtual ~LogDevice() = default;

  virtual Status append(const std::string& segment, const std::string& data) = 0;
  /// Durability barrier: all prior appends to `segment` survive a crash.
  virtual Status sync(const std::string& segment) = 0;
  virtual Result<std::string> read(const std::string& segment) = 0;
  /// `length` bytes starting at `offset` (short when the segment ends
  /// sooner). The base implementation reads the whole segment and slices;
  /// FileLogDevice overrides with pread so the storage engine's block reads
  /// do not scale with run size.
  virtual Result<std::string> read_range(const std::string& segment,
                                         std::uint64_t offset,
                                         std::uint64_t length);
  /// Discard everything past the first `size` bytes (torn-tail repair).
  virtual Status truncate(const std::string& segment, std::uint64_t size) = 0;
  virtual Status remove(const std::string& segment) = 0;
  /// All segment names, sorted.
  virtual Result<std::vector<std::string>> list() = 0;
};

/// Real files in a directory; sync is fsync(2).
class FileLogDevice : public LogDevice {
 public:
  explicit FileLogDevice(std::string directory);
  ~FileLogDevice() override;

  Status append(const std::string& segment, const std::string& data) override;
  Status sync(const std::string& segment) override;
  Result<std::string> read(const std::string& segment) override;
  Result<std::string> read_range(const std::string& segment,
                                 std::uint64_t offset,
                                 std::uint64_t length) override;
  Status truncate(const std::string& segment, std::uint64_t size) override;
  Status remove(const std::string& segment) override;
  Result<std::vector<std::string>> list() override;

 private:
  int fd_locked(const std::string& segment, std::string* error);
  void close_locked(const std::string& segment);

  std::string dir_;
  std::mutex mutex_;
  std::map<std::string, int> fds_;  // open append fds, one per segment
};

/// The durable medium behind SimLogDevice: what survives a crash. Shared
/// (via shared_ptr) between the device a campaign writes through and the
/// fresh device recovery opens afterwards, exactly like a disk surviving a
/// machine reboot.
struct SimDisk {
  std::map<std::string, std::string> segments;
  /// Segments whose reads fail with the given code, as a bad sector
  /// (kUnavailable) or a file removed under its reader (kNotFound) would.
  std::map<std::string, ErrorCode> unreadable;
};

/// Simulated crashable log device. Appends land in a volatile write cache;
/// sync() flushes the cache to the SimDisk. crash() loses the cache — except
/// that when the `wal.torn_tail` fault fires, a prefix of it (fraction =
/// point magnitude) reaches the medium, producing the torn tails recovery
/// must cope with. The wal.crash_* / wal.partial_flush fault points kill the
/// device at the matching instant of the append/sync protocol; a dead device
/// fails every operation until a new one is opened on the same SimDisk.
class SimLogDevice : public LogDevice {
 public:
  explicit SimLogDevice(std::shared_ptr<SimDisk> disk,
                        FaultRegistry* faults = nullptr);

  Status append(const std::string& segment, const std::string& data) override;
  Status sync(const std::string& segment) override;
  Result<std::string> read(const std::string& segment) override;
  /// A slice without copying the whole segment: compaction reads runs one
  /// block at a time.
  Result<std::string> read_range(const std::string& segment,
                                 std::uint64_t offset,
                                 std::uint64_t length) override;
  Status truncate(const std::string& segment, std::uint64_t size) override;
  Status remove(const std::string& segment) override;
  Result<std::vector<std::string>> list() override;

  /// Power loss: drop (or tear) the volatile cache and mark the device dead.
  void crash();
  bool dead() const;

  /// Model per-sync device latency by busy-spinning: lets bench_wal show the
  /// group-commit win without depending on real disk speed.
  void set_sync_spin(std::uint64_t iterations);

  std::uint64_t appends() const;
  std::uint64_t syncs() const;
  std::uint64_t bytes_appended() const;
  std::uint64_t bytes_durable() const;

 private:
  /// The segment's durable bytes and its unsynced tail (either may be
  /// null), or the error a read of it fails with. Caller holds mutex_.
  Result<std::pair<const std::string*, const std::string*>> parts_locked(
      const std::string& segment);
  Status fail_if_dead_locked(const char* op);

  std::shared_ptr<SimDisk> disk_;
  FaultRegistry* faults_;
  mutable std::mutex mutex_;
  std::map<std::string, std::string> pending_;  // volatile write cache
  bool dead_ = false;
  std::uint64_t sync_spin_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t bytes_appended_ = 0;
};

// ---------------------------------------------------------------------------
// The log manager

struct WalOptions {
  /// Rotate to a new segment once the current one reaches this size.
  std::uint64_t segment_bytes = 256 * 1024;
  /// Durability policy. 1 = sync every commit (full durability: an
  /// acknowledged commit survives any crash). N > 1 = group commit: sync
  /// once every N commits or `group_commit_bytes`, trading the tail of
  /// acknowledged-but-unsynced commits for fewer durability barriers.
  /// 0 = never sync on commit (flush()/checkpoint only).
  std::size_t group_commit_txns = 1;
  /// With group commit, also sync once this many unsynced bytes accumulate.
  std::uint64_t group_commit_bytes = 64 * 1024;
};

/// Statistics for benches and tests.
struct WalStats {
  std::uint64_t commits_logged = 0;
  std::uint64_t records_logged = 0;
  std::uint64_t ddl_logged = 0;
  std::uint64_t epochs_logged = 0;
  std::uint64_t bytes_logged = 0;
  std::uint64_t syncs = 0;
  std::uint64_t rotations = 0;
  std::uint64_t checkpoints = 0;
};

/// What recover() did.
struct RecoveryInfo {
  Lsn checkpoint_lsn = 0;  // 0 when no checkpoint was found
  Lsn last_lsn = 0;        // highest LSN restored (checkpoint or replay)
  bool used_checkpoint = false;
  std::size_t transactions_replayed = 0;
  std::size_t records_replayed = 0;  // DML records applied
  std::size_t ddl_replayed = 0;
  std::size_t segments_scanned = 0;
  std::size_t records_discarded = 0;   // DML of transactions without a commit
  std::uint64_t bytes_truncated = 0;   // torn tail repaired on the device
  std::uint64_t last_epoch = 0;  // highest kEpoch record past the checkpoint
};

/// Rebuild `db` (which must be empty) from the device: restore the latest
/// valid checkpoint, then replay every committed unit past it, and cut the
/// log at its committed end — the last complete transaction before the
/// first torn frame — exactly as WalManager::open() would. Safe to run on an
/// empty device (yields an empty database). A listed wal segment that cannot
/// be read is an error and nothing is repaired. Attach a WalManager
/// afterwards to resume logging.
Result<RecoveryInfo> recover(LogDevice& device, Database& db);

/// Materializes a checkpoint snapshot document into an empty database. The
/// default is restore_database (the db/dump full-snapshot format); the
/// storage engine substitutes a handler that also understands its manifest
/// format ("osprey-db-manifest-v1", storage/manifest.h).
using SnapshotRestorer = std::function<Status(Database&, const json::Value&)>;

/// recover() with a custom checkpoint restorer. The restorer runs once,
/// before tail replay: with the newest intact checkpoint's snapshot, or with
/// a null value when the device holds none (replay then starts at the log's
/// first record). It may register engine state (sorted runs, memtable
/// images) that replayed records then read through. Only a torn checkpoint
/// is passed over for an older one: a checkpoint segment that cannot be read
/// fails recover() before the restorer runs, with nothing repaired.
Result<RecoveryInfo> recover(LogDevice& device, Database& db,
                             const SnapshotRestorer& restore_snapshot);

/// The redo-log writer. Implements CommitObserver: once attached to a
/// Database, every committing transaction is encoded, appended, and (per the
/// durability policy) synced before commit() returns — and a transaction
/// whose records cannot be made durable is rolled back instead of
/// acknowledged. DDL is logged immediately.
class WalManager : public CommitObserver {
 public:
  explicit WalManager(LogDevice& device, WalOptions options = {});

  /// Scan the device: find the committed end of the log, cut it there as
  /// recover() does (failing, with nothing repaired, on an unreadable
  /// segment), and position the writer after the last committed LSN. Call
  /// once before attach().
  Status open();

  /// Install this WAL as `db`'s commit observer. The manager must outlive
  /// the attachment; detach() (or destroying the database first) ends it.
  void attach(Database& db);
  void detach();

  // CommitObserver:
  Status on_commit(Database& db, const std::vector<UndoRecord>& journal) override;
  Status on_create_table(const Table& table) override;
  Status on_drop_table(const std::string& name) override;
  Status on_create_index(const std::string& table,
                         const std::string& spec) override;

  /// Sync any unsynced appends (group-commit tail).
  Status flush();

  /// Write a snapshot of `db` as a checkpoint segment, then delete the wal
  /// segments and older checkpoints it covers. Returns the checkpoint LSN.
  /// On failure the old log is left intact.
  Result<Lsn> checkpoint(Database& db);

  /// Replace the checkpoint snapshot builder (default: db/dump
  /// dump_database). The storage engine installs a builder that emits a
  /// manifest referencing its live sorted runs plus the memtable images, so
  /// checkpoints are O(memtable + run count) instead of O(dataset). Called
  /// under the database and wal locks.
  using SnapshotProvider = std::function<json::Value(Database&)>;
  void set_snapshot_provider(SnapshotProvider provider);

  /// Hook run after a checkpoint is durable and the covered wal segments are
  /// deleted. The storage engine garbage-collects compacted-away runs here —
  /// they must outlive the last manifest that references them.
  using CheckpointHook = std::function<void(Lsn)>;
  void set_post_checkpoint_hook(CheckpointHook hook);

  /// Append a kEpoch record announcing a replication leadership epoch, and
  /// force it durable (epochs are rare and fence correctness hangs on them).
  /// Returns the record's LSN.
  Result<Lsn> log_epoch(std::uint64_t epoch);

  Lsn next_lsn() const;
  WalStats stats() const;
  const WalOptions& options() const { return options_; }

 private:
  Status append_frames_locked(const std::string& frames, Lsn first_lsn);
  Status maybe_sync_locked(bool force);
  Status rotate_locked(Lsn first_lsn);

  LogDevice& device_;
  WalOptions options_;
  Database* db_ = nullptr;
  SnapshotProvider snapshot_provider_;
  CheckpointHook post_checkpoint_hook_;
  mutable std::mutex mutex_;
  Lsn next_lsn_ = 1;
  std::string segment_;          // current wal segment ("" until first append)
  std::uint64_t segment_size_ = 0;
  std::size_t unsynced_commits_ = 0;
  std::uint64_t unsynced_bytes_ = 0;
  WalStats stats_;
};

// ---------------------------------------------------------------------------
// Tail reading

/// A batch of committed records read from the log tail, ready to ship to a
/// replica. `records` holds only *complete committed units* — a transaction's
/// DML plus its commit marker, or a self-committing DDL / epoch record —
/// never a partial transaction. `frames` is the same sequence re-encoded as
/// raw wire frames (no segment headers), so a follower can append them to
/// its own log verbatim.
struct CursorBatch {
  Lsn first_lsn = 0;  // 0 when the batch is empty (caught up)
  Lsn last_lsn = 0;
  std::size_t transactions = 0;  // committed units in the batch
  std::vector<Record> records;
  std::string frames;

  bool empty() const { return records.empty(); }
};

/// Read-only cursor over a WAL device: yields committed records from a given
/// LSN onward without replaying them into a database. This is the shipper's
/// view of the log — recover() remains the only consumer that materializes
/// state. It reads the log with the same committed-unit walk as recover()
/// and WalManager::open(), so all three agree on where the committed log
/// ends, but it never repairs: an un-synced or torn tail simply reads as
/// end-of-log, and so does a segment removed since the call listed it. The
/// cursor re-lists segments on every call, so it tolerates rotation and
/// concurrent appends. If a checkpoint has truncated the log
/// past the cursor's position, next() returns kNotFound: the reader must
/// re-bootstrap from the checkpoint instead of tailing.
class WalCursor {
 public:
  /// Start reading at `from` (deliver records with LSN >= from).
  WalCursor(LogDevice& device, Lsn from = 1);

  /// Read up to ~`max_records` records of complete committed units (a unit is
  /// never split, so a batch may exceed the cap by one transaction). An empty
  /// batch means the cursor is caught up with the committed tail.
  Result<CursorBatch> next(std::size_t max_records);

  /// The next LSN this cursor will deliver.
  Lsn position() const { return position_; }
  void seek(Lsn from) { position_ = from; }

 private:
  LogDevice& device_;
  Lsn position_;
};

}  // namespace osprey::db::wal
