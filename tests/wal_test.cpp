// Crash-recovery harness for the write-ahead log (db/wal).
//
// The centerpiece is the kill-point matrix: for every instrumented wal fault
// point and every transaction index k, the device is killed at exactly that
// instant of the append/sync protocol and recovery must rebuild *bit
// identically* the committed prefix — snapshots[k-1] for every crash that
// precedes the durability barrier, snapshots[k] for a crash after the sync
// (durable but unacknowledged). Around it: codec round-trips and CRC
// rejection, simulated-device semantics, segment rotation, checkpoint
// truncation, group-commit durability trade-offs, torn-tail fuzzing over
// byte-level cuts and flips, and a real-file FileLogDevice round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/db/database.h"
#include "osprey/db/dump.h"
#include "osprey/db/expr.h"
#include "osprey/db/sql_exec.h"
#include "osprey/db/wal.h"

namespace osprey::db::wal {
namespace {

Schema task_schema() {
  return Schema({
      {"eq_task_id", ColumnType::kInt, false, true},
      {"status", ColumnType::kText, false, false},
      {"priority", ColumnType::kInt, true, false},
      {"score", ColumnType::kReal, true, false},
  });
}

Row make_task(std::int64_t id, const std::string& status, std::int64_t pri,
              double score) {
  return Row{Value(id), Value(status), Value(pri), Value(score)};
}

// The fixed DDL prologue every scenario starts from: two tables, one index.
void create_scenario_schema(Database& db) {
  Table* tasks = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(tasks->create_index("status").is_ok());
  ASSERT_TRUE(db.create_table("notes", Schema({
                                           {"id", ColumnType::kInt, false, true},
                                           {"text", ColumnType::kText, true, false},
                                       }))
                  .ok());
}

// The i-th transaction of the standard scenario: an insert, an update of the
// previous row, and periodically a delete — every DML shape the log records.
Status apply_txn(Database& db, int i) {
  Table* tasks = db.table("tasks");
  Table* notes = db.table("notes");
  Transaction txn(db);
  auto inserted =
      tasks->insert(make_task(i, "queued", 100 - i, 0.5 * i));
  if (!inserted.ok()) return inserted.error();
  auto note = notes->insert({Value(std::int64_t{i}),
                             Value("note " + std::to_string(i))});
  if (!note.ok()) return note.error();
  if (i > 1) {
    ScanOptions prev;
    prev.where = eq("eq_task_id", Value(std::int64_t{i - 1}));
    auto updated = tasks->update(prev, {{"status", lit(Value("running"))}});
    if (!updated.ok()) return updated.error();
  }
  if (i % 3 == 0 && i > 2) {
    ScanOptions victim;
    victim.where = eq("eq_task_id", Value(std::int64_t{i - 2}));
    auto erased = tasks->erase(victim);
    if (!erased.ok()) return erased.error();
  }
  return txn.commit();
}

std::string dump_str(const Database& db) { return dump_database(db).dump(); }

// Shadow run: the same scenario committed on an un-logged database, with a
// dump captured after the schema and after every transaction.
// snapshots[i] == state after i committed transactions.
std::vector<std::string> shadow_snapshots(int txns) {
  std::vector<std::string> snaps;
  Database db;
  create_scenario_schema(db);
  snaps.push_back(dump_str(db));
  for (int i = 1; i <= txns; ++i) {
    EXPECT_TRUE(apply_txn(db, i).is_ok());
    snaps.push_back(dump_str(db));
  }
  return snaps;
}

std::string wal_segment(Lsn first) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%016llx",
                static_cast<unsigned long long>(first));
  return buf;
}

std::string segment_header(Lsn first) {
  std::string h = "OSPWALv1";
  for (int i = 0; i < 8; ++i) {
    h.push_back(static_cast<char>((first >> (8 * i)) & 0xff));
  }
  return h;
}

// --- codec -------------------------------------------------------------------

TEST(WalCodecTest, Crc32KnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(WalCodecTest, RoundTripsEveryRecordType) {
  std::vector<Record> records;
  Record ins;
  ins.lsn = 7;
  ins.type = RecordType::kInsert;
  ins.table = "tasks";
  ins.row_id = 42;
  ins.row = {Value(std::int64_t{1}), Value("queued"), Value(nullptr),
             Value(2.25)};
  records.push_back(ins);
  Record upd = ins;
  upd.lsn = 8;
  upd.type = RecordType::kUpdate;
  upd.row[1] = Value("running");
  records.push_back(upd);
  Record del;
  del.lsn = 9;
  del.type = RecordType::kDelete;
  del.table = "tasks";
  del.row_id = 42;
  records.push_back(del);
  Record commit;
  commit.lsn = 10;
  commit.type = RecordType::kCommit;
  commit.txn_records = 3;
  records.push_back(commit);
  Record create;
  create.lsn = 11;
  create.type = RecordType::kCreateTable;
  create.table = "tasks";
  create.schema_json = schema_to_json(task_schema()).dump();
  records.push_back(create);
  Record drop;
  drop.lsn = 12;
  drop.type = RecordType::kDropTable;
  drop.table = "tasks";
  records.push_back(drop);
  Record index;
  index.lsn = 13;
  index.type = RecordType::kCreateIndex;
  index.table = "tasks";
  index.column = "status";
  records.push_back(index);

  std::string buffer;
  for (const Record& r : records) buffer += encode_record(r);

  std::size_t offset = 0;
  for (const Record& expected : records) {
    Record got;
    std::size_t frame = 0;
    ASSERT_EQ(decode_record(buffer, offset, &got, &frame), DecodeStatus::kOk);
    EXPECT_EQ(got.lsn, expected.lsn);
    EXPECT_EQ(got.type, expected.type);
    EXPECT_EQ(got.table, expected.table);
    EXPECT_EQ(got.row_id, expected.row_id);
    EXPECT_EQ(got.column, expected.column);
    EXPECT_EQ(got.schema_json, expected.schema_json);
    EXPECT_EQ(got.txn_records, expected.txn_records);
    ASSERT_EQ(got.row.size(), expected.row.size());
    for (std::size_t i = 0; i < got.row.size(); ++i) {
      EXPECT_EQ(got.row[i].compare(expected.row[i]), 0);
    }
    offset += frame;
  }
  Record end;
  std::size_t frame = 0;
  EXPECT_EQ(decode_record(buffer, offset, &end, &frame),
            DecodeStatus::kEndOfLog);
}

TEST(WalCodecTest, DetectsTornAndCorruptFrames) {
  Record r;
  r.lsn = 5;
  r.type = RecordType::kInsert;
  r.table = "tasks";
  r.row_id = 3;
  r.row = {Value(std::int64_t{3}), Value("queued"), Value(nullptr), Value(1.0)};
  std::string frame = encode_record(r);

  Record out;
  std::size_t consumed = 0;
  // Every strict prefix is a torn write, never kOk and never kCorrupt noise.
  for (std::size_t cut = 1; cut < frame.size(); ++cut) {
    EXPECT_EQ(decode_record(frame.substr(0, cut), 0, &out, &consumed),
              DecodeStatus::kTruncated)
        << "cut at " << cut;
  }
  // Any single flipped payload byte must be caught by the CRC.
  for (std::size_t pos = 8; pos < frame.size(); ++pos) {
    std::string bad = frame;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    DecodeStatus s = decode_record(bad, 0, &out, &consumed);
    EXPECT_TRUE(s == DecodeStatus::kCorrupt || s == DecodeStatus::kTruncated)
        << "flip at " << pos;
  }
}

// --- SimLogDevice ------------------------------------------------------------

TEST(SimLogDeviceTest, SyncMakesAppendsDurableAcrossCrash) {
  auto disk = std::make_shared<SimDisk>();
  {
    SimLogDevice device(disk);
    ASSERT_TRUE(device.append("wal-a", "hello ").is_ok());
    ASSERT_TRUE(device.append("wal-a", "world").is_ok());
    EXPECT_EQ(device.bytes_durable(), 0u);            // still in the cache
    EXPECT_EQ(device.read("wal-a").value(), "hello world");  // but readable
    ASSERT_TRUE(device.sync("wal-a").is_ok());
    EXPECT_EQ(device.bytes_durable(), 11u);
    ASSERT_TRUE(device.append("wal-a", " lost").is_ok());  // never synced
    device.crash();
    EXPECT_TRUE(device.dead());
    EXPECT_FALSE(device.append("wal-a", "x").is_ok());
    EXPECT_FALSE(device.read("wal-a").ok());
  }
  // A new device on the same disk sees exactly the synced prefix.
  SimLogDevice after(disk);
  EXPECT_EQ(after.read("wal-a").value(), "hello world");
  EXPECT_EQ(after.list().value(), std::vector<std::string>{"wal-a"});
}

TEST(SimLogDeviceTest, TornTailFaultKeepsAPrefixOfTheCache) {
  ManualClock clock;
  FaultRegistry faults(clock, 7);
  faults.set_active(fault_point::wal_torn_tail(), true);
  faults.set_magnitude(fault_point::wal_torn_tail(), 0.5);
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk, &faults);
  ASSERT_TRUE(device.append("wal-a", "0123456789").is_ok());
  device.crash();
  EXPECT_EQ(disk->segments.at("wal-a"), "01234");  // half the cache survived
}

// --- basic logging and recovery ---------------------------------------------

TEST(WalRecoveryTest, ReplaysCommittedTransactionsBitIdentically) {
  constexpr int kTxns = 12;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);

  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  create_scenario_schema(db);
  for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
  EXPECT_EQ(dump_str(db), snaps[kTxns]);
  EXPECT_EQ(manager.stats().commits_logged, static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(manager.stats().ddl_logged, 3u);  // 2 tables + 1 secondary index
  manager.detach();

  SimLogDevice reopened(disk);
  Database recovered;
  Result<RecoveryInfo> info = recover(reopened, recovered);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(dump_str(recovered), snaps[kTxns]);
  EXPECT_EQ(info.value().transactions_replayed,
            static_cast<std::size_t>(kTxns));
  EXPECT_FALSE(info.value().used_checkpoint);
  EXPECT_EQ(info.value().records_discarded, 0u);
  EXPECT_EQ(info.value().bytes_truncated, 0u);
  EXPECT_EQ(info.value().last_lsn, manager.next_lsn() - 1);
}

TEST(WalRecoveryTest, RolledBackTransactionsLeaveNoTrace) {
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  create_scenario_schema(db);
  ASSERT_TRUE(apply_txn(db, 1).is_ok());
  std::string committed = dump_str(db);
  {
    Transaction txn(db);
    ASSERT_TRUE(db.table("tasks")->insert(make_task(99, "queued", 0, 0)).ok());
    // destructor rolls back: the observer never sees this journal
  }
  std::uint64_t lsn_before = manager.next_lsn();
  EXPECT_EQ(dump_str(db), committed);
  EXPECT_EQ(manager.next_lsn(), lsn_before);
  manager.detach();

  SimLogDevice reopened(disk);
  Database recovered;
  ASSERT_TRUE(recover(reopened, recovered).ok());
  EXPECT_EQ(dump_str(recovered), committed);
}

TEST(WalRecoveryTest, EmptyDeviceYieldsEmptyDatabase) {
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  Result<RecoveryInfo> info = recover(device, db);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(db.table_names().empty());
  EXPECT_EQ(info.value().last_lsn, 0u);
}

TEST(WalRecoveryTest, RequiresAnEmptyDatabase) {
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  create_scenario_schema(db);
  Result<RecoveryInfo> info = recover(device, db);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.error().code, ErrorCode::kInvalidArgument);
}

TEST(WalRecoveryTest, DiscardsAnUncommittedTailAndBadCommitMarkers) {
  // Forge a log by hand: a self-committing CREATE TABLE, then one insert
  // whose commit marker lies about the transaction size — the marker frame
  // is treated as torn, the insert is discarded, the table survives.
  Record create;
  create.lsn = 1;
  create.type = RecordType::kCreateTable;
  create.table = "tasks";
  create.schema_json = schema_to_json(task_schema()).dump();
  Record ins;
  ins.lsn = 2;
  ins.type = RecordType::kInsert;
  ins.table = "tasks";
  ins.row_id = 1;
  ins.row = make_task(1, "queued", 5, 1.0);
  Record commit;
  commit.lsn = 3;
  commit.type = RecordType::kCommit;
  commit.txn_records = 2;  // wrong: the transaction logged one record

  auto disk = std::make_shared<SimDisk>();
  disk->segments[wal_segment(1)] = segment_header(1) + encode_record(create) +
                                   encode_record(ins) + encode_record(commit);
  SimLogDevice device(disk);
  Database db;
  Result<RecoveryInfo> info = recover(device, db);
  ASSERT_TRUE(info.ok());
  ASSERT_NE(db.table("tasks"), nullptr);
  EXPECT_EQ(db.table("tasks")->row_count(), 0u);
  EXPECT_EQ(info.value().ddl_replayed, 1u);
  EXPECT_EQ(info.value().transactions_replayed, 0u);
  EXPECT_GT(info.value().bytes_truncated, 0u);

  // Same shape without any marker at all: the insert is an uncommitted tail.
  auto disk2 = std::make_shared<SimDisk>();
  disk2->segments[wal_segment(1)] =
      segment_header(1) + encode_record(create) + encode_record(ins);
  SimLogDevice device2(disk2);
  Database db2;
  Result<RecoveryInfo> info2 = recover(device2, db2);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(db2.table("tasks")->row_count(), 0u);
  EXPECT_EQ(info2.value().records_discarded, 1u);
}

// --- rotation and checkpoints ------------------------------------------------

TEST(WalRecoveryTest, ReplaysAcrossRotatedSegments) {
  constexpr int kTxns = 20;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);

  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  WalOptions options;
  options.segment_bytes = 512;  // force frequent rotation
  WalManager manager(device, options);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  create_scenario_schema(db);
  for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
  EXPECT_GT(manager.stats().rotations, 2u);
  EXPECT_GT(device.list().value().size(), 2u);
  manager.detach();

  SimLogDevice reopened(disk);
  Database recovered;
  Result<RecoveryInfo> info = recover(reopened, recovered);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(dump_str(recovered), snaps[kTxns]);
  EXPECT_GT(info.value().segments_scanned, 2u);
}

TEST(WalRecoveryTest, CheckpointTruncatesTheLogAndSeedsRecovery) {
  constexpr int kBefore = 8;
  constexpr int kAfter = 5;
  std::vector<std::string> snaps = shadow_snapshots(kBefore + kAfter);

  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  create_scenario_schema(db);
  for (int i = 1; i <= kBefore; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());

  Result<Lsn> ckpt = manager.checkpoint(db);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt.value(), manager.next_lsn() - 1);
  // The covered wal segments are gone: only the checkpoint remains.
  std::vector<std::string> names = device.list().value();
  for (const std::string& name : names) {
    EXPECT_EQ(name.rfind("ckpt-", 0), 0u) << name;
  }
  // Re-checkpointing at the same LSN is fine (overwrites in place).
  ASSERT_TRUE(manager.checkpoint(db).ok());

  for (int i = kBefore + 1; i <= kBefore + kAfter; ++i) {
    ASSERT_TRUE(apply_txn(db, i).is_ok());
  }
  manager.detach();

  SimLogDevice reopened(disk);
  Database recovered;
  Result<RecoveryInfo> info = recover(reopened, recovered);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(dump_str(recovered), snaps[kBefore + kAfter]);
  EXPECT_TRUE(info.value().used_checkpoint);
  EXPECT_EQ(info.value().checkpoint_lsn, ckpt.value());
  EXPECT_EQ(info.value().transactions_replayed,
            static_cast<std::size_t>(kAfter));
}

TEST(WalRecoveryTest, WriterResumesAfterRecoveryOnTheSameDevice) {
  constexpr int kTxns = 5;
  std::vector<std::string> snaps = shadow_snapshots(kTxns + 2);

  auto disk = std::make_shared<SimDisk>();
  {
    SimLogDevice device(disk);
    Database db;
    WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    create_scenario_schema(db);
    for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    manager.detach();
  }
  // Recover, reattach a fresh manager, and keep committing: LSNs stay dense
  // and a second recovery sees the whole history.
  SimLogDevice device2(disk);
  Database db2;
  ASSERT_TRUE(recover(device2, db2).ok());
  WalManager manager2(device2);
  ASSERT_TRUE(manager2.open().is_ok());
  manager2.attach(db2);
  for (int i = kTxns + 1; i <= kTxns + 2; ++i) {
    ASSERT_TRUE(apply_txn(db2, i).is_ok());
  }
  manager2.detach();

  SimLogDevice device3(disk);
  Database db3;
  ASSERT_TRUE(recover(device3, db3).ok());
  EXPECT_EQ(dump_str(db3), snaps[kTxns + 2]);
}

// --- group commit ------------------------------------------------------------

TEST(WalGroupCommitTest, BatchesSyncsAndLosesOnlyTheUnsyncedTail) {
  constexpr int kTxns = 10;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);

  // Per-commit sync: one durability barrier per transaction (plus DDL).
  auto strict_disk = std::make_shared<SimDisk>();
  SimLogDevice strict_device(strict_disk);
  {
    Database db;
    WalManager manager(strict_device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    create_scenario_schema(db);
    for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    manager.detach();
  }
  strict_device.crash();  // nothing pending: everything was synced

  SimLogDevice strict_reopened(strict_disk);
  Database strict_recovered;
  ASSERT_TRUE(recover(strict_reopened, strict_recovered).ok());
  EXPECT_EQ(dump_str(strict_recovered), snaps[kTxns]);

  // Group commit (4 txns/sync): far fewer barriers, and a crash forfeits the
  // acknowledged-but-unsynced tail — exactly the documented trade.
  auto group_disk = std::make_shared<SimDisk>();
  SimLogDevice group_device(group_disk);
  {
    Database db;
    WalOptions options;
    options.group_commit_txns = 4;
    options.group_commit_bytes = 1 << 20;
    WalManager manager(group_device, options);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    create_scenario_schema(db);
    for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    EXPECT_EQ(manager.stats().syncs, 2u);  // after txn 4 and txn 8
    manager.detach();
  }
  EXPECT_LT(group_device.syncs(), strict_device.syncs());
  group_device.crash();  // txns 9 and 10 were acknowledged but never synced

  SimLogDevice group_reopened(group_disk);
  Database group_recovered;
  ASSERT_TRUE(recover(group_reopened, group_recovered).ok());
  EXPECT_EQ(dump_str(group_recovered), snaps[8]);

  // flush() closes the durability gap on demand.
  auto flushed_disk = std::make_shared<SimDisk>();
  SimLogDevice flushed_device(flushed_disk);
  {
    Database db;
    WalOptions options;
    options.group_commit_txns = 4;
    options.group_commit_bytes = 1 << 20;
    WalManager manager(flushed_device, options);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    create_scenario_schema(db);
    for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    ASSERT_TRUE(manager.flush().is_ok());
    manager.detach();
  }
  flushed_device.crash();
  SimLogDevice flushed_reopened(flushed_disk);
  Database flushed_recovered;
  ASSERT_TRUE(recover(flushed_reopened, flushed_recovered).ok());
  EXPECT_EQ(dump_str(flushed_recovered), snaps[kTxns]);
}

// --- a failed sync closes the log ---------------------------------------------

// A device whose next sync fails once while the device stays alive, the way
// an fsync error leaves a disk: nothing it held is flushed.
class FailNextSyncDevice : public SimLogDevice {
 public:
  using SimLogDevice::SimLogDevice;
  Status sync(const std::string& segment) override {
    if (fail_next) {
      fail_next = false;
      return Status(ErrorCode::kUnavailable, "injected sync failure");
    }
    return SimLogDevice::sync(segment);
  }
  bool fail_next = false;
};

TEST(WalTest, AFailedSyncIsNotResurrectedByALaterCommit) {
  auto disk = std::make_shared<SimDisk>();
  FailNextSyncDevice device(disk);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  sql::Connection conn(db);
  ASSERT_TRUE(conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").ok());
  ASSERT_TRUE(conn.execute("INSERT INTO t VALUES (1, 'before')").ok());
  const std::string before = dump_str(db);

  device.fail_next = true;
  Result<sql::ExecResult> failed =
      conn.execute("UPDATE t SET v = 'failed' WHERE id = 1");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(dump_str(db), before);  // rolled back in memory

  // The log failed closed: a later commit must not sync the failed
  // transaction's frames into the durable log behind the rollback.
  Result<sql::ExecResult> later = conn.execute("INSERT INTO t VALUES (2, 'later')");
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(dump_str(db), before);
  manager.detach();
  device.crash();

  SimLogDevice after(disk);
  Database recovered;
  ASSERT_TRUE(recover(after, recovered).ok());
  Database with_failed;
  {
    sql::Connection shadow(with_failed);
    ASSERT_TRUE(shadow.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").ok());
    ASSERT_TRUE(shadow.execute("INSERT INTO t VALUES (1, 'failed')").ok());
  }
  const std::string got = dump_str(recovered);
  EXPECT_TRUE(got == before || got == dump_str(with_failed)) << got;
}

// --- the kill-point matrix ---------------------------------------------------

struct KillPoint {
  const char* point;
  // Does the kill land before the durability barrier completes? If so the
  // victim transaction must vanish; otherwise it is durable even though the
  // committer saw an error (acknowledgement lost after sync).
  bool before_barrier;
};

const KillPoint kKillPoints[] = {
    {"wal.crash_before_append", true},
    {"wal.crash_after_append", true},
    {"wal.crash_before_sync", true},
    {"wal.partial_flush", true},
    {"wal.crash_after_sync", false},
};

// Run the standard scenario with the device armed to die at `point` during
// transaction k, then recover from the surviving disk. Returns the recovered
// dump (and asserts the in-memory rollback on the way).
std::string run_kill_scenario(const KillPoint& kp, int k,
                              const std::vector<std::string>& snaps) {
  ManualClock clock;
  FaultRegistry faults(clock, 0x5eed);
  auto disk = std::make_shared<SimDisk>();
  auto device = std::make_unique<SimLogDevice>(disk, &faults);
  Database db;
  WalManager manager(*device);
  EXPECT_TRUE(manager.open().is_ok());
  manager.attach(db);
  create_scenario_schema(db);
  for (int i = 1; i < k; ++i) EXPECT_TRUE(apply_txn(db, i).is_ok());

  // partial_flush needs its magnitude (fraction flushed), which the registry
  // only honours while the point is active — latch it; the device dies on the
  // first fire, so the latch cannot fire twice. One-shot arming for the rest.
  if (std::strcmp(kp.point, "wal.partial_flush") == 0) {
    faults.set_magnitude(fault_point::wal_partial_flush(), 0.5);
    faults.set_active(kp.point, true);
  } else {
    faults.fail_next(kp.point, 1);
  }
  Status doomed = apply_txn(db, k);
  EXPECT_FALSE(doomed.is_ok()) << kp.point << " txn " << k;
  EXPECT_TRUE(device->dead()) << kp.point << " txn " << k;
  // Whatever the device did, the in-memory database rolled the victim back:
  // a commit that was not made durable is never acknowledged.
  EXPECT_EQ(dump_str(db), snaps[k - 1]) << kp.point << " txn " << k;
  manager.detach();

  // "Reboot": a fresh device on the surviving medium, recovery into an
  // empty database.
  SimLogDevice after(disk);
  Database recovered;
  Result<RecoveryInfo> info = recover(after, recovered);
  EXPECT_TRUE(info.ok()) << kp.point << " txn " << k;
  return dump_str(recovered);
}

TEST(WalKillPointMatrixTest, EveryCrashPointRecoversTheCommittedPrefix) {
  constexpr int kTxns = 6;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);

  for (const KillPoint& kp : kKillPoints) {
    for (int k = 1; k <= kTxns; ++k) {
      std::string recovered = run_kill_scenario(kp, k, snaps);
      // Bit-identical to the committed prefix: snaps[k-1] when the device
      // died before the barrier, snaps[k] when it died after (durable but
      // unacknowledged — recovery may legitimately know more than the
      // crashed committer did).
      const std::string& expected = kp.before_barrier ? snaps[k - 1] : snaps[k];
      EXPECT_EQ(recovered, expected) << kp.point << " txn " << k;
    }
  }
}

TEST(WalKillPointMatrixTest, MatrixIsDeterministic) {
  constexpr int kTxns = 4;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);
  std::vector<std::string> first, second;
  for (const KillPoint& kp : kKillPoints) {
    for (int k = 1; k <= kTxns; ++k) {
      first.push_back(run_kill_scenario(kp, k, snaps));
      second.push_back(run_kill_scenario(kp, k, snaps));
    }
  }
  EXPECT_EQ(first, second);
}

// --- torn-tail fuzzing -------------------------------------------------------

TEST(WalTornTailFuzzTest, EveryCutRecoversToSomeCommittedPrefix) {
  constexpr int kTxns = 6;
  // Every externally-visible state the log ever passed through, in order:
  // empty, after each DDL, after each transaction.
  std::vector<std::string> states;
  {
    Database db;
    states.push_back(dump_str(db));
    Table* tasks = db.create_table("tasks", task_schema()).value();
    states.push_back(dump_str(db));
    ASSERT_TRUE(tasks->create_index("status").is_ok());
    states.push_back(dump_str(db));
    ASSERT_TRUE(db.create_table("notes",
                                Schema({
                                    {"id", ColumnType::kInt, false, true},
                                    {"text", ColumnType::kText, true, false},
                                }))
                    .ok());
    states.push_back(dump_str(db));
    for (int i = 1; i <= kTxns; ++i) {
      ASSERT_TRUE(apply_txn(db, i).is_ok());
      states.push_back(dump_str(db));
    }
  }
  auto is_known_state = [&](const std::string& dump) {
    for (const std::string& s : states) {
      if (s == dump) return true;
    }
    return false;
  };

  // Build the reference log.
  auto disk = std::make_shared<SimDisk>();
  {
    SimLogDevice device(disk);
    Database db;
    WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    create_scenario_schema(db);
    for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    manager.detach();
  }
  ASSERT_EQ(disk->segments.size(), 1u);
  const std::string segment_name = disk->segments.begin()->first;
  const std::string full = disk->segments.begin()->second;

  // Torn tails: every cut length (stride 3 to keep the loop count sane) must
  // recover cleanly to one of the committed prefixes.
  for (std::size_t cut = 0; cut <= full.size(); cut += 3) {
    auto torn = std::make_shared<SimDisk>();
    torn->segments[segment_name] = full.substr(0, cut);
    SimLogDevice device(torn);
    Database recovered;
    Result<RecoveryInfo> info = recover(device, recovered);
    ASSERT_TRUE(info.ok()) << "cut at " << cut;
    EXPECT_TRUE(is_known_state(dump_str(recovered))) << "cut at " << cut;
  }
  // Bit rot: a single flipped byte anywhere must still yield a committed
  // prefix (the CRC stops replay at the damaged frame).
  for (std::size_t pos = 0; pos < full.size(); pos += 7) {
    auto rotted = std::make_shared<SimDisk>();
    std::string bad = full;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    rotted->segments[segment_name] = bad;
    SimLogDevice device(rotted);
    Database recovered;
    Result<RecoveryInfo> info = recover(device, recovered);
    ASSERT_TRUE(info.ok()) << "flip at " << pos;
    EXPECT_TRUE(is_known_state(dump_str(recovered))) << "flip at " << pos;
  }
}

TEST(WalTornTailFuzzTest, GroupCommitCrashWithTornTailConvergesPastLastSync) {
  constexpr int kTxns = 10;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);

  for (double magnitude : {0.0, 0.33, 0.66, 1.0}) {
    ManualClock clock;
    FaultRegistry faults(clock, 0xbeef);
    faults.set_active(fault_point::wal_torn_tail(), true);
    faults.set_magnitude(fault_point::wal_torn_tail(), magnitude);
    auto disk = std::make_shared<SimDisk>();
    SimLogDevice device(disk, &faults);
    {
      Database db;
      WalOptions options;
      options.group_commit_txns = 4;
      options.group_commit_bytes = 1 << 20;
      WalManager manager(device, options);
      ASSERT_TRUE(manager.open().is_ok());
      manager.attach(db);
      create_scenario_schema(db);
      for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
      manager.detach();
    }
    device.crash();  // tears the unsynced tail at `magnitude`

    SimLogDevice reopened(disk);
    Database recovered;
    Result<RecoveryInfo> info = recover(reopened, recovered);
    ASSERT_TRUE(info.ok()) << "magnitude " << magnitude;
    // The last sync covered txn 8; the torn tail may add 9 and 10 but can
    // never lose committed-and-synced state or invent anything else.
    std::string dump = dump_str(recovered);
    bool ok = dump == snaps[8] || dump == snaps[9] || dump == snaps[10];
    EXPECT_TRUE(ok) << "magnitude " << magnitude;
  }
}

// --- FileLogDevice -----------------------------------------------------------

TEST(FileLogDeviceTest, RealFilesRoundTripThroughRecovery) {
  constexpr int kTxns = 5;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);
  const std::string dir = "/tmp/osprey_wal_test_files";
  std::string cleanup = "rm -rf " + dir + " && mkdir -p " + dir;
  ASSERT_EQ(std::system(cleanup.c_str()), 0);

  {
    FileLogDevice device(dir);
    Database db;
    WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    create_scenario_schema(db);
    for (int i = 1; i <= kTxns; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    ASSERT_TRUE(manager.checkpoint(db).ok());
    ASSERT_TRUE(apply_txn(db, kTxns + 1).is_ok());
    manager.detach();
  }
  {
    FileLogDevice device(dir);
    Database recovered;
    Result<RecoveryInfo> info = recover(device, recovered);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info.value().used_checkpoint);
    EXPECT_EQ(dump_str(recovered), shadow_snapshots(kTxns + 1)[kTxns + 1]);
  }
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace
}  // namespace osprey::db::wal
