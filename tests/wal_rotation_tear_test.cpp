// Torn-tail fuzz at a segment-rotation boundary (ISSUE 9 satellite).
//
// The nastiest torn-write position is the first record of a freshly rotated
// segment: the cut can land inside the 16-byte segment header (the segment
// carries no information and must be dropped whole), exactly at the header
// boundary (a legal, empty segment the writer must resume into), or inside
// the first record frame (truncate back to the header). The generic torn-
// tail fuzz in wal_test.cpp sweeps cuts within one segment; here every
// byte-level cut of the *newest* segment of a multi-segment log is swept,
// plus the SimLogDevice torn-tail fault-point variant where the tear comes
// from a power-loss magnitude rather than direct disk surgery. After every
// cut: recovery must succeed, rebuild exactly a committed prefix, leave the
// device writable (a fresh manager resumes with dense LSNs), and a second
// crash-recovery must agree.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/db/database.h"
#include "osprey/db/dump.h"
#include "osprey/db/expr.h"
#include "osprey/db/wal.h"
#include "osprey/repl/node.h"
#include "osprey/storage/engine.h"

namespace osprey::db::wal {
namespace {

Schema task_schema() {
  return Schema({
      {"eq_task_id", ColumnType::kInt, false, true},
      {"status", ColumnType::kText, false, false},
  });
}

Status apply_txn(Database& db, int i) {
  Table* tasks = db.table("tasks");
  Transaction txn(db);
  auto inserted = tasks->insert(
      Row{Value(std::int64_t{i}), Value("queued-" + std::to_string(i))});
  if (!inserted.ok()) return inserted.error();
  return txn.commit();
}

std::string dump_str(const Database& db) { return dump_database(db).dump(); }

// The campaign's dumps after 0..txns committed transactions, from a shadow
// un-logged database.
std::vector<std::string> shadow_snapshots(int txns) {
  std::vector<std::string> snaps;
  Database db;
  EXPECT_TRUE(db.create_table("tasks", task_schema()).ok());
  snaps.push_back(dump_str(db));
  for (int i = 1; i <= txns; ++i) {
    EXPECT_TRUE(apply_txn(db, i).is_ok());
    snaps.push_back(dump_str(db));
  }
  return snaps;
}

constexpr std::size_t kHeaderBytes = 16;  // "OSPWALv1" + u64 first LSN

// Run a fully-synced campaign with tiny segments so the log rotates often,
// and return the surviving disk.
std::shared_ptr<SimDisk> logged_campaign(int txns) {
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  WalOptions options;
  options.segment_bytes = 160;  // every txn or two rotates
  WalManager manager(device, options);
  EXPECT_TRUE(manager.open().is_ok());
  manager.attach(db);
  EXPECT_TRUE(db.create_table("tasks", task_schema()).ok());
  for (int i = 1; i <= txns; ++i) {
    EXPECT_TRUE(apply_txn(db, i).is_ok()) << i;
  }
  manager.detach();
  EXPECT_GT(disk->segments.size(), 3u);  // genuinely multi-segment
  return disk;
}

std::string newest_wal_segment(const SimDisk& disk) {
  std::string newest;
  for (const auto& [name, bytes] : disk.segments) {
    (void)bytes;
    if (name.rfind("wal-", 0) == 0 && name > newest) newest = name;
  }
  return newest;
}

TEST(WalRotationTearTest, EveryByteCutOfTheFreshSegmentRecoversACommittedPrefix) {
  constexpr int kTxns = 24;
  std::vector<std::string> snaps = shadow_snapshots(kTxns);
  std::shared_ptr<SimDisk> master = logged_campaign(kTxns);
  std::string newest = newest_wal_segment(*master);
  ASSERT_FALSE(newest.empty());
  const std::string full = master->segments.at(newest);
  ASSERT_GE(full.size(), kHeaderBytes);

  // How many transactions live in segments *before* the newest: the dump a
  // cut inside the newest segment's header must fall back to.
  std::size_t prior_index = 0;
  {
    auto headerless = std::make_shared<SimDisk>(*master);
    headerless->segments.erase(newest);
    SimLogDevice device(headerless);
    Database db;
    Result<RecoveryInfo> info = recover(device, db);
    ASSERT_TRUE(info.ok());
    std::string dump = dump_str(db);
    while (prior_index < snaps.size() && snaps[prior_index] != dump) {
      ++prior_index;
    }
    ASSERT_LT(prior_index, snaps.size()) << "prefix dump not a snapshot";
    ASSERT_LT(prior_index, static_cast<std::size_t>(kTxns));
  }

  std::size_t last_matched = 0;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    auto disk = std::make_shared<SimDisk>(*master);
    disk->segments[newest] = full.substr(0, cut);
    const SimDisk unrepaired = *disk;
    SimLogDevice device(disk);
    Database db;
    Result<RecoveryInfo> info = recover(device, db);
    ASSERT_TRUE(info.ok()) << "cut=" << cut << ": " << info.error().message;
    std::string dump = dump_str(db);
    const Lsn last_lsn = info.value().last_lsn;

    // All three log readers agree on where the committed log ends. A
    // read-only cursor over the unrepaired log delivers exactly up to
    // recover()'s last LSN and changes nothing on the disk...
    {
      auto copy = std::make_shared<SimDisk>(unrepaired);
      SimLogDevice copy_device(copy);
      WalCursor cursor(copy_device, 1);
      Lsn delivered = 0;
      while (true) {
        Result<CursorBatch> batch = cursor.next(64);
        ASSERT_TRUE(batch.ok()) << "cut=" << cut;
        if (batch.value().empty()) break;
        delivered = batch.value().last_lsn;
      }
      EXPECT_EQ(delivered, last_lsn) << "cut=" << cut;
      EXPECT_TRUE(copy->segments == unrepaired.segments) << "cut=" << cut;
    }
    // ...and a writer opened on the unrepaired log makes the same repair
    // recover() made, byte for byte, and resumes right after last_lsn.
    {
      auto copy = std::make_shared<SimDisk>(unrepaired);
      SimLogDevice copy_device(copy);
      WalManager opened(copy_device);
      ASSERT_TRUE(opened.open().is_ok()) << "cut=" << cut;
      EXPECT_TRUE(copy->segments == disk->segments) << "cut=" << cut;
      EXPECT_EQ(opened.next_lsn(), last_lsn + 1) << "cut=" << cut;
    }

    // The recovered state is exactly some committed prefix...
    std::size_t matched = snaps.size();
    for (std::size_t j = 0; j < snaps.size(); ++j) {
      if (snaps[j] == dump) {
        matched = j;
        break;
      }
    }
    ASSERT_LT(matched, snaps.size()) << "cut=" << cut << " not a prefix";
    // ...never ahead of what the uncut log held, never behind the intact
    // prior segments, and monotone in the cut position.
    EXPECT_GE(matched, prior_index) << "cut=" << cut;
    EXPECT_GE(matched, last_matched) << "cut=" << cut << " went backwards";
    last_matched = matched;
    if (cut < kHeaderBytes) {
      EXPECT_EQ(matched, prior_index)
          << "cut=" << cut << " inside the header yielded tail records";
    }
    if (cut == full.size()) {
      EXPECT_EQ(matched, static_cast<std::size_t>(kTxns));
    }

    // The repaired device must accept a resumed writer: dense LSNs, a fresh
    // commit, and a second recovery that sees it.
    WalManager resumed(device);
    ASSERT_TRUE(resumed.open().is_ok()) << "cut=" << cut;
    resumed.attach(db);
    ASSERT_TRUE(apply_txn(db, 1000 + static_cast<int>(cut)).is_ok());
    std::string after = dump_str(db);
    resumed.detach();
    SimLogDevice device2(disk);
    Database db2;
    ASSERT_TRUE(recover(device2, db2).ok()) << "cut=" << cut;
    EXPECT_EQ(dump_str(db2), after) << "cut=" << cut;
  }
  EXPECT_EQ(last_matched, static_cast<std::size_t>(kTxns));
}

TEST(WalRotationTearTest, PowerLossTearOnAFreshSegmentViaTheFaultPoint) {
  // Group commit holds the fresh segment's header + first records in the
  // volatile cache; the wal.torn_tail fault lets only a magnitude-sized
  // prefix reach the medium at power loss. Sweep magnitudes so the tear
  // lands inside the header, at its boundary, and inside the first frame.
  constexpr int kBefore = 10;
  std::vector<std::string> snaps = shadow_snapshots(kBefore + 2);
  for (int percent = 1; percent <= 99; percent += 7) {
    ManualClock clock;
    FaultRegistry faults(clock, 29);
    auto disk = std::make_shared<SimDisk>();
    SimLogDevice device(disk, &faults);
    Database db;
    WalOptions options;
    options.segment_bytes = 160;
    options.group_commit_txns = 0;  // commits never sync; flush() is explicit
    WalManager manager(device, options);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    ASSERT_TRUE(db.create_table("tasks", task_schema()).ok());
    for (int i = 1; i <= kBefore; ++i) {
      ASSERT_TRUE(apply_txn(db, i).is_ok());
    }
    ASSERT_TRUE(manager.flush().is_ok());  // durable prefix: kBefore txns
    // The next two txns stay in the volatile cache, landing in a fresh
    // segment forced by the small segment budget, then the lights go out.
    ASSERT_TRUE(apply_txn(db, kBefore + 1).is_ok());
    ASSERT_TRUE(apply_txn(db, kBefore + 2).is_ok());
    faults.set_active(fault_point::wal_torn_tail(), true);
    faults.set_magnitude(fault_point::wal_torn_tail(), percent / 100.0);
    device.crash();
    manager.detach();

    SimLogDevice after(disk);
    Database recovered;
    Result<RecoveryInfo> info = recover(after, recovered);
    ASSERT_TRUE(info.ok()) << "magnitude=" << percent;
    std::string dump = dump_str(recovered);
    bool is_prefix = false;
    for (int j = kBefore; j <= kBefore + 2; ++j) {
      if (snaps[static_cast<std::size_t>(j)] == dump) is_prefix = true;
    }
    EXPECT_TRUE(is_prefix) << "magnitude=" << percent
                           << ": not a committed prefix of the campaign";
  }
}

// --- unreadable segments ---------------------------------------------------
//
// A listed segment the walk cannot read is never a torn tail to cut: the
// repairing readers fail with the disk untouched, and the read-only cursor
// stops before it.

std::vector<std::string> wal_segments(const SimDisk& disk) {
  std::vector<std::string> wal;
  for (const auto& [name, bytes] : disk.segments) {
    (void)bytes;
    if (name.rfind("wal-", 0) == 0) wal.push_back(name);
  }
  return wal;
}

// A device on which one listed segment cannot be read: `code` kNotFound is
// what a segment removed since list() reads as, kUnavailable an I/O error.
class UnreadableSegmentDevice : public SimLogDevice {
 public:
  UnreadableSegmentDevice(std::shared_ptr<SimDisk> disk, std::string segment,
                          ErrorCode code)
      : SimLogDevice(std::move(disk)),
        segment_(std::move(segment)),
        code_(code) {}

  Result<std::string> read(const std::string& segment) override {
    if (segment == segment_) {
      return Error(code_, "cannot read '" + segment + "'");
    }
    return SimLogDevice::read(segment);
  }

 private:
  std::string segment_;
  ErrorCode code_;
};

TEST(WalRotationTearTest, AnUnreadableSegmentFailsRecoveryAndOpenUnrepaired) {
  // Skipping an unreadable middle segment would replay later segments past
  // the hole (losing acknowledged transactions); skipping the newest would
  // resume the writer in the previous segment and reissue the LSNs the
  // unreadable one holds. Both repairing readers must fail instead and
  // leave every byte on the disk as it was.
  std::shared_ptr<SimDisk> master = logged_campaign(24);
  const std::vector<std::string> wal = wal_segments(*master);
  ASSERT_GT(wal.size(), 3u);
  for (const std::string& unreadable : {wal[wal.size() / 2], wal.back()}) {
    for (ErrorCode code : {ErrorCode::kNotFound, ErrorCode::kUnavailable}) {
      SCOPED_TRACE(unreadable + " code " +
                   std::to_string(static_cast<int>(code)));
      {
        auto disk = std::make_shared<SimDisk>(*master);
        UnreadableSegmentDevice device(disk, unreadable, code);
        Database db;
        EXPECT_FALSE(recover(device, db).ok());
        EXPECT_TRUE(disk->segments == master->segments);
      }
      {
        auto disk = std::make_shared<SimDisk>(*master);
        UnreadableSegmentDevice device(disk, unreadable, code);
        WalManager manager(device);
        EXPECT_FALSE(manager.open().is_ok());
        EXPECT_TRUE(disk->segments == master->segments);
      }
    }
  }
}

TEST(WalRotationTearTest, TheCursorNeverDeliversPastAVanishedSegment) {
  // A segment removed under a read-only cursor ends its batch: the units
  // before the hole are delivered, none after it, and nothing is repaired.
  // An I/O error on the segment is returned instead.
  std::shared_ptr<SimDisk> master = logged_campaign(24);
  const std::vector<std::string> wal = wal_segments(*master);
  ASSERT_GT(wal.size(), 3u);
  const std::string hole = wal[wal.size() / 2];
  const auto first_lsn = [](const std::string& name) {
    return static_cast<Lsn>(std::stoull(name.substr(4), nullptr, 16));
  };

  auto disk = std::make_shared<SimDisk>(*master);
  UnreadableSegmentDevice device(disk, hole, ErrorCode::kNotFound);
  WalCursor cursor(device, 1);
  Lsn delivered = 0;
  while (true) {
    Result<CursorBatch> batch = cursor.next(4);
    ASSERT_TRUE(batch.ok()) << batch.error().message;
    if (batch.value().empty()) break;
    EXPECT_EQ(batch.value().first_lsn, delivered + 1);
    delivered = batch.value().last_lsn;
  }
  EXPECT_EQ(delivered + 1, first_lsn(hole));
  EXPECT_TRUE(disk->segments == master->segments);

  UnreadableSegmentDevice failing(disk, hole, ErrorCode::kUnavailable);
  WalCursor failing_cursor(failing, first_lsn(hole));
  EXPECT_FALSE(failing_cursor.next(4).ok());
}

TEST(FileLogDeviceTest, OnlyAMissingFileReadsAsNotFound) {
  // Any other open failure leaves the segment on disk, so it must not read
  // as a segment a checkpoint removed.
  const std::string dir = "/tmp/osprey_wal_open_errors";
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
  {
    FileLogDevice device(dir);
    const std::string missing = wal_segment_name(1);
    const std::string too_long(300, 'w');  // ENAMETOOLONG
    EXPECT_EQ(device.read(missing).error().code, ErrorCode::kNotFound);
    EXPECT_EQ(device.read_range(missing, 0, 8).error().code,
              ErrorCode::kNotFound);
    EXPECT_EQ(device.read(too_long).error().code, ErrorCode::kUnavailable);
    EXPECT_EQ(device.read_range(too_long, 0, 8).error().code,
              ErrorCode::kUnavailable);
  }
  std::system(("rm -rf " + dir).c_str());
}

// --- unreadable checkpoints ------------------------------------------------
//
// Only a torn checkpoint may be passed over for an older one. One that
// cannot be read may have deleted the older checkpoints and the log
// segments it covers when it was written, so every repairing reader fails
// with the disk untouched instead of recovering a database that never
// existed.

std::string checkpoint_segment(const SimDisk& disk) {
  for (const auto& [name, bytes] : disk.segments) {
    (void)bytes;
    if (name.rfind("ckpt-", 0) == 0) return name;
  }
  return "";
}

TEST(WalRotationTearTest, AnUnreadableCheckpointFailsRecoveryUnrepaired) {
  // Table `old`, a checkpoint, then table `tasks` with three commits: a
  // fallback past the checkpoint would "recover" `tasks` without `old`.
  auto master = std::make_shared<SimDisk>();
  {
    SimLogDevice device(master);
    Database db;
    WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    ASSERT_TRUE(db.create_table("old", task_schema()).ok());
    ASSERT_TRUE(manager.checkpoint(db).ok());
    ASSERT_TRUE(db.create_table("tasks", task_schema()).ok());
    for (int i = 1; i <= 3; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
  }
  const std::string ckpt = checkpoint_segment(*master);
  ASSERT_FALSE(ckpt.empty());
  for (ErrorCode code : {ErrorCode::kNotFound, ErrorCode::kUnavailable}) {
    SCOPED_TRACE(static_cast<int>(code));
    auto disk = std::make_shared<SimDisk>(*master);
    UnreadableSegmentDevice device(disk, ckpt, code);
    Database db;
    Result<RecoveryInfo> info = recover(device, db);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.code(), code);
    EXPECT_TRUE(disk->segments == master->segments);
  }
  // Readable, the same disk recovers both tables.
  auto disk = std::make_shared<SimDisk>(*master);
  SimLogDevice device(disk);
  Database db;
  ASSERT_TRUE(recover(device, db).ok());
  EXPECT_NE(db.table("old"), nullptr);
  EXPECT_EQ(db.table("tasks")->row_count(), 3u);
}

TEST(WalRotationTearTest, StorageRecoveryFailsOnAnUnreadableManifestKeepingRuns) {
  // The manifest pins runs; runs flushed after it hold tail data. Before the
  // checkpoint was read once, a failed read left the orphan GC an empty
  // reference set, and it deleted every run.
  storage::StorageOptions opts;
  opts.memtable_bytes = 1024;  // a handful of rows per run
  opts.block_bytes = 512;
  auto master = std::make_shared<SimDisk>();
  std::string expected;
  {
    SimLogDevice device(master);
    storage::StorageEngine engine(device, opts);
    Database db;
    ASSERT_TRUE(engine.attach(db).is_ok());
    WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    engine.install(manager);
    ASSERT_TRUE(db.create_table("tasks", task_schema()).ok());
    for (int i = 1; i <= 40; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    ASSERT_TRUE(manager.checkpoint(db).ok());
    for (int i = 41; i <= 80; ++i) ASSERT_TRUE(apply_txn(db, i).is_ok());
    expected = dump_str(db);
  }
  const std::string ckpt = checkpoint_segment(*master);
  ASSERT_FALSE(ckpt.empty());
  std::size_t runs = 0;
  for (const auto& [name, bytes] : master->segments) {
    (void)bytes;
    if (name.rfind("sst-", 0) == 0) ++runs;
  }
  ASSERT_GT(runs, 1u);
  for (ErrorCode code : {ErrorCode::kNotFound, ErrorCode::kUnavailable}) {
    SCOPED_TRACE(static_cast<int>(code));
    auto disk = std::make_shared<SimDisk>(*master);
    UnreadableSegmentDevice device(disk, ckpt, code);
    storage::StorageEngine engine(device, opts);
    Database db;
    EXPECT_FALSE(engine.recover(db).ok());
    EXPECT_TRUE(disk->segments == master->segments);
  }
  auto disk = std::make_shared<SimDisk>(*master);
  SimLogDevice device(disk);
  storage::StorageEngine engine(device, opts);
  Database db;
  ASSERT_TRUE(engine.recover(db).ok());
  EXPECT_EQ(dump_str(db), expected);
}

TEST(WalRotationTearTest, ReplicaRestartFailsOnAnUnreadableCheckpointUnrepaired) {
  // A replica owns its device, so the fault lives on its disk.
  ManualClock clock;
  repl::ReplicaNode leader("lead", "site-a", clock);
  ASSERT_TRUE(leader.init_leader(1).is_ok());
  repl::ReplicaNode follower("f1", "site-b", clock);
  ASSERT_TRUE(follower
                  .bootstrap(dump_database(leader.database()),
                             leader.applied_lsn(), 1)
                  .is_ok());
  follower.crash();
  const std::string ckpt = checkpoint_segment(*follower.disk());
  ASSERT_FALSE(ckpt.empty());
  const std::map<std::string, std::string> before = follower.disk()->segments;
  for (ErrorCode code : {ErrorCode::kNotFound, ErrorCode::kUnavailable}) {
    SCOPED_TRACE(static_cast<int>(code));
    follower.disk()->unreadable[ckpt] = code;
    EXPECT_FALSE(follower.recover_from_disk().ok());
    EXPECT_TRUE(follower.disk()->segments == before);
  }
  follower.disk()->unreadable.clear();
  ASSERT_TRUE(follower.recover_from_disk().ok());
  EXPECT_EQ(dump_str(follower.database()), dump_str(leader.database()));
}

}  // namespace
}  // namespace osprey::db::wal
