// Group commit under real threads (db/wal, DESIGN.md §5.7): commits log
// under the database mutex and wait for durability after releasing it, one
// sync covering every commit appended before it began.
//
// Every test commits from four threads onto a SimLogDevice whose sync
// spins outside the device mutex, so commits pile up behind a sync in
// flight. They check that syncs are shared, that a crash mid-run recovers a
// prefix holding every acknowledged commit and every value a reader saw,
// and that a failed sync with waiters queued rolls the whole unsynced group
// back, errors every waiter and hangs none.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "osprey/db/database.h"
#include "osprey/db/dump.h"
#include "osprey/db/sql_exec.h"
#include "osprey/db/wal.h"

namespace osprey::db::wal {
namespace {

constexpr int kThreads = 4;
constexpr std::uint64_t kSyncSpin = 200000;

std::string dump_str(const Database& db) { return dump_database(db).dump(); }

// t holds one row per commit; `ord` is the commit's position in log order,
// taken from the counter row under the database mutex.
void create_schema(sql::Connection& conn) {
  ASSERT_TRUE(conn.execute("CREATE TABLE t (ord INTEGER PRIMARY KEY, "
                           "writer INTEGER, seq INTEGER)")
                  .ok());
  ASSERT_TRUE(conn.execute("CREATE TABLE counter (k INTEGER PRIMARY KEY, "
                           "n INTEGER)")
                  .ok());
  ASSERT_TRUE(conn.execute("INSERT INTO counter VALUES (0, 0)").ok());
}

// One commit: bump the counter and insert the row it numbers. Returns the
// row's ord, or the commit's error.
Result<std::int64_t> commit_one(Database& db, sql::Connection& conn,
                                int writer, int seq) {
  Transaction txn(db);
  auto n = conn.execute("SELECT n FROM counter WHERE k = 0");
  if (!n.ok()) return n.error();
  const std::int64_t ord = n.value().rows[0][0].as_int() + 1;
  auto bump = conn.execute("UPDATE counter SET n = ? WHERE k = 0", {Value(ord)});
  if (!bump.ok()) return bump.error();
  auto ins = conn.execute("INSERT INTO t VALUES (?, ?, ?)",
                          {Value(ord), Value(std::int64_t{writer}),
                           Value(std::int64_t{seq})});
  if (!ins.ok()) return ins.error();
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  return ord;
}

std::vector<std::int64_t> ords_of(Database& db) {
  sql::Connection conn(db);
  auto rows = conn.execute("SELECT ord FROM t ORDER BY ord");
  EXPECT_TRUE(rows.ok());
  std::vector<std::int64_t> out;
  if (!rows.ok()) return out;
  for (const Row& r : rows.value().rows) out.push_back(r[0].as_int());
  return out;
}

TEST(WalGroupCommitTest, ConcurrentCommitsShareSyncs) {
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  device.set_sync_spin(kSyncSpin);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  {
    sql::Connection conn(db);
    create_schema(conn);
  }
  const WalStats before = manager.stats();
  // Hold the run's first sync open until two more commits have appended
  // behind it; those two then share the next sync, however the threads
  // are scheduled (a sanitizer can slow a commit past the spin).
  std::atomic<bool> held{false};
  device.set_sync_hook([&] {
    if (held.exchange(true)) return;
    const std::uint64_t start = device.appends();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (device.appends() < start + 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });

  constexpr int kPerThread = 150;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      sql::Connection conn(db);
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(commit_one(db, conn, w, i).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  device.set_sync_hook(nullptr);

  const WalStats after = manager.stats();
  const std::uint64_t commits = after.commits_logged - before.commits_logged;
  const std::uint64_t syncs = after.syncs - before.syncs;
  EXPECT_EQ(commits, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_LT(syncs, commits) << "no commit shared a sync";
  EXPECT_EQ(manager.durable_lsn(), manager.next_lsn() - 1);
  manager.detach();

  // Every acknowledged commit was synced before it returned.
  device.crash();
  SimLogDevice after_crash(disk);
  Database recovered;
  ASSERT_TRUE(recover(after_crash, recovered).ok());
  EXPECT_EQ(dump_str(recovered), dump_str(db));
}

TEST(WalGroupCommitTest, CrashMidRunRecoversAPrefixWithEveryAcknowledgedCommit) {
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  device.set_sync_spin(kSyncSpin);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  {
    sql::Connection conn(db);
    create_schema(conn);
  }

  std::mutex seen_mutex;
  std::vector<std::int64_t> acknowledged;  // ords whose commit returned ok
  std::vector<std::int64_t> read_back;     // counter values a reader returned
  std::atomic<int> acked{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads - 1; ++w) {
    threads.emplace_back([&, w] {
      sql::Connection conn(db);
      for (int i = 0; !stop.load(std::memory_order_acquire); ++i) {
        Result<std::int64_t> ord = commit_one(db, conn, w, i);
        if (!ord.ok()) return;  // the device died
        std::lock_guard<std::mutex> guard(seen_mutex);
        acknowledged.push_back(ord.value());
        acked.fetch_add(1, std::memory_order_release);
      }
    });
  }
  // A reader: a statement that read a commit not yet durable waits for it,
  // so whatever it returns must survive the crash.
  threads.emplace_back([&] {
    sql::Connection conn(db);
    while (!stop.load(std::memory_order_acquire)) {
      auto n = conn.execute("SELECT n FROM counter WHERE k = 0");
      if (!n.ok()) return;
      std::lock_guard<std::mutex> guard(seen_mutex);
      read_back.push_back(n.value().rows[0][0].as_int());
    }
  });
  while (acked.load(std::memory_order_acquire) < 200) std::this_thread::yield();
  device.crash();  // power loss while commits and syncs are in flight
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  manager.detach();

  SimLogDevice after(disk);
  Database recovered;
  ASSERT_TRUE(recover(after, recovered).ok());
  // A prefix in log order: ords 1..k with no gap, and the counter at k.
  const std::vector<std::int64_t> ords = ords_of(recovered);
  for (std::size_t i = 0; i < ords.size(); ++i) {
    ASSERT_EQ(ords[i], static_cast<std::int64_t>(i + 1)) << "gap in the log";
  }
  const std::int64_t k = static_cast<std::int64_t>(ords.size());
  sql::Connection conn(recovered);
  auto counter = conn.execute("SELECT n FROM counter WHERE k = 0");
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(counter.value().rows[0][0].as_int(), k);
  ASSERT_GE(acknowledged.size(), 200u);
  for (std::int64_t ord : acknowledged) {
    EXPECT_LE(ord, k) << "acknowledged commit " << ord << " lost";
  }
  for (std::int64_t n : read_back) {
    EXPECT_LE(n, k) << "a reader returned counter " << n
                    << " that the crash took back";
  }
}

// A device whose next sync blocks until released and then fails, leaving
// the device alive and nothing flushed: an fsync error with committers
// queued behind it.
class HeldFailingSyncDevice : public SimLogDevice {
 public:
  using SimLogDevice::SimLogDevice;
  Status sync(const std::string& segment) override {
    if (!armed_.exchange(false)) return SimLogDevice::sync(segment);
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return Status(ErrorCode::kUnavailable, "injected sync failure");
  }
  void arm() { armed_.store(true); }
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(WalGroupCommitTest, AFailedSyncErrorsEveryWaiterAndRollsTheGroupBack) {
  auto disk = std::make_shared<SimDisk>();
  HeldFailingSyncDevice device(disk);
  Database db;
  WalManager manager(device);
  ASSERT_TRUE(manager.open().is_ok());
  manager.attach(db);
  {
    sql::Connection conn(db);
    create_schema(conn);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(commit_one(db, conn, 9, i).ok());
  }
  const std::string before = dump_str(db);
  const std::uint64_t logged_before = manager.stats().commits_logged;

  // The leader's sync hangs in the device; three more committers append
  // behind it and queue as waiters, one of them committing an explicit
  // transaction through execute("COMMIT"), whose own hold on the database
  // mutex is outstanding when the transaction commits.
  device.arm();
  std::vector<Status> results(kThreads);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    sql::Connection conn(db);
    Result<std::int64_t> ord = commit_one(db, conn, 0, 0);
    results[0] = ord.ok() ? Status::ok() : Status(ord.error());
  });
  device.wait_entered();
  for (int w = 1; w < kThreads - 1; ++w) {
    threads.emplace_back([&, w] {
      sql::Connection conn(db);
      Result<std::int64_t> ord = commit_one(db, conn, w, 0);
      results[static_cast<std::size_t>(w)] =
          ord.ok() ? Status::ok() : Status(ord.error());
    });
  }
  threads.emplace_back([&] {
    sql::Connection conn(db);
    Status out = conn.begin();
    if (out.is_ok()) {
      auto n = conn.execute("SELECT n FROM counter WHERE k = 0");
      const std::int64_t ord = n.ok() ? n.value().rows[0][0].as_int() + 1 : 0;
      auto bump = conn.execute("UPDATE counter SET n = ? WHERE k = 0",
                               {Value(ord)});
      auto ins = conn.execute("INSERT INTO t VALUES (?, 3, 0)", {Value(ord)});
      auto committed = conn.execute("COMMIT");
      out = !n.ok()          ? Status(n.error())
            : !bump.ok()     ? Status(bump.error())
            : !ins.ok()      ? Status(ins.error())
            : !committed.ok() ? Status(committed.error())
                              : Status::ok();
    }
    results[kThreads - 1] = out;
  });
  // All four commits are appended before the held sync fails.
  while (manager.stats().commits_logged < logged_before + kThreads) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  device.release();
  for (std::thread& t : threads) t.join();

  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(results[static_cast<std::size_t>(w)].code(),
              ErrorCode::kUnavailable)
        << "waiter " << w;
  }
  EXPECT_TRUE(manager.failed());
  // The next hold finds the group already undone, and the log stays closed.
  EXPECT_EQ(dump_str(db), before);
  {
    sql::Connection conn(db);
    EXPECT_EQ(commit_one(db, conn, 8, 0).code(), ErrorCode::kUnavailable);
    EXPECT_TRUE(conn.execute("SELECT n FROM counter WHERE k = 0").ok());
  }
  EXPECT_EQ(dump_str(db), before);
  manager.detach();

  device.crash();
  SimLogDevice after(disk);
  Database recovered;
  ASSERT_TRUE(recover(after, recovered).ok());
  EXPECT_EQ(dump_str(recovered), before);
}

}  // namespace
}  // namespace osprey::db::wal
