// WAL durability-policy and recovery benchmarks (DESIGN.md §5).
//
// Two questions the durability design hinges on:
//  - what does a per-commit durability barrier cost versus the relaxed
//    policies, on a device with a given sync latency (simulated spin; plus
//    a real-fsync variant on a FileLogDevice, one of its rows with four
//    committing threads sharing syncs)?
//  - how does crash-recovery time grow with the committed log length, and
//    how much does a checkpoint buy?
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "osprey/db/database.h"
#include "osprey/db/expr.h"
#include "osprey/db/wal.h"

using namespace osprey;
using namespace osprey::db;
using namespace osprey::db::wal;

namespace {

Schema bench_schema() {
  return Schema({
      {"id", ColumnType::kInt, false, true},
      {"status", ColumnType::kText, false, false},
      {"score", ColumnType::kReal, true, false},
  });
}

// One committed transaction: update the single row's post-image. Constant
// database size, one DML record plus a commit marker per iteration.
void commit_once(Database& db, Table* table, RowId row, std::int64_t i) {
  Transaction txn(db);
  ScanOptions self;
  self.where = eq("id", Value(std::int64_t{1}));
  (void)table->update(self, {{"score", lit(Value(0.001 * i))}});
  (void)row;
  benchmark::DoNotOptimize(txn.commit());
}

struct SimFixture {
  explicit SimFixture(std::size_t group_txns, std::uint64_t sync_spin) {
    WalOptions options;
    options.group_commit_txns = group_txns;
    disk = std::make_shared<SimDisk>();
    device = std::make_unique<SimLogDevice>(disk);
    device->set_sync_spin(sync_spin);
    manager = std::make_unique<WalManager>(*device, options);
    (void)manager->open();
    manager->attach(db);
    table = db.create_table("bench", bench_schema()).value();
    (void)table->insert({Value(std::int64_t{1}), Value("live"), Value(0.0)});
  }
  ~SimFixture() { manager->detach(); }

  Database db;
  std::shared_ptr<SimDisk> disk;
  std::unique_ptr<SimLogDevice> device;
  std::unique_ptr<WalManager> manager;
  Table* table = nullptr;
};

// Commit throughput vs the group-commit window, on a device whose sync costs
// ~a fixed spin. group=1 is the fully-durable policy (a barrier per commit);
// larger windows amortize it.
void BM_CommitGroupWindow(benchmark::State& state) {
  SimFixture fx(static_cast<std::size_t>(state.range(0)), 20000);
  std::int64_t i = 0;
  for (auto _ : state) {
    commit_once(fx.db, fx.table, 1, ++i);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["syncs_per_1k_txns"] =
      state.iterations()
          ? 1000.0 * static_cast<double>(fx.device->syncs()) /
                static_cast<double>(state.iterations())
          : 0.0;
}
BENCHMARK(BM_CommitGroupWindow)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

struct FileFixture {
  FileFixture(const std::string& dir, std::size_t group_txns)
      : device(dir), manager(device, options_for(group_txns)) {
    (void)manager.open();
    manager.attach(db);
    table = db.create_table("bench", bench_schema()).value();
    (void)table->insert({Value(std::int64_t{1}), Value("live"), Value(0.0)});
  }
  ~FileFixture() { manager.detach(); }
  static WalOptions options_for(std::size_t group_txns) {
    WalOptions options;
    options.group_commit_txns = group_txns;
    return options;
  }

  FileLogDevice device;
  Database db;
  WalManager manager;
  Table* table = nullptr;
};

// The same comparison against a real filesystem: sync is fsync(2). The
// threaded row commits from several threads at full durability
// (group_commit_txns = 1): the fsync runs after the database lock, so
// commits appended while one is in flight share the next
// (syncs_per_commit < 1).
void BM_CommitFsyncFile(benchmark::State& state) {
  const std::string dir = "/tmp/osprey_bench_wal";
  static std::unique_ptr<FileFixture> fx;  // shared by the row's threads
  if (state.thread_index() == 0) {
    (void)std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
    fx = std::make_unique<FileFixture>(
        dir, static_cast<std::size_t>(state.range(0)));
  }
  std::int64_t i = 0;
  for (auto _ : state) {  // every thread has passed the set-up here
    commit_once(fx->db, fx->table, 1, ++i);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {  // every thread has left the loop
    const WalStats stats = fx->manager.stats();
    state.counters["syncs_per_commit"] =
        stats.commits_logged ? static_cast<double>(stats.syncs) /
                                   static_cast<double>(stats.commits_logged)
                             : 0.0;
    fx.reset();
    (void)std::system(("rm -rf " + dir).c_str());
  }
}
BENCHMARK(BM_CommitFsyncFile)->Arg(1)->Arg(64)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CommitFsyncFile)
    ->Arg(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Build a log of `txns` committed transactions and optionally checkpoint
// after `ckpt_after` of them. The workload is update-heavy over a small live
// set (like a task table being driven through its states): log length grows
// with campaign length while the snapshot stays small, which is exactly the
// asymmetry checkpoints exploit.
std::shared_ptr<SimDisk> build_log(int txns, int ckpt_after) {
  constexpr int kLiveRows = 100;
  auto disk = std::make_shared<SimDisk>();
  SimLogDevice device(disk);
  Database db;
  WalOptions options;
  options.group_commit_txns = 0;  // sync only on flush: fast log build
  WalManager manager(device, options);
  (void)manager.open();
  manager.attach(db);
  Table* table = db.create_table("bench", bench_schema()).value();
  for (int i = 1; i <= kLiveRows; ++i) {
    (void)table->insert({Value(std::int64_t{i}), Value("queued"),
                         Value(0.0)});
  }
  for (int i = 1; i <= txns; ++i) {
    Transaction txn(db);
    ScanOptions victim;
    victim.where = eq("id", Value(std::int64_t{i % kLiveRows + 1}));
    (void)table->update(victim, {{"score", lit(Value(0.001 * i))}});
    (void)txn.commit();
    if (i == ckpt_after) (void)manager.checkpoint(db);
  }
  (void)manager.flush();
  manager.detach();
  return disk;
}

// Recovery time vs committed log length (replay-only: no checkpoint).
void BM_Recovery(benchmark::State& state) {
  auto disk = build_log(static_cast<int>(state.range(0)), 0);
  for (auto _ : state) {
    SimLogDevice device(disk);
    Database db;
    benchmark::DoNotOptimize(recover(device, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Recovery)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Recovery with a checkpoint covering all but the last 100 transactions:
// cost is bounded by the snapshot + tail, not campaign length.
void BM_RecoveryFromCheckpoint(benchmark::State& state) {
  auto disk =
      build_log(static_cast<int>(state.range(0)),
                static_cast<int>(state.range(0)) - 100);
  for (auto _ : state) {
    SimLogDevice device(disk);
    Database db;
    benchmark::DoNotOptimize(recover(device, db));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecoveryFromCheckpoint)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
