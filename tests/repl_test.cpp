// The replication plane (osprey/repl): WAL shipping, read replicas, and
// leader failover over the EMEWS task database.
//
// The matrix mirrors DESIGN.md §"Replication & failover":
//  - WalCursor streams whole committed units, survives checkpoint
//    truncation by demanding a re-bootstrap, and replays bit-identically;
//  - apply_batch is idempotent by LSN (duplicates no-op, gaps reject,
//    stale epochs fence);
//  - followers bootstrap from a consistent leader snapshot and catch up;
//  - the shipping channel shrugs off dropped / duplicated / reordered
//    batches and partitions (fault plane + retry plane);
//  - a follower killed mid-catch-up restarts from its own log;
//  - leader death promotes the most-caught-up follower deterministically,
//    under an epoch that fences every straggler, preserving exactly-once
//    report_task;
//  - ReplRouter serves bounded-staleness reads off replicas and keeps
//    every write on the leader;
//  - the whole plane is observable (osprey_repl_* metrics, epoch logs);
//  - shipper and writers run concurrently (the TSan test).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/core/log.h"
#include "osprey/db/dump.h"
#include "osprey/db/wal.h"
#include "osprey/eqsql/service.h"
#include "osprey/faas/endpoint.h"
#include "osprey/json/json.h"
#include "osprey/obs/telemetry.h"
#include "osprey/repl/group.h"
#include "osprey/repl/node.h"
#include "osprey/repl/remote.h"
#include "osprey/repl/router.h"

namespace osprey::repl {
namespace {

namespace wal = db::wal;

constexpr WorkType kWork = 7;

/// Everything a single-process replication test needs, wired together.
struct Cluster {
  ManualClock clock;
  net::Network network = net::Network::testbed();
  FaultRegistry faults{clock, 0x5e91};
  ReplicationGroup group;

  explicit Cluster(ReplConfig config = {}) : group(clock, network, config) {
    network.set_fault_registry(&faults);
    group.set_fault_registry(&faults);
  }
};

std::unique_ptr<eqsql::EQSQL> api_for(ReplicaNode* node) {
  Result<std::unique_ptr<eqsql::EQSQL>> api = node->connect();
  EXPECT_TRUE(api.ok());
  return std::move(api).take();
}

/// Submit `n` tasks on the leader; claim-and-complete the first `complete_n`.
std::vector<TaskId> run_tasks(ReplicaNode* leader, int n, int complete_n,
                              const std::string& exp = "repl") {
  std::unique_ptr<eqsql::EQSQL> api = api_for(leader);
  std::vector<TaskId> ids;
  for (int i = 0; i < n; ++i) {
    Result<TaskId> id = api->submit_task(
        exp, kWork, "{\"x\":" + std::to_string(i) + "}");
    EXPECT_TRUE(id.ok());
    if (id.ok()) ids.push_back(id.value());
  }
  for (int i = 0; i < complete_n; ++i) {
    Result<std::vector<eqsql::TaskHandle>> claimed =
        api->try_query_tasks(kWork, 1);
    EXPECT_TRUE(claimed.ok());
    if (!claimed.ok() || claimed.value().empty()) break;
    EXPECT_TRUE(api->report_task(claimed.value().front().eq_task_id, kWork,
                                 "{\"y\":" + std::to_string(i) + "}")
                    .is_ok());
  }
  return ids;
}

std::string dump_of(ReplicaNode* node) {
  return db::dump_database(node->database()).dump();
}

// --- WalCursor ---------------------------------------------------------------

TEST(WalCursorTest, StreamsCommittedUnitsInOrderAndReplaysExactly) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  run_tasks(leader, 12, 6);

  wal::WalCursor cursor(leader->device(), 1);
  std::vector<wal::Record> all;
  wal::Lsn expect_next = 1;
  while (true) {
    Result<wal::CursorBatch> batch = cursor.next(8);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    // Batches are contiguous and internally dense.
    EXPECT_EQ(batch.value().first_lsn, expect_next);
    EXPECT_GE(batch.value().transactions, 1u);
    for (const wal::Record& r : batch.value().records) {
      EXPECT_EQ(r.lsn, expect_next);
      ++expect_next;
      all.push_back(r);
    }
    EXPECT_EQ(batch.value().last_lsn, expect_next - 1);
    EXPECT_EQ(cursor.position(), expect_next);
  }
  EXPECT_EQ(expect_next, leader->applied_lsn() + 1);

  // Redo-applying the stream rebuilds the leader database bit-identically.
  db::Database replayed;
  for (const wal::Record& r : all) {
    ASSERT_TRUE(wal::apply_record(replayed, r).is_ok());
  }
  EXPECT_EQ(db::dump_database(replayed).dump(), dump_of(leader));
}

TEST(WalCursorTest, NeverSplitsATransactionAcrossBatches) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  // submit_tasks writes several inserts in one transaction: a committed unit
  // wider than max_records must still arrive whole.
  std::unique_ptr<eqsql::EQSQL> api = api_for(leader);
  const wal::Lsn before = leader->applied_lsn();
  std::vector<std::string> payloads(10, "{}");
  ASSERT_TRUE(api->submit_tasks("wide", kWork, payloads).ok());

  // A cursor positioned at the transaction's first record must hand it over
  // whole: the record budget of 1 is exceeded rather than torn.
  wal::WalCursor cursor(leader->device(), before + 1);
  Result<wal::CursorBatch> wide = cursor.next(1);
  ASSERT_TRUE(wide.ok());
  ASSERT_FALSE(wide.value().empty());
  EXPECT_GT(wide.value().records.size(), 1u);
  EXPECT_EQ(wide.value().transactions, 1u);
  EXPECT_EQ(wide.value().last_lsn, leader->applied_lsn());
}

TEST(WalCursorTest, CheckpointTruncationPastCursorDemandsRebootstrap) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  run_tasks(leader, 8, 8);
  ASSERT_TRUE(leader->wal()->checkpoint(leader->database()).ok());
  run_tasks(leader, 2, 0);

  // A cursor behind the checkpoint cannot be served from the log anymore.
  wal::WalCursor stale(leader->device(), 2);
  Result<wal::CursorBatch> batch = stale.next(64);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.code(), ErrorCode::kNotFound);

  // A cursor past it still streams the tail.
  wal::WalCursor fresh(leader->device(), leader->applied_lsn());
  Result<wal::CursorBatch> tail = fresh.next(64);
  ASSERT_TRUE(tail.ok());
  EXPECT_FALSE(tail.value().empty());
}

// --- apply_batch discipline --------------------------------------------------

TEST(ReplicaNodeTest, ApplyBatchDuplicateGapAndFenceDiscipline) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* follower = c.group.add_follower("f1", "theta").value();
  run_tasks(leader, 5, 2);
  ASSERT_TRUE(c.group.pump().ok());
  const wal::Lsn applied = follower->applied_lsn();
  EXPECT_EQ(applied, leader->applied_lsn());

  // Duplicate redelivery: acknowledged as a no-op, state unchanged.
  wal::WalCursor redo(leader->device(), 2);
  Result<wal::CursorBatch> old = redo.next(4);
  ASSERT_TRUE(old.ok());
  ASSERT_FALSE(old.value().empty());
  ShipBatch dup;
  dup.epoch = c.group.epoch();
  dup.first_lsn = old.value().first_lsn;
  dup.last_lsn = old.value().last_lsn;
  dup.records = old.value().records;
  const std::string before = dump_of(follower);
  Result<wal::Lsn> redelivered = follower->apply_batch(dup);
  ASSERT_TRUE(redelivered.ok());
  EXPECT_EQ(redelivered.value(), applied);
  EXPECT_EQ(dump_of(follower), before);

  // LSN gap: rejected so the shipper resyncs.
  ShipBatch gap;
  gap.epoch = c.group.epoch();
  gap.first_lsn = applied + 5;
  gap.last_lsn = applied + 5;
  gap.records.push_back(wal::Record{});
  Result<wal::Lsn> gapped = follower->apply_batch(gap);
  ASSERT_FALSE(gapped.ok());
  EXPECT_EQ(gapped.code(), ErrorCode::kInvalidArgument);

  // Stale epoch: fenced before any LSN logic runs.
  ShipBatch stale;
  stale.epoch = 0;
  stale.first_lsn = applied + 1;
  stale.last_lsn = applied + 1;
  stale.records.push_back(wal::Record{});
  Result<wal::Lsn> fenced = follower->apply_batch(stale);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.code(), ErrorCode::kConflict);

  // Dead node: unavailable.
  ASSERT_TRUE(c.group.kill("f1").is_ok());
  Result<wal::Lsn> dead = follower->apply_batch(dup);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.code(), ErrorCode::kUnavailable);
}

// --- bootstrap + catch-up ----------------------------------------------------

TEST(ReplicationGroupTest, FollowerBootstrapsMidHistoryAndCatchesUp) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  run_tasks(leader, 20, 10);

  ReplicaNode* follower = c.group.add_follower("f1", "theta").value();
  // The bootstrap snapshot alone already reflects the first half...
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(follower), dump_of(leader));
  EXPECT_GT(c.group.last_bootstrap_duration(), 0.0);

  // ...and shipping carries the second half.
  run_tasks(leader, 20, 20);
  EXPECT_LT(follower->applied_lsn(), leader->applied_lsn());
  Result<PumpStats> pumped = c.group.pump();
  ASSERT_TRUE(pumped.ok());
  EXPECT_GT(pumped.value().batches_shipped, 0u);
  EXPECT_GT(pumped.value().records_shipped, 0u);
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(follower), dump_of(leader));

  // status() reports the converged group.
  json::Value status = c.group.status();
  EXPECT_EQ(status["epoch"].as_int(), 1);
  EXPECT_EQ(status["leader"]["id"].as_string(), "lead");
  EXPECT_EQ(status["followers"].as_array().size(), 1u);
  EXPECT_EQ(status["followers"].as_array()[0]["lag_lsns"].as_int(), 0);
}

TEST(ReplicationGroupTest, CheckpointTruncationRebootstrapsLaggingFollower) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ASSERT_TRUE(c.group.add_follower("f1", "theta").ok());
  run_tasks(leader, 6, 6);
  // The follower never saw those transactions, and the leader's checkpoint
  // just truncated them out of the log: only a new snapshot can help.
  ASSERT_TRUE(leader->wal()->checkpoint(leader->database()).ok());

  Result<PumpStats> pumped = c.group.pump();
  ASSERT_TRUE(pumped.ok());
  EXPECT_EQ(pumped.value().rebootstraps, 1u);
  ReplicaNode* follower = c.group.node("f1");
  ASSERT_NE(follower, nullptr);
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(follower), dump_of(leader));
}

// --- shipping channel misbehavior -------------------------------------------

TEST(ReplicationGroupTest, DroppedBatchesAreRetriedUnderThePolicy) {
  ReplConfig config;
  config.ship_retry = RetryPolicy::immediate(4);
  Cluster c(config);
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* follower = c.group.add_follower("f1", "theta").value();
  run_tasks(leader, 4, 4);

  c.faults.fail_next(fault_point::repl_ship_drop(), 2);
  Result<PumpStats> pumped = c.group.pump();
  ASSERT_TRUE(pumped.ok());
  EXPECT_EQ(pumped.value().drops, 2u);
  EXPECT_GT(pumped.value().batches_shipped, 0u);
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
}

TEST(ReplicationGroupTest, DropBeyondRetryBudgetHealsOnNextPump) {
  ReplConfig config;
  config.ship_retry = RetryPolicy::none();
  Cluster c(config);
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* follower = c.group.add_follower("f1", "theta").value();
  run_tasks(leader, 3, 0);

  c.faults.fail_next(fault_point::repl_ship_drop(), 1);
  Result<PumpStats> first = c.group.pump();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().drops, 1u);
  EXPECT_LT(follower->applied_lsn(), leader->applied_lsn());

  Result<PumpStats> second = c.group.pump();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
}

TEST(ReplicationGroupTest, DuplicatedAndReorderedBatchesConvergeByLsn) {
  ReplConfig config;
  config.max_batch_records = 4;  // several batches in flight: reordering bites
  Cluster c(config);
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* follower = c.group.add_follower("f1", "theta").value();
  run_tasks(leader, 8, 4);

  c.faults.fail_next(fault_point::repl_ship_duplicate(), 1);
  c.faults.fail_next(fault_point::repl_ship_reorder(), 1);
  Result<PumpStats> pumped = c.group.pump();
  ASSERT_TRUE(pumped.ok());
  EXPECT_EQ(pumped.value().duplicates_delivered, 1u);
  EXPECT_GE(pumped.value().gap_rejects, 1u);  // the reordered batch bounced
  for (int i = 0; i < 64 && follower->applied_lsn() < leader->applied_lsn();
       ++i) {
    ASSERT_TRUE(c.group.pump().ok());
  }
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(follower), dump_of(leader));
}

TEST(ReplicationGroupTest, PartitionedFollowerHealsWithoutDuplication) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* f1 = c.group.add_follower("f1", "theta").value();
  ReplicaNode* f2 = c.group.add_follower("f2", "cloud").value();
  run_tasks(leader, 10, 5);

  c.faults.add_window(fault_point::partition("bebop", "theta"), 0.0, 10.0);
  Result<PumpStats> during = c.group.pump();
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.value().partitioned_followers, 1u);
  EXPECT_LT(f1->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(f2->applied_lsn(), leader->applied_lsn());

  c.clock.advance(20.0);  // the partition heals
  run_tasks(leader, 5, 5);
  // Redeliver everything f1 missed plus a duplicated batch: idempotency by
  // LSN keeps the histories identical.
  c.faults.fail_next(fault_point::repl_ship_duplicate(), 1);
  Result<PumpStats> after = c.group.pump();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().partitioned_followers, 0u);
  EXPECT_EQ(f1->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(f1), dump_of(leader));
  EXPECT_EQ(dump_of(f2), dump_of(leader));
}

// --- follower crash / restart ------------------------------------------------

TEST(ReplicationGroupTest, FollowerKilledMidCatchUpRestartsFromOwnLog) {
  ReplConfig config;
  config.max_batch_records = 4;
  config.max_batches_per_pump = 1;  // freeze the follower mid-catch-up
  Cluster c(config);
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* follower = c.group.add_follower("f1", "theta").value();
  run_tasks(leader, 16, 8);

  ASSERT_TRUE(c.group.pump().ok());  // one batch only
  const wal::Lsn mid = follower->applied_lsn();
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, leader->applied_lsn());

  // Power loss mid-catch-up; the shipper skips the dead node.
  ASSERT_TRUE(c.group.kill("f1").is_ok());
  Result<PumpStats> skipped = c.group.pump();
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped.value().batches_shipped, 0u);

  // Restart: the follower's own log (bootstrap checkpoint + acknowledged
  // frames) rebuilds exactly the acknowledged state — write-ahead on the
  // follower paid off.
  Result<wal::RecoveryInfo> info = follower->recover_from_disk();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().used_checkpoint);
  EXPECT_EQ(follower->applied_lsn(), mid);
  EXPECT_EQ(follower->epoch(), c.group.epoch());

  // And shipping resumes where the acknowledgments stopped.
  for (int i = 0; i < 64 && follower->applied_lsn() < leader->applied_lsn();
       ++i) {
    ASSERT_TRUE(c.group.pump().ok());
  }
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(follower), dump_of(leader));
}

TEST(ReplicationGroupTest, FollowerRestartRelearnsAShippedEpochFromItsLogTail) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* f1 = c.group.add_follower("f1", "theta").value();
  ReplicaNode* f2 = c.group.add_follower("f2", "cloud").value();
  run_tasks(leader, 4, 2);
  ASSERT_TRUE(c.group.pump().ok());

  // f1 partitions away, so f2 is the one promoted when the leader dies.
  c.faults.add_window(fault_point::partition("bebop", "theta"), 0.0, 5.0);
  run_tasks(leader, 4, 4);
  ASSERT_TRUE(c.group.pump().ok());
  ASSERT_TRUE(c.group.kill("lead").is_ok());
  Result<std::string> promoted = c.group.promote();
  ASSERT_TRUE(promoted.ok());
  ASSERT_EQ(promoted.value(), "f2");
  ASSERT_EQ(c.group.epoch(), 2u);

  // After the heal, f1 catches up from f2 and learns epoch 2 only from the
  // shipped kEpoch record: its bootstrap checkpoint still says epoch 1.
  c.clock.advance(10.0);
  for (int i = 0; i < 64 && f1->applied_lsn() < f2->applied_lsn(); ++i) {
    ASSERT_TRUE(c.group.pump().ok());
  }
  ASSERT_EQ(f1->applied_lsn(), f2->applied_lsn());
  ASSERT_EQ(f1->epoch(), 2u);
  const wal::Lsn before_kill = f1->applied_lsn();

  // Restart from the own log: the epoch comes back from the log tail.
  ASSERT_TRUE(c.group.kill("f1").is_ok());
  Result<wal::RecoveryInfo> info = f1->recover_from_disk();
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().used_checkpoint);
  EXPECT_EQ(info.value().last_epoch, 2u);
  EXPECT_EQ(f1->epoch(), 2u);
  EXPECT_EQ(f1->applied_lsn(), before_kill);

  // A straggler from the deposed epoch-1 leader is still fenced...
  ShipBatch straggler;
  straggler.epoch = 1;
  straggler.first_lsn = f1->applied_lsn() + 1;
  straggler.last_lsn = straggler.first_lsn;
  straggler.records.push_back(wal::Record{});
  Result<wal::Lsn> fenced = f1->apply_batch(straggler);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.code(), ErrorCode::kConflict);

  // ...and shipping from the new leader resumes where the log left off.
  run_tasks(f2, 3, 2);
  for (int i = 0; i < 64 && f1->applied_lsn() < f2->applied_lsn(); ++i) {
    ASSERT_TRUE(c.group.pump().ok());
  }
  EXPECT_EQ(f1->applied_lsn(), f2->applied_lsn());
  EXPECT_EQ(f1->epoch(), 2u);
  EXPECT_EQ(dump_of(f1), dump_of(f2));
}

// --- failover ----------------------------------------------------------------

TEST(ReplicationGroupTest, LeaderDeathPromotesMostCaughtUpUnderNewEpoch) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplicaNode* f1 = c.group.add_follower("f1", "theta").value();
  ReplicaNode* f2 = c.group.add_follower("f2", "cloud").value();
  run_tasks(leader, 6, 3);
  ASSERT_TRUE(c.group.pump().ok());

  // f1 partitions away; only f2 sees the next stretch of history.
  c.faults.add_window(fault_point::partition("bebop", "theta"), 0.0, 5.0);
  std::vector<TaskId> ids = run_tasks(leader, 6, 6);
  ASSERT_TRUE(c.group.pump().ok());
  EXPECT_LT(f1->applied_lsn(), f2->applied_lsn());
  const wal::Lsn f2_before = f2->applied_lsn();
  EXPECT_EQ(f2_before, leader->applied_lsn());

  // The leader dies mid-batch: more commits land after the last ship.
  run_tasks(leader, 2, 0);
  ASSERT_TRUE(c.group.kill("lead").is_ok());
  ASSERT_FALSE(c.group.pump().ok());  // no live leader

  CaptureSink capture;
  capture.install();
  Result<std::string> promoted = c.group.promote();
  capture.uninstall();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value(), "f2");  // most caught-up wins
  EXPECT_EQ(c.group.epoch(), 2u);
  EXPECT_TRUE(capture.contains("epoch transition: leader failover"));
  EXPECT_EQ(capture.field_value("new_leader"), "f2");

  // The promoted leader continues the same dense LSN sequence: its first own
  // record is the epoch mark right after everything it had applied.
  ReplicaNode* new_leader = c.group.leader();
  ASSERT_EQ(new_leader, f2);
  EXPECT_EQ(new_leader->role(), ReplicaNode::Role::kLeader);
  EXPECT_EQ(new_leader->applied_lsn(), f2_before + 1);
  EXPECT_EQ(new_leader->epoch(), 2u);

  c.clock.advance(10.0);  // heal the partition
  // The lagging follower catches up from the *new* leader and learns the
  // epoch from the replicated record.
  for (int i = 0; i < 64 && f1->applied_lsn() < new_leader->applied_lsn();
       ++i) {
    ASSERT_TRUE(c.group.pump().ok());
  }
  EXPECT_EQ(f1->applied_lsn(), new_leader->applied_lsn());
  EXPECT_EQ(f1->epoch(), 2u);
  EXPECT_EQ(dump_of(f1), dump_of(new_leader));

  // A straggler ship batch from the deposed leader is fenced...
  ShipBatch straggler;
  straggler.epoch = 1;
  straggler.first_lsn = f1->applied_lsn() + 1;
  straggler.last_lsn = straggler.first_lsn;
  straggler.records.push_back(wal::Record{});
  Result<wal::Lsn> fenced = f1->apply_batch(straggler);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.code(), ErrorCode::kConflict);

  // ...and so is a worker's stale-epoch report: exactly-once survives the
  // failover. The task it raced on stays reportable exactly once at the new
  // epoch.
  ReplRouter router(c.group);
  std::unique_ptr<eqsql::EQSQL> api = api_for(new_leader);
  Result<std::vector<eqsql::TaskHandle>> claimed = api->try_query_tasks(kWork);
  ASSERT_TRUE(claimed.ok());
  ASSERT_FALSE(claimed.value().empty());
  const TaskId task = claimed.value().front().eq_task_id;
  Status stale = router.report_task_at_epoch(1, task, kWork, "{\"y\":1}");
  EXPECT_EQ(stale.error().code, ErrorCode::kConflict);
  EXPECT_EQ(router.fenced_writes(), 1u);
  EXPECT_TRUE(router.report_task_at_epoch(2, task, kWork, "{\"y\":1}").is_ok());
  Status twice = router.report_task(task, kWork, "{\"y\":2}");
  EXPECT_EQ(twice.error().code, ErrorCode::kConflict);
}

TEST(ReplicationGroupTest, PromotionTieBreaksOnLowestIdDeterministically) {
  Cluster c;
  (void)c.group.create_leader("lead", "bebop").value();
  ASSERT_TRUE(c.group.add_follower("fb", "theta").ok());
  ASSERT_TRUE(c.group.add_follower("fa", "cloud").ok());
  run_tasks(c.group.leader(), 4, 2);
  ASSERT_TRUE(c.group.pump().ok());  // both equally caught up
  ASSERT_TRUE(c.group.kill("lead").is_ok());
  Result<std::string> promoted = c.group.promote();
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value(), "fa");
}

// --- read routing ------------------------------------------------------------

TEST(ReplRouterTest, DefaultConfigKeepsEveryReadOnTheLeader) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ASSERT_TRUE(c.group.add_follower("f1", "theta").ok());
  run_tasks(leader, 3, 0);
  ASSERT_TRUE(c.group.pump().ok());

  ReplRouter router(c.group);  // route_reads_to_replicas defaults to off
  Result<eqsql::QueueStats> stats = router.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queued, 3);
  EXPECT_EQ(router.leader_reads(), 1u);
  EXPECT_EQ(router.replica_reads(), 0u);
  EXPECT_EQ(router.redirects(), 0u);
}

TEST(ReplRouterTest, BoundedStalenessRoutesToReplicaOrRedirects) {
  RouterConfig rc;
  rc.route_reads_to_replicas = true;
  rc.max_staleness_lsns = 0;  // replicas must be fully caught up
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ASSERT_TRUE(c.group.add_follower("f1", "theta").ok());
  ReplRouter router(c.group, rc);

  std::vector<TaskId> ids = run_tasks(leader, 4, 4);
  // The follower is behind: the read redirects to the leader (and says so).
  Result<eqsql::TaskStatus> behind = router.task_status(ids[0]);
  ASSERT_TRUE(behind.ok());
  EXPECT_EQ(behind.value(), eqsql::TaskStatus::kComplete);
  EXPECT_EQ(router.redirects(), 1u);
  EXPECT_EQ(router.leader_reads(), 1u);

  // Caught up: the replica serves.
  ASSERT_TRUE(c.group.pump().ok());
  Result<eqsql::TaskStatus> replica = router.task_status(ids[0]);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(replica.value(), eqsql::TaskStatus::kComplete);
  EXPECT_EQ(router.replica_reads(), 1u);
  EXPECT_EQ(router.redirects(), 1u);

  // A generous staleness bound keeps replica reads flowing mid-stream.
  run_tasks(leader, 1, 0);
  RouterConfig loose = rc;
  loose.max_staleness_lsns = 1000;
  ReplRouter relaxed(c.group, loose);
  ASSERT_TRUE(relaxed.stats().ok());
  EXPECT_EQ(relaxed.replica_reads(), 1u);

  // peek_result_at with an explicit watermark past the replica redirects.
  Result<std::string> watermarked =
      router.peek_result_at(ids[0], leader->applied_lsn() + 100);
  ASSERT_TRUE(watermarked.ok());
  EXPECT_EQ(router.redirects(), 2u);
}

TEST(ReplRouterTest, PeekResultReadsWithoutConsumingTheQueue) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplRouter router(c.group);
  std::vector<TaskId> ids = run_tasks(leader, 2, 1);

  // Not complete yet: a probe, not an error state.
  Result<std::string> pending = router.peek_result(ids[1]);
  ASSERT_FALSE(pending.ok());
  EXPECT_EQ(pending.code(), ErrorCode::kNotFound);

  // Complete: peek returns the payload, repeatably — nothing is popped.
  Result<std::string> first = router.peek_result(ids[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), router.peek_result(ids[0]).value());

  // The authoritative pickup pops the input queue; the peeks did not.
  Result<eqsql::QueueStats> before_pop = router.stats();
  ASSERT_TRUE(before_pop.ok());
  EXPECT_EQ(before_pop.value().input_queue, 1);
  Result<std::string> popped = router.try_query_result(ids[0]);
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped.value(), first.value());
  Result<eqsql::QueueStats> after_pop = router.stats();
  ASSERT_TRUE(after_pop.ok());
  EXPECT_EQ(after_pop.value().input_queue, 0);

  // Canceled tasks peek as canceled.
  std::unique_ptr<eqsql::EQSQL> api = api_for(leader);
  ASSERT_TRUE(api->cancel_tasks({ids[1]}).ok());
  Result<std::string> canceled = router.peek_result(ids[1]);
  ASSERT_FALSE(canceled.ok());
  EXPECT_EQ(canceled.code(), ErrorCode::kCanceled);
}

TEST(ReplRouterTest, QueryResultPollsThroughThePeeker) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ReplRouter router(c.group);

  std::unique_ptr<eqsql::EQSQL> api;
  {
    Result<std::unique_ptr<eqsql::EQSQL>> connected = leader->connect();
    ASSERT_TRUE(connected.ok());
    api = std::move(connected).take();
  }
  std::atomic<int> probes{0};
  eqsql::WaitRouting routing;
  routing.sleeper = [&](Duration d) { c.clock.advance(d); };
  routing.peeker = [&](TaskId id) {
    ++probes;
    return router.peek_result(id);
  };
  api->set_wait_routing(std::move(routing));

  Result<TaskId> id = api->submit_task("poll", kWork, "{}");
  ASSERT_TRUE(id.ok());
  // Nothing reports it: the poll probes through the router until timeout.
  eqsql::WaitSpec spec = eqsql::WaitSpec::poll(0.1, 0.5);
  Result<std::string> timed_out = api->query_result(id.value(), spec);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), ErrorCode::kTimeout);
  EXPECT_GT(probes.load(), 1);

  // Completed: the probe sees it and the leader pop returns the result.
  Result<std::vector<eqsql::TaskHandle>> claimed = api->try_query_tasks(kWork);
  ASSERT_TRUE(claimed.ok());
  ASSERT_TRUE(api->report_task(id.value(), kWork, "{\"y\":9}").is_ok());
  Result<std::string> done = api->query_result(id.value(), spec);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value(), "{\"y\":9}");
}

// --- observability -----------------------------------------------------------

TEST(ReplObsTest, ReplicationPlaneIsVisibleFromTelemetryAlone) {
  obs::ScopedTelemetry scoped;
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  ASSERT_TRUE(c.group.add_follower("f1", "theta").ok());
  ASSERT_TRUE(c.group.add_follower("f2", "cloud").ok());
  run_tasks(leader, 10, 5);
  c.faults.fail_next(fault_point::repl_ship_drop(), 1);
  c.faults.fail_next(fault_point::repl_ship_duplicate(), 1);
  ASSERT_TRUE(c.group.pump().ok());
  ASSERT_TRUE(c.group.kill("lead").is_ok());
  ASSERT_TRUE(c.group.promote().ok());
  ASSERT_TRUE(c.group.pump().ok());

  obs::MetricsSnapshot snap = obs::telemetry().metrics.snapshot();
  EXPECT_GT(snap.counter_value("osprey_repl_batches_shipped_total"), 0u);
  EXPECT_GT(snap.counter_value("osprey_repl_records_shipped_total"), 0u);
  EXPECT_EQ(snap.counter_value("osprey_repl_ship_drops_total"), 1u);
  EXPECT_EQ(snap.counter_value("osprey_repl_ship_duplicates_total"), 1u);
  EXPECT_EQ(snap.counter_value("osprey_repl_failovers_total"), 1u);
  EXPECT_EQ(snap.gauge_value("osprey_repl_epoch"), 2.0);
  // Lag is exported per replica; after the final pump the survivor is even.
  EXPECT_EQ(snap.gauge_value("osprey_repl_lag_lsns", {{"replica", "f1"}}),
            0.0);
  const obs::HistogramSample* ship =
      snap.find_histogram("osprey_repl_ship_latency_seconds");
  ASSERT_NE(ship, nullptr);
  EXPECT_GT(ship->count, 0u);
  const obs::HistogramSample* failover =
      snap.find_histogram("osprey_repl_failover_duration_seconds");
  ASSERT_NE(failover, nullptr);
  EXPECT_EQ(failover->count, 1u);
}

// --- remote control ----------------------------------------------------------

TEST(ReplRemoteTest, ControlSurfaceDrivesTheGroupOverTheEndpoint) {
  Cluster c;
  ReplicaNode* leader = c.group.create_leader("lead", "bebop").value();
  faas::Endpoint endpoint("repl-ep", "cloud");
  ASSERT_TRUE(register_repl_functions(endpoint, c.group).is_ok());

  Result<json::Value> added =
      endpoint.execute("repl_add_follower",
                       json::parse("{\"id\":\"f1\",\"site\":\"theta\"}").value());
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added.value()["id"].as_string(), "f1");

  run_tasks(leader, 4, 2);
  Result<json::Value> pumped = endpoint.execute("repl_pump", json::Value());
  ASSERT_TRUE(pumped.ok());
  EXPECT_GT(pumped.value()["batches_shipped"].as_int(), 0);

  Result<json::Value> status = endpoint.execute("repl_status", json::Value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value()["epoch"].as_int(), 1);
  EXPECT_EQ(status.value()["followers"].as_array()[0]["lag_lsns"].as_int(), 0);

  ASSERT_TRUE(c.group.kill("lead").is_ok());
  Result<json::Value> promoted =
      endpoint.execute("repl_promote", json::Value());
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value()["leader"].as_string(), "f1");
  EXPECT_EQ(promoted.value()["epoch"].as_int(), 2);

  Result<json::Value> removed = endpoint.execute(
      "repl_remove_follower", json::parse("{\"id\":\"ghost\"}").value());
  ASSERT_FALSE(removed.ok());
  EXPECT_EQ(removed.code(), ErrorCode::kNotFound);
  Result<json::Value> bad =
      endpoint.execute("repl_add_follower", json::Value());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kInvalidArgument);
}

// --- service shutdown ordering ----------------------------------------------

TEST(EmewsServiceReplTest, StopFlushesGroupCommitTailBeforeGoingDown) {
  auto disk = std::make_shared<wal::SimDisk>();
  ManualClock clock;
  {
    eqsql::EmewsService service(clock);
    ASSERT_TRUE(service.start().is_ok());
    wal::SimLogDevice device(disk);
    wal::WalOptions lazy;
    lazy.group_commit_txns = 1000;  // nothing syncs on its own
    ASSERT_TRUE(service.enable_wal(device, lazy).is_ok());
    eqsql::EQSQL api(service.database(), clock);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(api.submit_task("flush", kWork, "{}").ok());
    }
    // A graceful stop must flush the group-commit tail before the service
    // stops serving — otherwise the power loss below eats acknowledged tasks.
    ASSERT_TRUE(service.stop().is_ok());
    device.crash();
  }
  eqsql::EmewsService recovered(clock);
  wal::SimLogDevice device(disk);
  Result<wal::RecoveryInfo> info = recovered.recover_from_wal(device);
  ASSERT_TRUE(info.ok());
  Result<eqsql::ServiceStats> stats = recovered.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tasks_queued, 10);
}

// --- concurrency (TSan) ------------------------------------------------------

TEST(ReplThreadedTest, ConcurrentWritersAndShipperConverge) {
  RealClock clock;
  net::Network network = net::Network::testbed();
  ReplConfig config;
  config.max_batch_records = 32;
  ReplicationGroup group(clock, network, config);
  ReplicaNode* leader = group.create_leader("lead", "bebop").value();
  ReplicaNode* f1 = group.add_follower("f1", "theta").value();
  ReplicaNode* f2 = group.add_follower("f2", "cloud").value();

  // The shipper tails the live leader log while writers commit into it: the
  // cursor must only ever observe whole committed units.
  std::atomic<bool> done{false};
  std::thread shipper([&] {
    while (!done.load(std::memory_order_acquire)) {
      Result<PumpStats> pumped = group.pump();
      EXPECT_TRUE(pumped.ok());
      std::this_thread::yield();
    }
  });

  constexpr int kWriters = 3;
  constexpr int kPerWriter = 60;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Result<std::unique_ptr<eqsql::EQSQL>> connected = leader->connect();
      EXPECT_TRUE(connected.ok());
      if (!connected.ok()) return;
      std::unique_ptr<eqsql::EQSQL> api = std::move(connected).take();
      for (int i = 0; i < kPerWriter; ++i) {
        Result<TaskId> id = api->submit_task(
            "tsan", kWork, "{\"w\":" + std::to_string(w) + "}");
        EXPECT_TRUE(id.ok());
        Result<std::vector<eqsql::TaskHandle>> claimed =
            api->try_query_tasks(kWork, 1);
        EXPECT_TRUE(claimed.ok());
        if (claimed.ok() && !claimed.value().empty()) {
          EXPECT_TRUE(api->report_task(claimed.value().front().eq_task_id,
                                       kWork, "{\"y\":0}")
                          .is_ok());
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  shipper.join();

  // Quiesced: drain the tail and the three histories must be identical.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(group.pump().ok());
    if (f1->applied_lsn() == leader->applied_lsn() &&
        f2->applied_lsn() == leader->applied_lsn()) {
      break;
    }
  }
  EXPECT_EQ(f1->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(f2->applied_lsn(), leader->applied_lsn());
  EXPECT_EQ(dump_of(f1), dump_of(leader));
  EXPECT_EQ(dump_of(f2), dump_of(leader));
}

}  // namespace
}  // namespace osprey::repl
