// The sharding plane (osprey/shard): key derivation, the global task-id
// encoding, scatter-gather routing, per-shard epoch fencing, and the C API
// surface (DESIGN.md §5.11).
//
// The scatter-gather edge matrix the design calls out:
//  - a shard holding none of the requested ids is never probed;
//  - all-shards-empty blocking waits time out with the unified message;
//  - a result surfacing on two merge paths is delivered exactly once;
//  - a shard that is mid-bootstrap (leaderless) or dead during a stats
//    fan-out is skipped under tolerate_partial and fails the call without.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

// The C API shard cases call the deprecated v1 entry points on purpose, so
// the v1 deprecation warnings are opted out of.
#define OSPREY_ALLOW_DEPRECATED
#include "osprey/capi/osprey_c.h"
#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/db/sql_exec.h"
#include "osprey/eqsql/schema.h"
#include "osprey/faas/endpoint.h"
#include "osprey/json/json.h"
#include "osprey/obs/telemetry.h"
#include "osprey/pool/backend.h"
#include "osprey/shard/cluster.h"
#include "osprey/shard/key.h"
#include "osprey/shard/remote.h"
#include "osprey/shard/router.h"

namespace osprey::shard {
namespace {

// --- keys and the id encoding ------------------------------------------------

TEST(ShardKeyTest, SingleShardAlwaysRoutesToZero) {
  ShardSpec spec;  // shard_count = 1
  for (WorkType t : {0, 1, 7, 1000, -3}) {
    EXPECT_EQ(shard_of_work_type(spec, t), 0u);
  }
  EXPECT_EQ(shard_of_exp(spec, "any-experiment"), 0u);
}

TEST(ShardKeyTest, HashSpreadsAndIsStable) {
  ShardSpec spec;
  spec.shard_count = 4;
  bool touched[4] = {false, false, false, false};
  for (WorkType t = 0; t < 64; ++t) {
    const ShardId s = shard_of_work_type(spec, t);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, shard_of_work_type(spec, t));  // deterministic
    touched[s] = true;
  }
  for (bool hit : touched) EXPECT_TRUE(hit);  // 64 keys cover 4 shards
}

TEST(ShardKeyTest, RangeKeepsAdjacentTypesTogether) {
  ShardSpec spec;
  spec.shard_count = 3;
  spec.scheme = ShardScheme::kRange;
  spec.range_width = 4;
  EXPECT_EQ(shard_of_work_type(spec, 0), shard_of_work_type(spec, 3));
  EXPECT_NE(shard_of_work_type(spec, 3), shard_of_work_type(spec, 4));
  EXPECT_EQ(shard_of_work_type(spec, 4), 1u);
  EXPECT_EQ(shard_of_work_type(spec, 8), 2u);
  EXPECT_EQ(shard_of_work_type(spec, 12), 0u);  // wraps mod shard_count
}

TEST(ShardKeyTest, ExpKeyingDispatchesOnExperiment) {
  ShardSpec spec;
  spec.shard_count = 5;
  spec.key = ShardKeyKind::kExpId;
  const ShardId a = shard_for(spec, 1, "exp-a");
  EXPECT_EQ(a, shard_of_exp(spec, "exp-a"));
  // Same experiment, different type: same shard (campaign colocation).
  EXPECT_EQ(shard_for(spec, 99, "exp-a"), a);
}

TEST(ShardIdEncodingTest, GlobalIdsRoundTripAndShardZeroIsIdentity) {
  EXPECT_EQ(global_task_id(42, 0), 42);  // unsharded compatibility
  for (ShardId s : {0u, 1u, 7u, kMaxShards - 1}) {
    const TaskId global = global_task_id(123456789, s);
    EXPECT_EQ(shard_of_task(global), s);
    EXPECT_EQ(local_task_id(global), 123456789);
    EXPECT_GT(global, 0);  // the sign bit stays clear
  }
}

// --- the merge ---------------------------------------------------------------

TEST(MergeCompletedTest, RoundRobinsAndPreservesPerShardOrder) {
  const std::vector<std::vector<TaskId>> per_shard = {{1, 2, 3}, {10, 20}};
  const std::vector<TaskId> merged = merge_completed(per_shard, 0);
  EXPECT_EQ(merged, (std::vector<TaskId>{1, 10, 2, 20, 3}));
}

TEST(MergeCompletedTest, DuplicateOnTwoShardsMergePathsDeliversOnce) {
  // The same id surfacing on two shards' merge paths (a retried scatter
  // overlapping a slow first reply) must be delivered exactly once.
  const std::vector<std::vector<TaskId>> per_shard = {{5, 7}, {7, 9}};
  const std::vector<TaskId> merged = merge_completed(per_shard, 0);
  EXPECT_EQ(merged, (std::vector<TaskId>{5, 7, 9}));
}

TEST(MergeCompletedTest, LimitStopsTheMerge) {
  const std::vector<std::vector<TaskId>> per_shard = {{1, 2}, {3, 4}};
  EXPECT_EQ(merge_completed(per_shard, 3).size(), 3u);
  EXPECT_EQ(merge_completed(per_shard, 1), (std::vector<TaskId>{1}));
}

// --- cluster + router fixtures -----------------------------------------------

/// A sharded testbed: `shards` single-leader groups under kRange keying with
/// range_width 1, so work type t deterministically owns shard t % shards.
struct Sharded {
  ManualClock clock;
  net::Network network = net::Network::testbed();
  FaultRegistry faults{clock, 0x51a2};
  ShardCluster cluster;

  static ShardClusterConfig make_config(std::uint32_t shards) {
    ShardClusterConfig config;
    config.spec.shard_count = shards;
    config.spec.scheme = ShardScheme::kRange;
    config.spec.range_width = 1;
    return config;
  }

  explicit Sharded(std::uint32_t shards)
      : cluster(clock, network, make_config(shards)) {
    network.set_fault_registry(&faults);
    cluster.set_fault_registry(&faults);
  }

  /// Leaders everywhere; `followers` followers per shard.
  void boot(int followers = 0) {
    const char* sites[] = {"bebop", "theta", "midway2"};
    for (ShardId s = 0; s < cluster.shard_count(); ++s) {
      ASSERT_TRUE(cluster
                      .create_leader(s, "lead" + std::to_string(s),
                                     sites[s % 3])
                      .ok());
      for (int f = 0; f < followers; ++f) {
        ASSERT_TRUE(cluster
                        .add_follower(s,
                                      "f" + std::to_string(s) + "-" +
                                          std::to_string(f),
                                      sites[(s + f + 1) % 3])
                        .ok());
      }
    }
  }
};

ShardRouterConfig manual_sleep(ManualClock& clock) {
  ShardRouterConfig config;
  config.sleeper = [&clock](Duration d) { clock.advance(d); };
  return config;
}

/// Claim-and-report `id`'s task through the router.
void complete_task(ShardRouter& router, WorkType type, TaskId id,
                   const std::string& result = "{\"y\":1}") {
  Result<std::vector<eqsql::TaskHandle>> claimed =
      router.try_query_tasks(type, 1);
  ASSERT_TRUE(claimed.ok());
  ASSERT_EQ(claimed.value().size(), 1u);
  ASSERT_EQ(claimed.value().front().eq_task_id, id);
  ASSERT_TRUE(router.report_task(id, type, result).is_ok());
}

// --- single-key routing ------------------------------------------------------

TEST(ShardRouterTest, SubmitRoutesByWorkTypeAndGlobalizesIds) {
  Sharded f(3);
  f.boot();
  ShardRouter router(f.cluster);
  for (WorkType t : {0, 1, 2, 4}) {
    Result<TaskId> id = router.submit_task("e", t, "{}");
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(shard_of_task(id.value()), router.shard_of(t));
    EXPECT_EQ(router.shard_of(t), static_cast<ShardId>(t % 3));
  }
  // Each shard's database allocated its own dense local sequence (shard 1
  // already took two submits above: types 1 and 4 both map to it).
  EXPECT_EQ(local_task_id(router.submit_task("e", 0, "{}").value()), 2);
  EXPECT_EQ(local_task_id(router.submit_task("e", 2, "{}").value()), 2);
  EXPECT_EQ(local_task_id(router.submit_task("e", 1, "{}").value()), 3);
}

TEST(ShardRouterTest, ClaimReportResultRoundTripOnTheOwningShard) {
  Sharded f(3);
  f.boot();
  ShardRouter router(f.cluster);
  const WorkType type = 2;
  Result<TaskId> id = router.submit_task("e", type, "{\"x\":5}");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(router.queued_count(type).value(), 1);

  Result<std::vector<eqsql::TaskHandle>> claimed =
      router.try_query_tasks(type, 1, "pool-a");
  ASSERT_TRUE(claimed.ok());
  ASSERT_EQ(claimed.value().size(), 1u);
  EXPECT_EQ(claimed.value().front().eq_task_id, id.value());
  EXPECT_EQ(claimed.value().front().payload, "{\"x\":5}");

  ASSERT_TRUE(router.report_task(id.value(), type, "{\"y\":6}").is_ok());
  EXPECT_EQ(router.task_status(id.value()).value(),
            eqsql::TaskStatus::kComplete);
  EXPECT_EQ(router.peek_result(id.value()).value(), "{\"y\":6}");
  EXPECT_EQ(router.try_query_result(id.value()).value(), "{\"y\":6}");
}

TEST(ShardRouterTest, OutOfRangeShardBitsAreRejected) {
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster);
  const TaskId bogus = global_task_id(1, 7);  // shard 7 of 2
  EXPECT_EQ(router.report_task(bogus, 0, "{}").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(router.peek_result(bogus).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(router.try_query_completed({bogus}, 1).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ShardRouterTest, FailoverFencesTheOldEpochOnOneShardOnly) {
  Sharded f(3);
  f.boot(/*followers=*/1);
  ShardRouter router(f.cluster);
  const WorkType type = 1;  // owns shard 1
  const ShardId s = router.shard_of(type);
  ASSERT_EQ(s, 1u);

  Result<TaskId> id = router.submit_task("e", type, "{}");
  ASSERT_TRUE(id.ok());
  Result<std::vector<eqsql::TaskHandle>> claimed =
      router.try_query_tasks(type, 1);
  ASSERT_TRUE(claimed.ok());
  ASSERT_EQ(claimed.value().size(), 1u);
  ASSERT_TRUE(f.cluster.pump_all().ok());  // replicate the claim

  const repl::Epoch old_epoch = f.cluster.epoch(s);
  ASSERT_TRUE(f.cluster.group(s).kill("lead1").is_ok());
  ASSERT_TRUE(f.cluster.promote(s).ok());
  EXPECT_GT(f.cluster.epoch(s), old_epoch);
  // The other shards' epochs are untouched — failure isolation.
  EXPECT_EQ(f.cluster.epoch(0), 1u);
  EXPECT_EQ(f.cluster.epoch(2), 1u);

  // A straggler stamped with the deposed epoch dies with kConflict.
  EXPECT_EQ(
      router.report_task_at_epoch(old_epoch, id.value(), type, "{\"y\":0}")
          .code(),
      ErrorCode::kConflict);
  EXPECT_EQ(router.fenced_writes(), 1u);
  // The current-epoch report lands: exactly-once preserved across failover.
  ASSERT_TRUE(router.report_task(id.value(), type, "{\"y\":1}").is_ok());
  EXPECT_EQ(router.try_query_result(id.value()).value(), "{\"y\":1}");
}

// --- scatter-gather ----------------------------------------------------------

TEST(ShardScatterTest, StatsSumAcrossShards) {
  Sharded f(3);
  f.boot();
  ShardRouter router(f.cluster);
  ASSERT_TRUE(router.submit_task("e", 0, "{}").ok());
  ASSERT_TRUE(router.submit_task("e", 1, "{}").ok());
  Result<TaskId> done = router.submit_task("e", 2, "{}");
  ASSERT_TRUE(done.ok());
  complete_task(router, 2, done.value());

  Result<eqsql::QueueStats> stats = router.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queued, 2);
  EXPECT_EQ(stats.value().complete, 1);
  EXPECT_EQ(stats.value().output_queue, 2);
  EXPECT_EQ(stats.value().input_queue, 1);
}

TEST(ShardScatterTest, DeadShardIsSkippedUnderPartialTolerance) {
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster);
  ASSERT_TRUE(router.submit_task("e", 0, "{}").ok());
  ASSERT_TRUE(f.cluster.group(1).kill("lead1").is_ok());

  Result<eqsql::QueueStats> stats = router.stats();
  ASSERT_TRUE(stats.ok());  // shard 0 still answers
  EXPECT_EQ(stats.value().queued, 1);
  EXPECT_GE(router.partial_failures(), 1u);
}

TEST(ShardScatterTest, StrictModeFailsTheScatterOnAnyDeadShard) {
  Sharded f(2);
  f.boot();
  ShardRouterConfig config;
  config.tolerate_partial = false;
  ShardRouter router(f.cluster, config);
  ASSERT_TRUE(f.cluster.group(1).kill("lead1").is_ok());
  EXPECT_EQ(router.stats().code(), ErrorCode::kUnavailable);
}

TEST(ShardScatterTest, MidBootstrapShardIsToleratedDuringStatsFanOut) {
  // Shard 1 exists but has no leader yet (mid-bootstrap): the fan-out skips
  // it instead of failing the whole snapshot.
  Sharded f(2);
  ASSERT_TRUE(f.cluster.create_leader(0, "lead0", "bebop").ok());
  ShardRouter router(f.cluster);
  ASSERT_TRUE(router.submit_task("e", 0, "{}").ok());
  Result<eqsql::QueueStats> stats = router.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().queued, 1);
  EXPECT_GE(router.partial_failures(), 1u);
  // All shards down is still an error, tolerance or not.
  ASSERT_TRUE(f.cluster.group(0).kill("lead0").is_ok());
  EXPECT_EQ(router.stats().code(), ErrorCode::kUnavailable);
}

TEST(ShardScatterTest, CompletedGatherSkipsShardsHoldingNoIds) {
  // Ids all live on shard 0; shard 1 is dead — but it holds none of the
  // ids, so the gather never probes it and sees no partial failure.
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster);
  Result<TaskId> id = router.submit_task("e", 0, "{}");
  ASSERT_TRUE(id.ok());
  complete_task(router, 0, id.value());
  ASSERT_TRUE(f.cluster.group(1).kill("lead1").is_ok());

  Result<std::vector<TaskId>> completed =
      router.try_query_completed({id.value()}, 1);
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed.value(), (std::vector<TaskId>{id.value()}));
  EXPECT_EQ(router.partial_failures(), 0u);
}

TEST(ShardScatterTest, DuplicateIdsInTheRequestDeliverOnce) {
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster);
  Result<TaskId> id = router.submit_task("e", 0, "{}");
  ASSERT_TRUE(id.ok());
  complete_task(router, 0, id.value());

  Result<std::vector<TaskId>> completed =
      router.try_query_completed({id.value(), id.value()}, 2);
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed.value().size(), 1u);
}

TEST(ShardScatterTest, GatherPopsExactlyOnceAcrossCalls) {
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster);
  std::vector<TaskId> ids;
  for (WorkType t : {0, 1}) {
    Result<TaskId> id = router.submit_task("e", t, "{}");
    ASSERT_TRUE(id.ok());
    complete_task(router, t, id.value());
    ids.push_back(id.value());
  }
  // Budget 1: exactly one id pops; the other stays deliverable later —
  // the shrinking-budget rule means no probe over-pops.
  Result<std::vector<TaskId>> first = router.try_query_completed(ids, 1);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 1u);
  Result<std::vector<TaskId>> second = router.try_query_completed(ids, 2);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().size(), 1u);
  EXPECT_NE(first.value()[0], second.value()[0]);
  // Both delivered; nothing left.
  EXPECT_TRUE(router.try_query_completed(ids, 2).value().empty());
}

TEST(ShardScatterTest, AsCompletedTimesOutWhenEveryShardIsEmpty) {
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster, manual_sleep(f.clock));
  std::vector<TaskId> ids;
  for (WorkType t : {0, 1}) {
    Result<TaskId> id = router.submit_task("e", t, "{}");
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Nothing completes: the wait polls (manual clock) until the deadline.
  Result<std::vector<TaskId>> waited =
      router.as_completed(ids, 2, eqsql::WaitSpec::poll(0.1, 1.0));
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.code(), ErrorCode::kTimeout);
  EXPECT_NE(waited.error().message.find("0 of 2"), std::string::npos);
}

TEST(ShardScatterTest, AsCompletedGathersAcrossShardsAndPopRemoves) {
  Sharded f(3);
  f.boot();
  ShardRouter router(f.cluster, manual_sleep(f.clock));
  std::vector<TaskId> ids;
  for (WorkType t : {0, 1, 2}) {
    Result<TaskId> id = router.submit_task("e", t, "{}");
    ASSERT_TRUE(id.ok());
    complete_task(router, t, id.value());
    ids.push_back(id.value());
  }
  Result<std::vector<TaskId>> done =
      router.as_completed(ids, 2, eqsql::WaitSpec::poll(0.1, 1.0));
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().size(), 2u);

  std::vector<TaskId> rest = ids;
  Result<TaskId> popped =
      router.pop_completed(rest, eqsql::WaitSpec::poll(0.1, 1.0));
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(rest.size(), 2u);  // removed from the caller's list
  for (TaskId r : rest) EXPECT_NE(r, popped.value());

  EXPECT_EQ(router.as_completed(ids, 4, {}).code(),
            ErrorCode::kInvalidArgument);  // n > ids
  EXPECT_TRUE(router.as_completed(ids, 0, {}).value().empty());
}

// --- notify-mode waits -------------------------------------------------------

TEST(ShardNotifyTest, UnionWaiterBumpsOnAnySubscribedShard) {
  db::Database db_a, db_b;
  {
    db::sql::Connection conn_a(db_a), conn_b(db_b);
    ASSERT_TRUE(eqsql::create_schema(conn_a).is_ok());
    ASSERT_TRUE(eqsql::create_schema(conn_b).is_ok());
  }
  eqsql::Notifier notify_a, notify_b;
  notify_a.attach(db_a);
  notify_b.attach(db_b);
  ManualClock clock;
  eqsql::EQSQL api_a(db_a, clock), api_b(db_b, clock);
  {
    UnionWaiter waiter({&notify_a, &notify_b}, /*eq_type=*/3);
    EXPECT_EQ(waiter.version(), 0u);
    ASSERT_TRUE(api_a.submit_task("e", 3, "{}").ok());
    EXPECT_EQ(waiter.version(), 1u);
    ASSERT_TRUE(api_b.submit_task("e", 3, "{}").ok());
    EXPECT_EQ(waiter.version(), 2u);
    ASSERT_TRUE(api_b.submit_task("e", 4, "{}").ok());
    EXPECT_EQ(waiter.version(), 2u);  // other work types stay silent
  }
  // Destroyed waiter: no listener fires (remove_listener drained them).
  ASSERT_TRUE(api_a.submit_task("e", 3, "{}").ok());
  notify_a.detach();
  notify_b.detach();
}

TEST(ShardNotifyTest, BlockingClaimWakesOnTheOwningShardsCommit) {
  Sharded f(2);
  f.boot();
  ASSERT_TRUE(f.cluster.enable_notifications().is_ok());
  ShardRouter router(f.cluster);
  const WorkType type = 1;

  std::atomic<bool> claimed{false};
  std::thread waiter([&] {
    Result<std::vector<eqsql::TaskHandle>> got =
        router.query_task(type, 1, "p", eqsql::WaitSpec::notify(10.0));
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(got.value().size(), 1u);
      EXPECT_EQ(shard_of_task(got.value().front().eq_task_id), 1u);
    }
    claimed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(claimed.load());
  ASSERT_TRUE(router.submit_task("e", type, "{}").ok());
  waiter.join();
  EXPECT_TRUE(claimed.load());
}

// --- the pool backend seam ---------------------------------------------------

TEST(ShardPoolBackendTest, BackendRoutesClaimReportRequeueToOwningShards) {
  Sharded f(2);
  f.boot();
  ShardRouter router(f.cluster);
  const WorkType type = 1;
  pool::PoolBackend backend = router.pool_backend(type);
  ASSERT_TRUE(backend.complete());

  std::vector<TaskId> ids;
  for (int i = 0; i < 3; ++i) {
    Result<TaskId> id = router.submit_task("e", type, "{}");
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Deficit below threshold: the gate returns empty without claiming.
  auto gated = backend.claim_batched(type, 4, 3, 2, "p");
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated.value().empty());
  // Above threshold: claims min(deficit, available) with global ids.
  auto claimed = backend.claim_batched(type, 4, 2, 0, "p");
  ASSERT_TRUE(claimed.ok());
  ASSERT_EQ(claimed.value().size(), 3u);
  EXPECT_EQ(shard_of_task(claimed.value().front().eq_task_id), 1u);

  ASSERT_TRUE(backend.report(ids[0], type, "{\"y\":0}").is_ok());
  auto requeued = backend.requeue({ids[1], ids[2]});
  ASSERT_TRUE(requeued.ok());
  EXPECT_EQ(requeued.value(), 2u);
  EXPECT_EQ(router.queued_count(type).value(), 2);
  // Work-type keying resolves the owning shard's notifier (none attached).
  EXPECT_EQ(backend.notifier(), nullptr);
  ASSERT_TRUE(f.cluster.enable_notifications().is_ok());
  EXPECT_EQ(backend.notifier(), f.cluster.notifier(1));
}

// --- telemetry ---------------------------------------------------------------

TEST(ShardObsTest, ShardingPlaneIsVisibleFromTelemetryAlone) {
  obs::ScopedTelemetry scoped;
  Sharded f(2);
  f.boot(/*followers=*/1);
  ShardRouter router(f.cluster);
  Result<TaskId> id = router.submit_task("e", 0, "{}");
  ASSERT_TRUE(id.ok());
  complete_task(router, 0, id.value());
  ASSERT_TRUE(f.cluster.pump_all().ok());  // refreshes the gauges

  obs::MetricsRegistry& registry = obs::telemetry().metrics;
  EXPECT_EQ(registry.gauge("osprey_shard_epoch", {{"shard", "0"}}).value(),
            1.0);
  EXPECT_EQ(registry.gauge("osprey_shard_lag_lsns", {{"shard", "0"}}).value(),
            0.0);  // pumped to parity
  EXPECT_EQ(
      registry.gauge("osprey_shard_queue_depth", {{"shard", "0"}}).value(),
      0.0);

  ASSERT_TRUE(router.try_query_completed({id.value()}, 1).ok());
  EXPECT_GE(registry.counter("osprey_shard_scatter_total").value(), 1u);
}

// --- remote control ----------------------------------------------------------

TEST(ShardRemoteTest, ControlSurfaceDrivesTheClusterOverTheEndpoint) {
  Sharded f(2);
  f.boot();
  faas::Endpoint endpoint("shard-ep", "cloud");
  ASSERT_TRUE(register_shard_functions(endpoint, f.cluster).is_ok());

  Result<json::Value> routed = endpoint.execute(
      "shard_of", json::parse("{\"eq_type\":1}").value());
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.value()["shard"].as_int(), 1);
  EXPECT_EQ(routed.value()["key"].as_string(), "work_type");

  Result<json::Value> added = endpoint.execute(
      "shard_add_follower",
      json::parse("{\"shard\":1,\"id\":\"f1\",\"site\":\"theta\"}").value());
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added.value()["shard"].as_int(), 1);

  ShardRouter router(f.cluster);
  Result<TaskId> id = router.submit_task("e", 1, "{}");
  ASSERT_TRUE(id.ok());
  Result<json::Value> pumped = endpoint.execute("shard_pump", json::Value());
  ASSERT_TRUE(pumped.ok());
  EXPECT_GT(pumped.value()["batches_shipped"].as_int(), 0);

  Result<json::Value> status = endpoint.execute("shard_status", json::Value());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value()["shard_count"].as_int(), 2);
  EXPECT_EQ(status.value()["shards"].as_array().size(), 2u);

  ASSERT_TRUE(f.cluster.group(1).kill("lead1").is_ok());
  Result<json::Value> promoted = endpoint.execute(
      "shard_promote", json::parse("{\"shard\":1,\"id\":0}").value());
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value()["leader"].as_string(), "f1");
  EXPECT_EQ(promoted.value()["epoch"].as_int(), 2);

  // Bad shard indexes come back as kInvalidArgument, not crashes.
  EXPECT_EQ(endpoint.execute("shard_promote",
                             json::parse("{\"shard\":9}").value())
                .code(),
            ErrorCode::kInvalidArgument);
}

// --- the C API ---------------------------------------------------------------

TEST(ShardCapiTest, ConfiguredShardsRouteTheWholeListingOneSurface) {
  osprey_service* service = osprey_service_create();
  ASSERT_NE(service, nullptr);
  ASSERT_EQ(osprey_service_configure_shards(service, 2,
                                            OSPREY_SHARD_KEY_WORK_TYPE,
                                            OSPREY_SHARD_RANGE),
            OSPREY_OK);
  EXPECT_EQ(osprey_shard_count(service), 2u);
  ASSERT_EQ(osprey_service_start(service), OSPREY_OK);
  // Too late to reconfigure once started.
  EXPECT_EQ(osprey_service_configure_shards(service, 4,
                                            OSPREY_SHARD_KEY_WORK_TYPE,
                                            OSPREY_SHARD_HASH),
            OSPREY_E_CONFLICT);

  // Range keying with the default width: types 0 and 16 land on different
  // shards (sanity-check through the routing probe).
  uint32_t shard0 = 99, shard16 = 99;
  ASSERT_EQ(osprey_shard_of(service, 0, nullptr, &shard0), OSPREY_OK);
  ASSERT_EQ(osprey_shard_of(service, 16, nullptr, &shard16), OSPREY_OK);
  EXPECT_EQ(shard0, 0u);
  EXPECT_EQ(shard16, 1u);

  osprey_client* client = osprey_client_connect(service);
  ASSERT_NE(client, nullptr);

  int64_t id0 = 0, id16 = 0;
  ASSERT_EQ(osprey_submit_task(client, "exp", 0, "{\"x\":0}", 0, nullptr,
                               &id0),
            OSPREY_OK);
  ASSERT_EQ(osprey_submit_task(client, "exp", 16, "{\"x\":16}", 0, nullptr,
                               &id16),
            OSPREY_OK);
  // The shard index rides in the id's high bits; shard 0 stays identity.
  uint32_t s = 99;
  ASSERT_EQ(osprey_shard_of_task(service, id0, &s), OSPREY_OK);
  EXPECT_EQ(s, 0u);
  ASSERT_EQ(osprey_shard_of_task(service, id16, &s), OSPREY_OK);
  EXPECT_EQ(s, 1u);

  char payload[128];
  int64_t claimed = 0;
  ASSERT_EQ(osprey_query_task(client, 16, "pool", 0.01, 0.1, &claimed,
                              payload, sizeof payload),
            OSPREY_OK);
  EXPECT_EQ(claimed, id16);
  EXPECT_STREQ(payload, "{\"x\":16}");
  ASSERT_EQ(osprey_report_task(client, id16, 16, "{\"y\":16}"), OSPREY_OK);

  char result[128];
  ASSERT_EQ(osprey_query_result(client, id16, 0.01, 0.5, result,
                                sizeof result),
            OSPREY_OK);
  EXPECT_STREQ(result, "{\"y\":16}");

  // Aggregated stats cover both shards; per-shard stats split them.
  osprey_queue_stats stats;
  ASSERT_EQ(osprey_stats(client, &stats), OSPREY_OK);
  EXPECT_EQ(stats.queued, 1);
  EXPECT_EQ(stats.complete, 1);
  osprey_queue_stats shard_one;
  ASSERT_EQ(osprey_shard_stats(client, 1, &shard_one), OSPREY_OK);
  EXPECT_EQ(shard_one.complete, 1);
  EXPECT_EQ(shard_one.queued, 0);
  EXPECT_EQ(osprey_shard_stats(client, 2, &shard_one),
            OSPREY_E_INVALID_ARGUMENT);

  int64_t queued = 0;
  ASSERT_EQ(osprey_queued_count(client, 0, &queued), OSPREY_OK);
  EXPECT_EQ(queued, 1);

  size_t canceled = 0;
  const int64_t both[] = {id0, id16};
  ASSERT_EQ(osprey_cancel_tasks(client, both, 2, &canceled), OSPREY_OK);
  EXPECT_EQ(canceled, 1u);  // id16 already complete

  osprey_client_destroy(client);
  ASSERT_EQ(osprey_service_stop(service), OSPREY_OK);
  osprey_service_destroy(service);
}

TEST(ShardCapiTest, ExpIdClaimsRotateAcrossBackloggedShards) {
  osprey_service* service = osprey_service_create();
  ASSERT_EQ(osprey_service_configure_shards(service, 2, OSPREY_SHARD_KEY_EXP_ID,
                                            OSPREY_SHARD_HASH),
            OSPREY_OK);
  ASSERT_EQ(osprey_service_start(service), OSPREY_OK);
  osprey_client* client = osprey_client_connect(service);
  ASSERT_NE(client, nullptr);

  // Find one experiment id per shard and backlog both shards.
  std::string exp_on[2];
  for (int i = 0; exp_on[0].empty() || exp_on[1].empty(); ++i) {
    const std::string exp = "exp-" + std::to_string(i);
    uint32_t s = 99;
    ASSERT_EQ(osprey_shard_of(service, 1, exp.c_str(), &s), OSPREY_OK);
    if (exp_on[s].empty()) exp_on[s] = exp;
  }
  for (const std::string& exp : exp_on) {
    for (int i = 0; i < 10; ++i) {
      osprey_task_spec_t task;
      osprey_task_spec_init(&task);
      task.exp_id = exp.c_str();
      task.eq_type = 1;
      task.payload = "{}";
      int64_t id = 0;
      ASSERT_EQ(osprey_submit_task_v2(client, &task, &id), OSPREY_OK);
    }
  }

  // Each claim starts its scatter one shard further on, so consecutive
  // claims alternate between the shards instead of draining shard 0 first.
  osprey_claim_spec_t spec;
  osprey_claim_spec_init(&spec);
  spec.eq_type = 1;
  int per_shard[2] = {0, 0};
  for (int i = 0; i < 10; ++i) {
    int64_t id = 0;
    char payload[16];
    ASSERT_EQ(osprey_query_task_v2(client, &spec, &id, payload, sizeof payload),
              OSPREY_OK);
    uint32_t s = 99;
    ASSERT_EQ(osprey_shard_of_task(service, id, &s), OSPREY_OK);
    ++per_shard[s];
  }
  EXPECT_EQ(per_shard[0], 5);
  EXPECT_EQ(per_shard[1], 5);

  osprey_client_destroy(client);
  osprey_service_destroy(service);
}

TEST(ShardCapiTest, UnconfiguredServiceStaysSingleShardIdentity) {
  osprey_service* service = osprey_service_create();
  ASSERT_EQ(osprey_service_start(service), OSPREY_OK);
  EXPECT_EQ(osprey_shard_count(service), 1u);
  osprey_client* client = osprey_client_connect(service);
  ASSERT_NE(client, nullptr);
  int64_t id = 0;
  ASSERT_EQ(osprey_submit_task(client, "exp", 7, "{}", 0, nullptr, &id),
            OSPREY_OK);
  EXPECT_EQ(id, 1);  // dense local id, no shard bits
  osprey_client_destroy(client);
  osprey_service_destroy(service);
}

}  // namespace
}  // namespace osprey::shard
