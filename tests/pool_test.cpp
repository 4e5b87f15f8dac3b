// Tests for the worker pools: query policy, concurrency traces, the
// discrete-event pool, and the threaded pool.
#include <gtest/gtest.h>

#include "osprey/eqsql/schema.h"
#include "osprey/json/json.h"
#include "osprey/me/task_runners.h"
#include "osprey/pool/policy.h"
#include "osprey/pool/sim_pool.h"
#include "osprey/pool/threaded_pool.h"

namespace osprey::pool {
namespace {

constexpr WorkType kWork = 1;

// --- QueryPolicy ----------------------------------------------------------------

TEST(QueryPolicyTest, PaperExample) {
  // "if a worker pool is configured to possess 33 tasks at a time, if it
  // owns 30 uncompleted tasks when querying, it will only obtain 3".
  QueryPolicy policy(33, 1);
  EXPECT_EQ(policy.tasks_to_request(30), 3);
  EXPECT_EQ(policy.tasks_to_request(0), 33);
  EXPECT_EQ(policy.tasks_to_request(33), 0);
}

TEST(QueryPolicyTest, ThresholdGatesSmallDeficits) {
  QueryPolicy policy(33, 15);
  EXPECT_EQ(policy.tasks_to_request(32), 0);   // deficit 1 < 15
  EXPECT_EQ(policy.tasks_to_request(19), 0);   // deficit 14 < 15
  EXPECT_EQ(policy.tasks_to_request(18), 15);  // deficit 15 >= 15
  EXPECT_EQ(policy.tasks_to_request(0), 33);
}

TEST(QueryPolicyTest, OversubscriptionCachesBeyondWorkers) {
  QueryPolicy policy(50, 1);  // 50 > 33 workers: the Fig-3 top configuration
  EXPECT_EQ(policy.tasks_to_request(33), 17);
  EXPECT_EQ(policy.tasks_to_request(50), 0);
}

TEST(QueryPolicyTest, Validation) {
  EXPECT_TRUE(QueryPolicy::validate(33, 1, 33).is_ok());
  EXPECT_FALSE(QueryPolicy::validate(0, 1, 33).is_ok());
  EXPECT_FALSE(QueryPolicy::validate(33, 0, 33).is_ok());
  EXPECT_FALSE(QueryPolicy::validate(33, 34, 33).is_ok());
  EXPECT_FALSE(QueryPolicy::validate(33, 1, 0).is_ok());
}

// --- ConcurrencyTrace --------------------------------------------------------------

TEST(ConcurrencyTraceTest, StepSemanticsAndStats) {
  ConcurrencyTrace trace;
  trace.record(0.0, 0);
  trace.record(1.0, 10);
  trace.record(3.0, 4);
  trace.record(4.0, 0);
  EXPECT_EQ(trace.value_at(-1.0), 0);
  EXPECT_EQ(trace.value_at(0.5), 0);
  EXPECT_EQ(trace.value_at(1.0), 10);
  EXPECT_EQ(trace.value_at(2.9), 10);
  EXPECT_EQ(trace.value_at(3.5), 4);
  EXPECT_EQ(trace.value_at(100.0), 0);
  // Mean over [0,4]: 0*1 + 10*2 + 4*1 = 24 / 4.
  EXPECT_DOUBLE_EQ(trace.mean_concurrency(0.0, 4.0), 6.0);
  EXPECT_DOUBLE_EQ(trace.fraction_at_least(5, 0.0, 4.0), 0.5);
  EXPECT_EQ(trace.max_drop(), 6);
  EXPECT_EQ(trace.resample(0.0, 4.0, 1.0),
            (std::vector<int>{0, 10, 10, 4, 0}));
}

TEST(ConcurrencyTraceTest, SameTimeUpdatesCollapse) {
  ConcurrencyTrace trace;
  trace.record(1.0, 5);
  trace.record(1.0, 7);
  EXPECT_EQ(trace.points().size(), 1u);
  EXPECT_EQ(trace.value_at(1.0), 7);
}

TEST(ConcurrencyTraceTest, SparklineShape) {
  ConcurrencyTrace trace;
  trace.record(0.0, 0);
  trace.record(1.0, 33);
  std::string row = trace.sparkline(0.0, 2.0, 1.0, 33);
  EXPECT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], '.');
  EXPECT_EQ(row[1], '9');
}

// --- SimWorkerPool -------------------------------------------------------------------

class SimPoolTest : public ::testing::Test {
 protected:
  SimPoolTest() {
    db::sql::Connection conn(db_);
    EXPECT_TRUE(eqsql::create_schema(conn).is_ok());
    api_ = std::make_unique<eqsql::EQSQL>(db_, sim_);
  }

  eqsql::EQSQL& api() { return *api_; }

  void submit_tasks(int n, double value = 1.0) {
    std::vector<std::string> payloads(
        static_cast<std::size_t>(n),
        osprey::json::array_of({value, value}).dump());
    ASSERT_TRUE(api().submit_tasks("e", kWork, payloads).ok());
  }

  SimPoolConfig config(int workers, int batch, int threshold) {
    SimPoolConfig c;
    c.name = "pool1";
    c.work_type = kWork;
    c.num_workers = workers;
    c.batch_size = batch;
    c.threshold = threshold;
    c.query_cost = 0.2;
    c.query_jitter = 0.0;
    c.idle_shutdown = 5.0;
    return c;
  }

  sim::Simulation sim_;
  db::Database db_;
  std::unique_ptr<eqsql::EQSQL> api_;
};

TEST_F(SimPoolTest, ConsumesAllTasksAndShutsDown) {
  submit_tasks(40);
  bool shutdown = false;
  SimWorkerPool pool(sim_, api(), config(8, 8, 1),
                     me::ackley_sim_runner(2.0, 0.5));
  pool.set_on_shutdown([&] { shutdown = true; });
  ASSERT_TRUE(pool.start().is_ok());
  sim_.run();
  EXPECT_EQ(pool.tasks_completed(), 40u);
  EXPECT_TRUE(shutdown);
  EXPECT_EQ(api().queued_count(kWork).value(), 0);
  EXPECT_EQ(api().input_queue_depth().value(), 40);
  EXPECT_FALSE(pool.running());
}

TEST_F(SimPoolTest, ConcurrencyNeverExceedsWorkers) {
  submit_tasks(100);
  SimWorkerPool pool(sim_, api(), config(8, 16, 1),
                     me::ackley_sim_runner(2.0, 0.8));
  ASSERT_TRUE(pool.start().is_ok());
  sim_.run();
  for (const TracePoint& p : pool.trace().points()) {
    EXPECT_LE(p.running, 8);
    EXPECT_GE(p.running, 0);
  }
  EXPECT_EQ(pool.tasks_completed(), 100u);
}

TEST_F(SimPoolTest, OversubscriptionBeatsExactBatchUtilization) {
  // The Fig-3 contrast in miniature: batch > workers keeps workers busier
  // than batch == workers with threshold 1, because the cache absorbs the
  // query latency.
  // Run two separate simulations.
  double utilization[2];
  int batches[2] = {16, 8};
  for (int i = 0; i < 2; ++i) {
    sim::Simulation sim;
    db::Database db;
    db::sql::Connection conn(db);
    ASSERT_TRUE(eqsql::create_schema(conn).is_ok());
    eqsql::EQSQL api(db, sim);
    std::vector<std::string> payloads(200, osprey::json::array_of({1.0, 1.0}).dump());
    ASSERT_TRUE(api.submit_tasks("e", kWork, payloads).ok());
    SimPoolConfig c;
    c.work_type = kWork;
    c.num_workers = 8;
    c.batch_size = batches[i];
    c.threshold = 1;
    c.query_cost = 0.5;
    c.query_jitter = 0.0;
    c.idle_shutdown = 5.0;
    SimWorkerPool pool(sim, api, c, me::ackley_sim_runner(2.0, 0.5));
    ASSERT_TRUE(pool.start().is_ok());
    sim.run();
    EXPECT_EQ(pool.tasks_completed(), 200u);
    utilization[i] =
        pool.trace().mean_concurrency(2.0, 40.0) / c.num_workers;
  }
  EXPECT_GT(utilization[0], utilization[1]);
}

TEST_F(SimPoolTest, HighThresholdCreatesDeepSawTooth) {
  submit_tasks(200);
  SimWorkerPool pool(sim_, api(), config(8, 8, 4),
                     me::ackley_sim_runner(2.0, 0.3));
  ASSERT_TRUE(pool.start().is_ok());
  sim_.run();
  EXPECT_EQ(pool.tasks_completed(), 200u);
  // With threshold 4, at least 4 tasks must finish before a refill: the
  // trace must contain drops of depth >= 3 at steady state.
  EXPECT_GE(pool.trace().max_drop(), 1);
  // Fewer queries than a threshold-1 pool would need.
  EXPECT_LT(pool.queries_issued(), 200u / 3);
}

TEST_F(SimPoolTest, RespectsWorkType) {
  std::vector<std::string> payloads(5, osprey::json::array_of({1.0}).dump());
  ASSERT_TRUE(api().submit_tasks("e", 2, payloads).ok());  // different type
  SimWorkerPool pool(sim_, api(), config(4, 4, 1),
                     me::ackley_sim_runner(1.0, 0.0));
  ASSERT_TRUE(pool.start().is_ok());
  sim_.run();
  EXPECT_EQ(pool.tasks_completed(), 0u);
  EXPECT_EQ(api().queued_count(2).value(), 5);
}

TEST_F(SimPoolTest, StopRequeuesCachedTasks) {
  submit_tasks(50);
  SimWorkerPool pool(sim_, api(), config(4, 16, 1),
                     me::ackley_sim_runner(10.0, 0.0));
  ASSERT_TRUE(pool.start().is_ok());
  sim_.run_until(2.0);  // claimed 16, running 4, 12 cached
  EXPECT_EQ(pool.running_tasks(), 4);
  EXPECT_EQ(pool.cached_tasks(), 12);
  pool.stop();
  // The 12 cached tasks went back to the queue immediately.
  EXPECT_EQ(api().queued_count(kWork).value(), 50 - 16 + 12);
  sim_.run();
  // The 4 running tasks finished and reported.
  EXPECT_EQ(pool.tasks_completed(), 4u);
}

TEST_F(SimPoolTest, CrashRecoveryViaRequeue) {
  submit_tasks(20);
  SimWorkerPool pool(sim_, api(), config(4, 8, 1),
                     me::ackley_sim_runner(10.0, 0.0));
  ASSERT_TRUE(pool.start().is_ok());
  sim_.run_until(2.0);
  pool.crash();
  // 8 tasks are stranded in 'running' under pool1.
  EXPECT_EQ(api().queued_count(kWork).value(), 12);
  auto recovered = api().requeue_pool_tasks("pool1");
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 8u);
  EXPECT_EQ(api().queued_count(kWork).value(), 20);
  // A fresh pool finishes the workload.
  SimPoolConfig c2 = config(4, 8, 1);
  c2.name = "pool2";
  SimWorkerPool rescue(sim_, api(), c2, me::ackley_sim_runner(1.0, 0.0));
  ASSERT_TRUE(rescue.start().is_ok());
  sim_.run();
  EXPECT_EQ(rescue.tasks_completed(), 20u);
}

TEST_F(SimPoolTest, TwoPoolsShareWorkEquitably) {
  submit_tasks(120);
  SimPoolConfig c1 = config(8, 8, 1);
  SimPoolConfig c2 = config(8, 8, 1);
  c2.name = "pool2";
  SimWorkerPool p1(sim_, api(), c1, me::ackley_sim_runner(2.0, 0.3), 17);
  SimWorkerPool p2(sim_, api(), c2, me::ackley_sim_runner(2.0, 0.3), 23);
  ASSERT_TRUE(p1.start().is_ok());
  ASSERT_TRUE(p2.start().is_ok());
  sim_.run();
  EXPECT_EQ(p1.tasks_completed() + p2.tasks_completed(), 120u);
  // "equitably sharing work among multiple worker pools" (§IV-D).
  EXPECT_GT(p1.tasks_completed(), 40u);
  EXPECT_GT(p2.tasks_completed(), 40u);
}

TEST_F(SimPoolTest, RejectsBadConfig) {
  SimPoolConfig bad = config(4, 4, 5);  // threshold > batch
  SimWorkerPool pool(sim_, api(), bad, me::ackley_sim_runner(1.0, 0.0));
  EXPECT_FALSE(pool.start().is_ok());
}

// --- ThreadedWorkerPool -----------------------------------------------------------

class ThreadedPoolTest : public ::testing::Test {
 protected:
  ThreadedPoolTest() : conn_(db_) {
    EXPECT_TRUE(eqsql::create_schema(conn_).is_ok());
    api_ = std::make_unique<eqsql::EQSQL>(db_, clock_);
  }

  PoolConfig config(int workers) {
    PoolConfig c;
    c.name = "tpool";
    c.work_type = kWork;
    c.num_workers = workers;
    c.batch_size = workers;
    c.threshold = 1;
    c.poll_interval = 0.005;
    c.idle_shutdown = 0.05;
    return c;
  }

  db::Database db_;
  db::sql::Connection conn_;
  RealClock clock_;
  std::unique_ptr<eqsql::EQSQL> api_;
};

TEST_F(ThreadedPoolTest, ExecutesAllTasksWithRealThreads) {
  std::vector<std::string> payloads(30, osprey::json::array_of({0.5, 0.5}).dump());
  ASSERT_TRUE(api_->submit_tasks("e", kWork, payloads).ok());
  ThreadedWorkerPool pool(*api_, config(4),
                          me::ackley_threaded_runner(0.002, 0.5, 5));
  ASSERT_TRUE(pool.start().is_ok());
  ASSERT_TRUE(pool.wait_until_shutdown(20.0));
  EXPECT_EQ(pool.tasks_completed(), 30u);
  EXPECT_EQ(api_->input_queue_depth().value(), 30);
  // Every result parses and contains the Ackley value.
  auto ids = api_->experiment_tasks("e").value();
  auto rec = api_->task_record(ids.front()).value();
  ASSERT_TRUE(rec.result.has_value());
  auto parsed = osprey::json::parse(*rec.result);
  ASSERT_TRUE(parsed.ok());
  EXPECT_GT(parsed.value()["y"].as_double(), 0.0);
}

TEST_F(ThreadedPoolTest, StopIsGracefulAndIdempotent) {
  std::vector<std::string> payloads(50, osprey::json::array_of({1.0}).dump());
  ASSERT_TRUE(api_->submit_tasks("e", kWork, payloads).ok());
  ThreadedWorkerPool pool(*api_, config(2),
                          me::ackley_threaded_runner(0.01, 0.0, 5));
  ASSERT_TRUE(pool.start().is_ok());
  RealClock::sleep_for(0.05);
  pool.stop();
  pool.stop();  // second stop is a no-op
  std::uint64_t done = pool.tasks_completed();
  EXPECT_GT(done, 0u);
  EXPECT_LT(done, 50u);
  // Everything not completed is either queued (requeued cache) or was
  // reported: nothing is lost.
  auto stats_queued = api_->queued_count(kWork).value();
  EXPECT_EQ(static_cast<std::uint64_t>(stats_queued) + done, 50u);
}

TEST_F(ThreadedPoolTest, PollModeBacksOffWhileIdle) {
  // No notifier: the pool polls. Idle delays grow 10, 20, 40, 40, ... ms,
  // so 0.3 s holds about 9 queries, not the ~30 of a fixed 10 ms interval.
  PoolConfig c = config(1);
  c.poll_interval = 0.01;
  c.poll_backoff = 2.0;
  c.poll_max_interval = 0.04;
  c.idle_shutdown = 0.0;
  ThreadedWorkerPool pool(*api_, c, me::ackley_threaded_runner(0.001, 0.0, 5));
  ASSERT_TRUE(pool.start().is_ok());
  RealClock::sleep_for(0.3);
  EXPECT_LE(pool.queries_issued(), 12u);
  // Backed off, not stalled: work submitted now is still claimed and run.
  ASSERT_TRUE(
      api_->submit_task("e", kWork, osprey::json::array_of({1.0}).dump()).ok());
  for (int i = 0; i < 500 && pool.tasks_completed() == 0; ++i) {
    RealClock::sleep_for(0.01);
  }
  EXPECT_EQ(pool.tasks_completed(), 1u);
  pool.stop();
}

TEST_F(ThreadedPoolTest, DoubleStartRejected) {
  ThreadedWorkerPool pool(*api_, config(1),
                          me::ackley_threaded_runner(0.001, 0.0, 5));
  ASSERT_TRUE(pool.start().is_ok());
  EXPECT_EQ(pool.start().code(), ErrorCode::kConflict);
  pool.stop();
}

}  // namespace
}  // namespace osprey::pool
