// Tests for the EQSQL task-queue API: submission, claiming, reporting,
// priorities, cancellation, batch operations, and service lifecycle.
#include <gtest/gtest.h>

#include <thread>

#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/future.h"
#include "osprey/eqsql/schema.h"
#include "osprey/eqsql/service.h"

namespace osprey::eqsql {
namespace {

constexpr WorkType kSimWork = 1;
constexpr WorkType kGpuWork = 2;

class EqsqlTest : public ::testing::Test {
 protected:
  EqsqlTest() : conn_(db_) {
    EXPECT_TRUE(create_schema(conn_).is_ok());
    // No-sleep sleeper: polling tests advance the manual clock instead.
    api_ = std::make_unique<EQSQL>(db_, clock_);
    WaitRouting routing;
    routing.sleeper = [this](Duration d) { clock_.advance(d); };
    api_->set_wait_routing(std::move(routing));
  }

  db::Database db_;
  db::sql::Connection conn_;
  ManualClock clock_;
  std::unique_ptr<EQSQL> api_;
};

TEST_F(EqsqlTest, SchemaHasSixTables) {
  EXPECT_TRUE(schema_exists(db_));
  EXPECT_EQ(db_.table_names().size(), 6u);
}

TEST_F(EqsqlTest, SubmitAssignsSequentialIds) {
  auto id1 = api_->submit_task("exp1", kSimWork, "[1]");
  auto id2 = api_->submit_task("exp1", kSimWork, "[2]");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(id2.value(), id1.value() + 1);
}

TEST_F(EqsqlTest, SubmitRecordsEverything) {
  clock_.set(12.0);
  auto id = api_->submit_task("exp1", kSimWork, "{\"x\": 3}", 7, "gen0");
  ASSERT_TRUE(id.ok());
  auto record = api_->task_record(id.value());
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record.value().exp_id, "exp1");
  EXPECT_EQ(record.value().eq_type, kSimWork);
  EXPECT_EQ(record.value().status, TaskStatus::kQueued);
  EXPECT_EQ(record.value().priority, 7);
  EXPECT_EQ(record.value().payload, "{\"x\": 3}");
  EXPECT_DOUBLE_EQ(record.value().created_at, 12.0);
  EXPECT_FALSE(record.value().start_at.has_value());
  auto tagged = api_->tagged_tasks("gen0");
  ASSERT_TRUE(tagged.ok());
  EXPECT_EQ(tagged.value(), std::vector<TaskId>{id.value()});
  EXPECT_EQ(api_->queued_count(kSimWork).value(), 1);
}

TEST_F(EqsqlTest, ClaimPopsHighestPriorityFirstFifoOnTies) {
  auto a = api_->submit_task("e", kSimWork, "a", 1).value();
  auto b = api_->submit_task("e", kSimWork, "b", 5).value();
  auto c = api_->submit_task("e", kSimWork, "c", 5).value();
  (void)a;
  auto tasks = api_->try_query_tasks(kSimWork, 2, "pool1");
  ASSERT_TRUE(tasks.ok());
  ASSERT_EQ(tasks.value().size(), 2u);
  EXPECT_EQ(tasks.value()[0].eq_task_id, b);  // highest priority, lowest id
  EXPECT_EQ(tasks.value()[1].eq_task_id, c);
  EXPECT_EQ(tasks.value()[0].payload, "b");
  EXPECT_EQ(api_->queued_count(kSimWork).value(), 1);
}

TEST_F(EqsqlTest, ClaimMarksRunningWithPoolAndStartTime) {
  clock_.set(3.0);
  auto id = api_->submit_task("e", kSimWork, "x").value();
  clock_.set(9.0);
  ASSERT_TRUE(api_->try_query_tasks(kSimWork, 1, "bebop_pool").ok());
  auto record = api_->task_record(id).value();
  EXPECT_EQ(record.status, TaskStatus::kRunning);
  EXPECT_EQ(record.worker_pool.value(), "bebop_pool");
  EXPECT_DOUBLE_EQ(record.start_at.value(), 9.0);
}

TEST_F(EqsqlTest, ClaimRespectsWorkType) {
  api_->submit_task("e", kSimWork, "sim").value();
  auto gpu = api_->try_query_tasks(kGpuWork, 5);
  ASSERT_TRUE(gpu.ok());
  EXPECT_TRUE(gpu.value().empty());  // a GPU pool never sees sim tasks
  auto sim = api_->try_query_tasks(kSimWork, 5);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim.value().size(), 1u);
}

TEST_F(EqsqlTest, TaskNeverClaimedTwice) {
  api_->submit_task("e", kSimWork, "x").value();
  EXPECT_EQ(api_->try_query_tasks(kSimWork, 1, "p1").value().size(), 1u);
  EXPECT_TRUE(api_->try_query_tasks(kSimWork, 1, "p2").value().empty());
}

TEST_F(EqsqlTest, BatchedPoolQueryAppliesDeficitAndThreshold) {
  // §IV-D: "if a worker pool is configured to possess 33 tasks at a time,
  // if it owns 30 uncompleted tasks when querying the output queue, it will
  // only obtain 3 additional tasks."
  for (int i = 0; i < 40; ++i) {
    api_->submit_task("e", kSimWork, "t").value();
  }
  auto three = api_->try_query_tasks_batched(kSimWork, 33, 1, 30, "p");
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three.value().size(), 3u);
  // Deficit below the threshold: nothing obtained.
  auto gated = api_->try_query_tasks_batched(kSimWork, 33, 15, 19, "p");
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated.value().empty());
  // Deficit meets the threshold: the full deficit is requested.
  auto fifteen = api_->try_query_tasks_batched(kSimWork, 33, 15, 18, "p");
  ASSERT_TRUE(fifteen.ok());
  EXPECT_EQ(fifteen.value().size(), 15u);
  // Bad arguments.
  EXPECT_EQ(api_->try_query_tasks_batched(kSimWork, 0, 1, 0, "p").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(api_->try_query_tasks_batched(kSimWork, 33, 0, 0, "p").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(api_->try_query_tasks_batched(kSimWork, 33, 1, -1, "p").code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(EqsqlTest, BlockingQueryTimesOutWithProtocolError) {
  auto r = api_->query_task(kSimWork, 1, "p", {0.5, 2.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  // 'TIMEOUT' matches the paper's status payload string.
  EXPECT_STREQ(error_code_name(r.code()), "TIMEOUT");
  EXPECT_GE(clock_.now(), 1.5);  // the sleeper advanced the manual clock
}

TEST_F(EqsqlTest, BlockingQueryReturnsPartialBatchImmediately) {
  // query_task(n=5) with 2 available returns the 2 without waiting for 5.
  api_->submit_task("e", kSimWork, "a").value();
  api_->submit_task("e", kSimWork, "b").value();
  auto tasks = api_->query_task(kSimWork, 5, "p", {0.5, 10.0});
  ASSERT_TRUE(tasks.ok());
  EXPECT_EQ(tasks.value().size(), 2u);
  EXPECT_LT(clock_.now(), 0.5);  // no poll sleep happened
}

TEST_F(EqsqlTest, EmptyBatchSubmissionIsNoop) {
  auto ids = api_->submit_tasks("e", kSimWork, {});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids.value().empty());
  EXPECT_EQ(api_->queued_count(kSimWork).value(), 0);
  EXPECT_EQ(api_->update_priorities({}, {1}).value(), 0u);
  EXPECT_EQ(api_->cancel_tasks({}).value(), 0u);
  EXPECT_TRUE(api_->try_query_completed({}, 5).value().empty());
  EXPECT_TRUE(api_->try_query_tasks(kSimWork, 0).value().empty());
}

TEST_F(EqsqlTest, SubmitFailureRollsBackAtomically) {
  // A batch with one oversized... our engine has no size limits; instead
  // force failure via a conflicting insert: drop the experiments table so
  // mid-batch inserts fail, then verify nothing was half-committed.
  ASSERT_TRUE(db_.drop_table(eqsql::kExperimentsTable).is_ok());
  auto ids = api_->submit_tasks("e", kSimWork, {"a", "b"});
  ASSERT_FALSE(ids.ok());
  // The tasks table and the output queue rolled back with it.
  db::sql::Connection conn(db_);
  EXPECT_EQ(conn.execute("SELECT COUNT(*) FROM eq_tasks")
                .value().rows[0][0].as_int(), 0);
  EXPECT_EQ(conn.execute("SELECT COUNT(*) FROM eq_output_queue")
                .value().rows[0][0].as_int(), 0);
}

TEST_F(EqsqlTest, ReportCompletesTaskAndFillsInputQueue) {
  auto id = api_->submit_task("e", kSimWork, "x").value();
  ASSERT_TRUE(api_->try_query_tasks(kSimWork, 1).ok());
  clock_.set(42.0);
  ASSERT_TRUE(api_->report_task(id, kSimWork, "{\"y\": 1.5}").is_ok());
  auto record = api_->task_record(id).value();
  EXPECT_EQ(record.status, TaskStatus::kComplete);
  EXPECT_EQ(record.result.value(), "{\"y\": 1.5}");
  EXPECT_DOUBLE_EQ(record.stop_at.value(), 42.0);
  EXPECT_EQ(api_->input_queue_depth().value(), 1);
}

TEST_F(EqsqlTest, QueryResultPopsInputQueue) {
  auto id = api_->submit_task("e", kSimWork, "x").value();
  ASSERT_TRUE(api_->try_query_tasks(kSimWork, 1).ok());
  ASSERT_TRUE(api_->report_task(id, kSimWork, "7.5").is_ok());
  auto result = api_->try_query_result(id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "7.5");
  EXPECT_EQ(api_->input_queue_depth().value(), 0);
  // A second query still finds the result in the tasks table.
  EXPECT_EQ(api_->try_query_result(id).value(), "7.5");
}

TEST_F(EqsqlTest, QueryResultPendingAndMissing) {
  auto id = api_->submit_task("e", kSimWork, "x").value();
  EXPECT_EQ(api_->try_query_result(id).code(), ErrorCode::kNotFound);
  EXPECT_EQ(api_->try_query_result(9999).code(), ErrorCode::kNotFound);
  auto blocked = api_->query_result(id, {0.5, 1.5});
  EXPECT_EQ(blocked.code(), ErrorCode::kTimeout);
  EXPECT_EQ(api_->query_result(9999, {0.5, 1.5}).code(), ErrorCode::kNotFound);
}

TEST_F(EqsqlTest, CancelQueuedRemovesFromOutputQueue) {
  auto a = api_->submit_task("e", kSimWork, "a").value();
  auto b = api_->submit_task("e", kSimWork, "b").value();
  auto n = api_->cancel_tasks({a});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(api_->queued_count(kSimWork).value(), 1);
  EXPECT_EQ(api_->task_status(a).value(), TaskStatus::kCanceled);
  auto next = api_->try_query_tasks(kSimWork, 5).value();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].eq_task_id, b);
}

TEST_F(EqsqlTest, CancelRunningDropsLateResult) {
  auto id = api_->submit_task("e", kSimWork, "x").value();
  ASSERT_TRUE(api_->try_query_tasks(kSimWork, 1).ok());
  EXPECT_EQ(api_->cancel_tasks({id}).value(), 1u);
  // The worker reports after cancellation: result dropped, status stays.
  Status late = api_->report_task(id, kSimWork, "ignored");
  EXPECT_EQ(late.code(), ErrorCode::kCanceled);
  EXPECT_EQ(api_->task_status(id).value(), TaskStatus::kCanceled);
  EXPECT_EQ(api_->input_queue_depth().value(), 0);
}

TEST_F(EqsqlTest, CancelCompleteIsNoop) {
  auto id = api_->submit_task("e", kSimWork, "x").value();
  ASSERT_TRUE(api_->try_query_tasks(kSimWork, 1).ok());
  ASSERT_TRUE(api_->report_task(id, kSimWork, "r").is_ok());
  EXPECT_EQ(api_->cancel_tasks({id}).value(), 0u);
  EXPECT_EQ(api_->task_status(id).value(), TaskStatus::kComplete);
}

TEST_F(EqsqlTest, UpdatePrioritiesReordersQueue) {
  auto a = api_->submit_task("e", kSimWork, "a", 3).value();
  auto b = api_->submit_task("e", kSimWork, "b", 2).value();
  auto c = api_->submit_task("e", kSimWork, "c", 1).value();
  // Invert the order: c becomes most urgent.
  auto n = api_->update_priorities({a, b, c}, {1, 2, 3});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  auto tasks = api_->try_query_tasks(kSimWork, 3).value();
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].eq_task_id, c);
  EXPECT_EQ(tasks[1].eq_task_id, b);
  EXPECT_EQ(tasks[2].eq_task_id, a);
}

TEST_F(EqsqlTest, UpdatePrioritiesBroadcastAndValidation) {
  auto a = api_->submit_task("e", kSimWork, "a", 0).value();
  auto b = api_->submit_task("e", kSimWork, "b", 0).value();
  EXPECT_EQ(api_->update_priorities({a, b}, {9}).value(), 2u);
  EXPECT_EQ(api_->task_priority(a).value(), 9);
  EXPECT_EQ(api_->task_priority(b).value(), 9);
  EXPECT_EQ(api_->update_priorities({a, b}, {1, 2, 3}).code(),
            ErrorCode::kInvalidArgument);
  // A task listed twice counts once, element-wise or broadcast, and its
  // last priority wins.
  EXPECT_EQ(api_->update_priorities({a, a}, {1, 2}).value(), 1u);
  EXPECT_EQ(api_->task_priority(a).value(), 2);
  EXPECT_EQ(api_->update_priorities({a, a}, {9}).value(), 1u);
  EXPECT_EQ(api_->task_priority(a).value(), 9);
}

TEST_F(EqsqlTest, UpdatePrioritySkipsClaimedTasks) {
  auto a = api_->submit_task("e", kSimWork, "a").value();
  auto b = api_->submit_task("e", kSimWork, "b").value();
  ASSERT_EQ(api_->try_query_tasks(kSimWork, 1).value()[0].eq_task_id, a);
  // a is running: only b is repositioned in the output queue.
  EXPECT_EQ(api_->update_priorities({a, b}, {5}).value(), 1u);
}

TEST_F(EqsqlTest, BatchStatusesPreserveOrder) {
  auto a = api_->submit_task("e", kSimWork, "a").value();
  auto b = api_->submit_task("e", kSimWork, "b").value();
  ASSERT_TRUE(api_->try_query_tasks(kSimWork, 1).ok());  // claims a
  auto statuses = api_->task_statuses({b, a});
  ASSERT_TRUE(statuses.ok());
  EXPECT_EQ(statuses.value()[0], TaskStatus::kQueued);
  EXPECT_EQ(statuses.value()[1], TaskStatus::kRunning);
  EXPECT_EQ(api_->task_statuses({a, 999}).code(), ErrorCode::kNotFound);
  // Duplicates are answered per input.
  auto repeated = api_->task_statuses({b, a, a});
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated.value(),
            (std::vector<TaskStatus>{TaskStatus::kQueued, TaskStatus::kRunning,
                                     TaskStatus::kRunning}));
}

TEST_F(EqsqlTest, TryQueryCompletedBatch) {
  std::vector<TaskId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(api_->submit_task("e", kSimWork, "t").value());
  }
  auto handles = api_->try_query_tasks(kSimWork, 5).value();
  ASSERT_TRUE(api_->report_task(handles[1].eq_task_id, kSimWork, "r1").is_ok());
  ASSERT_TRUE(api_->report_task(handles[3].eq_task_id, kSimWork, "r3").is_ok());
  auto done = api_->try_query_completed(ids, 10);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().size(), 2u);
  // Popped from the input queue: a second call returns nothing.
  EXPECT_TRUE(api_->try_query_completed(ids, 10).value().empty());
  // Unsorted ids with duplicates: each completed task once, ascending.
  ASSERT_TRUE(api_->report_task(handles[0].eq_task_id, kSimWork, "r0").is_ok());
  ASSERT_TRUE(api_->report_task(handles[4].eq_task_id, kSimWork, "r4").is_ok());
  EXPECT_EQ(api_->try_query_completed({ids[4], ids[0], ids[0]}, 5).value(),
            (std::vector<TaskId>{ids[0], ids[4]}));
}

TEST_F(EqsqlTest, StatementCacheDoesNotGrowWithCampaignSize) {
  // pop_completed over a shrinking future list, as an ME loop does. Every
  // statement EQSQL issues is fixed text, so a 300-task campaign leaves no
  // more parsed statements on the connection than a 10-task one.
  auto campaign = [&](int n) {
    std::vector<std::string> payloads(static_cast<std::size_t>(n), "x");
    auto futures = submit_task_futures(*api_, "e", kSimWork, payloads).value();
    const auto handles = api_->try_query_tasks(kSimWork, n).value();
    for (const TaskHandle& h : handles) {
      EXPECT_TRUE(api_->report_task(h.eq_task_id, kSimWork, "r").is_ok());
    }
    while (!futures.empty()) {
      if (!pop_completed(futures, 1.0).ok()) break;
    }
    EXPECT_TRUE(futures.empty());
    return api_->cached_statements();
  };
  const std::size_t after_small = campaign(10);
  EXPECT_EQ(campaign(300), after_small);
}

TEST_F(EqsqlTest, ExperimentLinksTasks) {
  auto a = api_->submit_task("exp_A", kSimWork, "a").value();
  api_->submit_task("exp_B", kSimWork, "b").value();
  auto c = api_->submit_task("exp_A", kSimWork, "c").value();
  auto tasks = api_->experiment_tasks("exp_A");
  ASSERT_TRUE(tasks.ok());
  EXPECT_EQ(tasks.value(), (std::vector<TaskId>{a, c}));
}

TEST_F(EqsqlTest, SubmitBatchIsAtomicAndOrdered) {
  auto ids = api_->submit_tasks("e", kSimWork, {"a", "b", "c"}, 2);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids.value().size(), 3u);
  EXPECT_EQ(ids.value()[1], ids.value()[0] + 1);
  EXPECT_EQ(ids.value()[2], ids.value()[0] + 2);
  EXPECT_EQ(api_->queued_count(kSimWork).value(), 3);
}

// --- futures -----------------------------------------------------------------

TEST_F(EqsqlTest, FutureLifecycle) {
  auto ft = submit_task_future(*api_, "e", kSimWork, "[1,2]", 4);
  ASSERT_TRUE(ft.ok());
  TaskFuture future = ft.value();
  EXPECT_TRUE(future.valid());
  EXPECT_EQ(future.status().value(), TaskStatus::kQueued);
  EXPECT_EQ(future.priority().value(), 4);
  EXPECT_FALSE(future.done());
  EXPECT_EQ(future.try_result().code(), ErrorCode::kNotFound);

  auto handle = api_->try_query_tasks(kSimWork, 1).value()[0];
  EXPECT_EQ(handle.eq_task_id, future.task_id());
  EXPECT_EQ(future.status().value(), TaskStatus::kRunning);
  ASSERT_TRUE(api_->report_task(handle.eq_task_id, kSimWork, "done").is_ok());
  EXPECT_TRUE(future.done());
  EXPECT_EQ(future.result().value(), "done");
  // Cached: the input queue was popped but the result stays available.
  EXPECT_EQ(future.result().value(), "done");
}

TEST_F(EqsqlTest, FutureSetPriorityAndCancel) {
  TaskFuture future = submit_task_future(*api_, "e", kSimWork, "x", 1).value();
  ASSERT_TRUE(future.set_priority(42).is_ok());
  EXPECT_EQ(future.priority().value(), 42);
  EXPECT_EQ(future.cancel().value(), true);
  EXPECT_EQ(future.status().value(), TaskStatus::kCanceled);
  EXPECT_EQ(future.result({0.1, 0.2}).code(), ErrorCode::kCanceled);
  EXPECT_EQ(future.cancel().value(), false);  // second cancel: nothing new
}

TEST_F(EqsqlTest, AsCompletedFindsFinishedFutures) {
  auto futures =
      submit_task_futures(*api_, "e", kSimWork, {"a", "b", "c", "d"}).value();
  auto handles = api_->try_query_tasks(kSimWork, 4).value();
  ASSERT_TRUE(api_->report_task(handles[0].eq_task_id, kSimWork, "r0").is_ok());
  ASSERT_TRUE(api_->report_task(handles[2].eq_task_id, kSimWork, "r2").is_ok());
  auto done = as_completed(futures, 2, 1.0);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().size(), 2u);
  EXPECT_EQ(futures[done.value()[0]].try_result().value(), "r0");
  EXPECT_EQ(futures[done.value()[1]].try_result().value(), "r2");
}

TEST_F(EqsqlTest, AsCompletedTimesOut) {
  auto futures = submit_task_futures(*api_, "e", kSimWork, {"a", "b"}).value();
  auto r = as_completed(futures, 1, 1.5);
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);

  // Poll mode follows the WaitSpec cadence: each empty probe doubles the
  // sleep (poll_backoff 2) until it reaches poll_max_delay.
  std::vector<Duration> sleeps;
  WaitRouting routing;
  routing.sleeper = [&](Duration d) {
    sleeps.push_back(d);
    clock_.advance(d);
  };
  api_->set_wait_routing(std::move(routing));
  r = as_completed(futures, 1, WaitSpec(0.1, 2.0, 2.0, 0.5));
  EXPECT_EQ(r.code(), ErrorCode::kTimeout);
  const std::vector<Duration> expected = {0.1, 0.2, 0.4, 0.5, 0.5};
  ASSERT_EQ(sleeps.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(sleeps[i], expected[i]) << "sleep " << i;
  }
}

TEST_F(EqsqlTest, PopCompletedRemovesFromList) {
  auto futures = submit_task_futures(*api_, "e", kSimWork, {"a", "b"}).value();
  auto handles = api_->try_query_tasks(kSimWork, 2).value();
  ASSERT_TRUE(api_->report_task(handles[1].eq_task_id, kSimWork, "rb").is_ok());
  auto popped = pop_completed(futures, 1.0);
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped.value().try_result().value(), "rb");
  EXPECT_EQ(futures.size(), 1u);
  EXPECT_EQ(futures[0].task_id(), handles[0].eq_task_id);
}

TEST_F(EqsqlTest, BatchUpdatePriorityOnFutures) {
  auto futures =
      submit_task_futures(*api_, "e", kSimWork, {"a", "b", "c"}).value();
  auto n = update_priority(futures, {3, 2, 1});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_EQ(futures[0].priority().value(), 3);
  EXPECT_EQ(futures[2].priority().value(), 1);
  EXPECT_EQ(cancel(futures).value(), 3u);
}

TEST_F(EqsqlTest, PopCompletedSkipsCanceledFutures) {
  auto futures = submit_task_futures(*api_, "e", kSimWork, {"a", "b"}).value();
  // Cancel the first; complete the second.
  ASSERT_TRUE(futures[0].cancel().ok());
  auto handles = api_->try_query_tasks(kSimWork, 2).value();
  ASSERT_EQ(handles.size(), 1u);  // only b remains claimable
  ASSERT_TRUE(api_->report_task(handles[0].eq_task_id, kSimWork, "rb").is_ok());
  auto popped = pop_completed(futures, 1.0);
  ASSERT_TRUE(popped.ok());
  EXPECT_EQ(popped.value().try_result().value(), "rb");
  // Only the canceled future remains; it can never complete.
  ASSERT_EQ(futures.size(), 1u);
  EXPECT_EQ(as_completed(futures, 1, 1.0).code(), ErrorCode::kTimeout);
}

TEST_F(EqsqlTest, RequeuePreservesPriority) {
  auto id = api_->submit_task("e", kSimWork, "x", 7).value();
  ASSERT_EQ(api_->try_query_tasks(kSimWork, 1, "p").value().size(), 1u);
  ASSERT_EQ(api_->requeue_tasks({id}).value(), 1u);
  auto record = api_->task_record(id).value();
  EXPECT_EQ(record.status, TaskStatus::kQueued);
  EXPECT_EQ(record.priority, 7);
  EXPECT_FALSE(record.worker_pool.has_value());
  EXPECT_FALSE(record.start_at.has_value());
  // And it pops again at that priority.
  api_->submit_task("e", kSimWork, "low", 1).value();
  auto next = api_->try_query_tasks(kSimWork, 1, "p2").value();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].eq_task_id, id);
  // Listed twice, requeued once: one output-queue row, no key conflict.
  EXPECT_EQ(api_->requeue_tasks({id, id}).value(), 1u);
  EXPECT_EQ(api_->queued_count(kSimWork).value(), 2);
  EXPECT_EQ(api_->task_status(id).value(), TaskStatus::kQueued);
}

TEST_F(EqsqlTest, RequeueIgnoresNonRunningTasks) {
  auto queued = api_->submit_task("e", kSimWork, "q").value();
  auto done = api_->submit_task("e", kSimWork, "d").value();
  auto handles = api_->try_query_tasks(kSimWork, 2).value();
  // handles[0] is `queued`... actually both claimed; report one.
  ASSERT_EQ(handles.size(), 2u);
  ASSERT_TRUE(api_->report_task(done, kSimWork, "r").is_ok());
  // Requeue both: only the still-running one goes back.
  EXPECT_EQ(api_->requeue_tasks({queued, done}).value(), 1u);
  EXPECT_EQ(api_->task_status(done).value(), TaskStatus::kComplete);
  EXPECT_EQ(api_->task_status(queued).value(), TaskStatus::kQueued);
}

// --- concurrency (threaded claim safety) --------------------------------------

TEST(EqsqlConcurrencyTest, ParallelClaimsNeverDuplicate) {
  db::Database database;
  db::sql::Connection conn(database);
  ASSERT_TRUE(create_schema(conn).is_ok());
  RealClock clock;
  EQSQL submit_api(database, clock);
  const int kTasks = 200;
  std::vector<std::string> payloads(kTasks, "[0]");
  ASSERT_TRUE(submit_api.submit_tasks("e", kSimWork, payloads).ok());

  constexpr int kThreads = 4;
  std::vector<std::vector<TaskId>> claimed(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&database, &clock, &claimed, t] {
      EQSQL api(database, clock);
      while (true) {
        auto tasks = api.try_query_tasks(kSimWork, 3, "pool" + std::to_string(t));
        ASSERT_TRUE(tasks.ok());
        if (tasks.value().empty()) break;
        for (const TaskHandle& h : tasks.value()) {
          claimed[static_cast<std::size_t>(t)].push_back(h.eq_task_id);
          ASSERT_TRUE(api.report_task(h.eq_task_id, kSimWork, "r").is_ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::set<TaskId> all;
  std::size_t total = 0;
  for (const auto& ids : claimed) {
    total += ids.size();
    all.insert(ids.begin(), ids.end());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kTasks));  // no duplicates
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kTasks));  // no losses
}

// --- service ------------------------------------------------------------------

TEST(EmewsServiceTest, LifecycleAndStats) {
  ManualClock clock;
  EmewsService service(clock);
  EXPECT_FALSE(service.running());
  EXPECT_EQ(service.connect().code(), ErrorCode::kUnavailable);
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.start().code(), ErrorCode::kConflict);

  auto api = service.connect().take();
  auto id = api->submit_task("e", kSimWork, "x").value();
  ASSERT_TRUE(api->try_query_tasks(kSimWork, 1).ok());
  ASSERT_TRUE(api->report_task(id, kSimWork, "r").is_ok());
  api->submit_task("e", kSimWork, "y").value();

  auto stats = service.stats().value();
  EXPECT_EQ(stats.tasks_total, 2);
  EXPECT_EQ(stats.tasks_complete, 1);
  EXPECT_EQ(stats.tasks_queued, 1);
  EXPECT_EQ(stats.output_queue_depth, 1);
  EXPECT_EQ(stats.input_queue_depth, 1);
  EXPECT_EQ(stats.tasks_total, stats.tasks_queued + stats.tasks_running +
                                   stats.tasks_complete + stats.tasks_canceled);

  ASSERT_TRUE(service.stop().is_ok());
  EXPECT_EQ(service.stop().code(), ErrorCode::kConflict);
  // Restart preserves task state (fault tolerance).
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.stats().value().tasks_total, 2);
}

TEST(EmewsServiceTest, CheckpointRestoreMovesCampaign) {
  ManualClock clock;
  EmewsService origin(clock);
  ASSERT_TRUE(origin.start().is_ok());
  auto api = origin.connect().take();
  api->submit_task("exp", kSimWork, "[1,2,3]", 5).value();

  json::Value snapshot = origin.checkpoint();

  // "Model exploration algorithms can be easily rerun or continued, either
  // on the original set of computing resources or different ones" (§II-B2c).
  EmewsService destination(clock);
  ASSERT_TRUE(destination.restore(snapshot).is_ok());
  auto api2 = destination.connect().take();
  auto tasks = api2->try_query_tasks(kSimWork, 1).value();
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].payload, "[1,2,3]");
  // Continued submissions do not collide with restored ids.
  auto new_id = api2->submit_task("exp", kSimWork, "[4]").value();
  EXPECT_GT(new_id, tasks[0].eq_task_id);
}

TEST(EmewsServiceTest, RestoreRejectsGarbageAndUsedService) {
  ManualClock clock;
  EmewsService service(clock);
  EXPECT_FALSE(service.restore(json::Value("junk")).is_ok());
  ASSERT_TRUE(service.start().is_ok());
  EXPECT_EQ(service.restore(json::Value(json::Object{})).code(),
            ErrorCode::kConflict);
}

}  // namespace
}  // namespace osprey::eqsql
