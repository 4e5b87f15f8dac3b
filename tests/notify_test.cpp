// Tests for the commit-driven notification plane (DESIGN.md §5.10): channel
// version bumps, observer chaining with the WAL, blocking wakeups in the
// threaded runtime, race hammering (run under TSan in CI), the peek-dedupe
// contract of query_result, and bit-determinism of notified simulation runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "osprey/capi/osprey_c.h"
#include "osprey/db/dump.h"
#include "osprey/db/wal.h"
#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/future.h"
#include "osprey/eqsql/notify.h"
#include "osprey/eqsql/schema.h"
#include "osprey/eqsql/service.h"
#include "osprey/pool/sim_pool.h"
#include "osprey/sim/sim.h"

namespace osprey::eqsql {
namespace {

constexpr WorkType kSimWork = 1;
constexpr WorkType kGpuWork = 2;

class NotifyTest : public ::testing::Test {
 protected:
  NotifyTest() : conn_(db_) {
    EXPECT_TRUE(create_schema(conn_).is_ok());
    api_ = std::make_unique<EQSQL>(db_, clock_);
    notifier_.attach(db_);
    WaitRouting routing;
    routing.sleeper = [this](Duration d) { clock_.advance(d); };
    routing.notifier = &notifier_;
    api_->set_wait_routing(std::move(routing));
  }

  ~NotifyTest() override { notifier_.detach(); }

  db::Database db_;
  db::sql::Connection conn_;
  ManualClock clock_;
  Notifier notifier_;
  std::unique_ptr<EQSQL> api_;
};

TEST_F(NotifyTest, SubmitBumpsOnlyItsWorkChannel) {
  EXPECT_EQ(notifier_.work_version(kSimWork), 0u);
  ASSERT_TRUE(api_->submit_task("e", kSimWork, "[1]").ok());
  EXPECT_EQ(notifier_.work_version(kSimWork), 1u);
  EXPECT_EQ(notifier_.work_version(kGpuWork), 0u);
  EXPECT_EQ(notifier_.result_version(), 0u);
  EXPECT_EQ(notifier_.work_signals(), 1u);
}

TEST_F(NotifyTest, BatchSubmitSignalsEachTypeOncePerCommit) {
  std::vector<std::string> payloads(10, "[1]");
  ASSERT_TRUE(api_->submit_tasks("e", kSimWork, payloads).ok());
  // One commit, one signal: waiters re-probe once, not ten times.
  EXPECT_EQ(notifier_.work_version(kSimWork), 1u);
  EXPECT_EQ(notifier_.work_signals(), 1u);
}

TEST_F(NotifyTest, ReportBumpsResultChannel) {
  TaskId id = api_->submit_task("e", kSimWork, "[1]").value();
  ASSERT_EQ(api_->try_query_tasks(kSimWork, 1, "p").value().size(), 1u);
  EXPECT_EQ(notifier_.result_version(), 0u);
  ASSERT_TRUE(api_->report_task(id, kSimWork, "{\"y\":1}").is_ok());
  EXPECT_EQ(notifier_.result_version(), 1u);
  EXPECT_EQ(notifier_.result_signals(), 1u);
}

TEST_F(NotifyTest, CancelSignalsResultChannel) {
  TaskId id = api_->submit_task("e", kSimWork, "[1]").value();
  const std::uint64_t before = notifier_.result_version();
  ASSERT_TRUE(api_->cancel_tasks({id}).ok());
  // A result waiter must wake to observe kCanceled instead of timing out.
  EXPECT_GT(notifier_.result_version(), before);
}

TEST_F(NotifyTest, RequeueSignalsWorkChannel) {
  TaskId id = api_->submit_task("e", kSimWork, "[1]").value();
  ASSERT_EQ(api_->try_query_tasks(kSimWork, 1, "p").value().size(), 1u);
  const std::uint64_t before = notifier_.work_version(kSimWork);
  ASSERT_TRUE(api_->requeue_tasks({id}).ok());
  // Requeued work re-enters the output queue: idle pools must hear it.
  EXPECT_GT(notifier_.work_version(kSimWork), before);
}

TEST_F(NotifyTest, ListenersFireWithTaskIds) {
  std::vector<TaskId> result_ids;
  int work_signals = 0;
  Notifier::ListenerId work_l =
      notifier_.on_work(kSimWork, [&] { ++work_signals; });
  Notifier::ListenerId result_l =
      notifier_.on_result([&](TaskId id) { result_ids.push_back(id); });
  TaskId id = api_->submit_task("e", kSimWork, "[1]").value();
  EXPECT_EQ(work_signals, 1);
  ASSERT_EQ(api_->try_query_tasks(kSimWork, 1, "p").value().size(), 1u);
  ASSERT_TRUE(api_->report_task(id, kSimWork, "{}").is_ok());
  ASSERT_EQ(result_ids.size(), 1u);
  EXPECT_EQ(result_ids[0], id);
  notifier_.remove_listener(work_l);
  notifier_.remove_listener(result_l);
  ASSERT_TRUE(api_->submit_task("e", kSimWork, "[2]").ok());
  EXPECT_EQ(work_signals, 1);  // removed: never fires again
}

TEST_F(NotifyTest, DetachRestoresWrappedObserver) {
  // The fixture's notifier wrapped a null observer; detach must clear the
  // slot so commits stop being observed.
  const std::uint64_t before = notifier_.commits_seen();
  notifier_.detach();
  ASSERT_TRUE(api_->submit_task("e", kSimWork, "[1]").ok());
  EXPECT_EQ(notifier_.commits_seen(), before);
  notifier_.attach(db_);  // fixture detaches again in the destructor
}

TEST_F(NotifyTest, QueryResultWithPeekerPopsExactlyOnce) {
  TaskId id = api_->submit_task("e", kSimWork, "[1]").value();
  ASSERT_EQ(api_->try_query_tasks(kSimWork, 1, "p").value().size(), 1u);
  ASSERT_TRUE(api_->report_task(id, kSimWork, "{\"y\":7}").is_ok());

  // A counting peeker standing in for the replica read router.
  int peeks = 0;
  WaitRouting routing;
  routing.peeker = [&](TaskId task) {
    ++peeks;
    return api_->peek_result(task);
  };
  routing.notifier = api_->notifier();
  api_->set_wait_routing(std::move(routing));
  ASSERT_EQ(api_->stats().value().input_queue, 1);
  Result<std::string> result = api_->query_result(id, WaitSpec::poll(0.1, 2.0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), "{\"y\":7}");
  // Exactly one probe answered, and the local side did exactly one write —
  // the input-queue pop. No duplicate local read re-deriving the payload.
  EXPECT_EQ(peeks, 1);
  EXPECT_EQ(api_->stats().value().input_queue, 0);
}

TEST_F(NotifyTest, QueryResultWithPeekerPropagatesCancel) {
  TaskId id = api_->submit_task("e", kSimWork, "[1]").value();
  ASSERT_TRUE(api_->cancel_tasks({id}).ok());
  WaitRouting routing;
  routing.peeker = [&](TaskId task) { return api_->peek_result(task); };
  routing.notifier = api_->notifier();
  api_->set_wait_routing(std::move(routing));
  Result<std::string> result = api_->query_result(id, WaitSpec::poll(0.1, 2.0));
  EXPECT_EQ(result.code(), ErrorCode::kCanceled);
}

// --- observer chaining with the WAL ----------------------------------------

TEST(NotifyWalTest, NotificationsAndWalChainInEitherOrder) {
  for (bool wal_first : {true, false}) {
    sim::Simulation sim;
    auto disk = std::make_shared<db::wal::SimDisk>();
    db::wal::SimLogDevice device(disk);
    {
      EmewsService service(sim);
      ASSERT_TRUE(service.start().is_ok());
      if (wal_first) {
        ASSERT_TRUE(service.enable_wal(device).is_ok());
        ASSERT_TRUE(service.enable_notifications().is_ok());
      } else {
        ASSERT_TRUE(service.enable_notifications().is_ok());
        ASSERT_TRUE(service.enable_wal(device).is_ok());
      }
      auto api = service.connect();
      ASSERT_TRUE(api.ok());
      EXPECT_EQ(api.value()->notifier(), service.notifier());
      ASSERT_TRUE(api.value()->submit_task("e", kSimWork, "[1]").ok());
      // The notifier saw the commit...
      EXPECT_EQ(service.notifier()->work_version(kSimWork), 1u);
    }
    // ...and so did the WAL underneath it: the device alone rebuilds state.
    sim::Simulation sim2;
    EmewsService recovered(sim2);
    ASSERT_TRUE(recovered.recover_from_wal(device).ok());
    EXPECT_EQ(recovered.stats().value().tasks_total, 1);
  }
}

// --- blocking wakeups (threaded runtime) -----------------------------------

class NotifyThreadedTest : public ::testing::Test {
 protected:
  NotifyThreadedTest() : service_(clock_) {
    EXPECT_TRUE(service_.start().is_ok());
    EXPECT_TRUE(service_.enable_notifications().is_ok());
  }

  std::unique_ptr<EQSQL> connect() {
    auto api = service_.connect();
    EXPECT_TRUE(api.ok());
    return std::move(api).take();
  }

  RealClock clock_;
  EmewsService service_;
};

TEST_F(NotifyThreadedTest, QueryTaskWakesOnSubmit) {
  auto worker = connect();
  auto submitter = connect();
  Result<std::vector<TaskHandle>> got =
      Error(ErrorCode::kInternal, "not run");
  std::thread waiter([&] {
    got = worker->query_task(kSimWork, 1, "p", WaitSpec::notify(10.0));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto submitted_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(submitter->submit_task("e", kSimWork, "[1]").ok());
  waiter.join();
  const auto woke_after = std::chrono::steady_clock::now() - submitted_at;
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 1u);
  // The wakeup is commit-driven: far below any polling cadence, and far
  // below the 10 s deadline.
  EXPECT_LT(std::chrono::duration<double>(woke_after).count(), 5.0);
}

TEST_F(NotifyThreadedTest, QueryResultWakesOnReport) {
  auto me = connect();
  auto pool = connect();
  TaskId id = me->submit_task("e", kSimWork, "[1]").value();
  ASSERT_EQ(pool->try_query_tasks(kSimWork, 1, "p").value().size(), 1u);
  Result<std::string> got = Error(ErrorCode::kInternal, "not run");
  std::thread waiter(
      [&] { got = me->query_result(id, WaitSpec::notify(10.0)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(pool->report_task(id, kSimWork, "{\"y\":3}").is_ok());
  waiter.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "{\"y\":3}");
}

TEST_F(NotifyThreadedTest, CancelWakesResultWaiter) {
  auto me = connect();
  auto controller = connect();
  TaskId id = me->submit_task("e", kSimWork, "[1]").value();
  Result<std::string> got = Error(ErrorCode::kInternal, "not run");
  std::thread waiter(
      [&] { got = me->query_result(id, WaitSpec::notify(10.0)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(controller->cancel_tasks({id}).ok());
  waiter.join();
  EXPECT_EQ(got.code(), ErrorCode::kCanceled);
}

TEST_F(NotifyThreadedTest, NotifyWaitStillTimesOut) {
  auto me = connect();
  TaskId id = me->submit_task("e", kSimWork, "[1]").value();
  Result<std::string> got = me->query_result(id, WaitSpec::notify(0.2));
  EXPECT_EQ(got.code(), ErrorCode::kTimeout);
}

TEST_F(NotifyThreadedTest, AsCompletedWakesOnReports) {
  auto me = connect();
  auto pool = connect();
  auto ids = me->submit_tasks("e", kSimWork, {"[1]", "[2]", "[3]"}).value();
  std::vector<TaskFuture> futures;
  for (TaskId id : ids) futures.emplace_back(*me, id, kSimWork);
  std::thread worker([&] {
    for (int i = 0; i < 3; ++i) {
      auto tasks = pool->query_task(kSimWork, 1, "p", WaitSpec::notify(10.0));
      ASSERT_TRUE(tasks.ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ASSERT_TRUE(pool->report_task(tasks.value()[0].eq_task_id, kSimWork,
                                    "{\"y\":0}")
                      .is_ok());
    }
  });
  WaitSpec wait = WaitSpec::notify(10.0);
  auto done = as_completed(futures, futures.size(), wait);
  worker.join();
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done.value().size(), 3u);
}

// The C API's exp-id claim scatters over every shard; in notify mode it
// blocks on the union of the shards' work channels, so a submit on either
// shard ends the wait at the commit rather than after a poll_delay sleep.
TEST_F(NotifyThreadedTest, CApiScatterClaimWakesOnSubmit) {
  osprey_service* service = osprey_service_create();
  ASSERT_EQ(osprey_service_configure_shards(service, 2, OSPREY_SHARD_KEY_EXP_ID,
                                            OSPREY_SHARD_HASH),
            OSPREY_OK);
  ASSERT_EQ(osprey_service_enable_notifications(service), OSPREY_OK);
  ASSERT_EQ(osprey_service_start(service), OSPREY_OK);
  osprey_client* worker = osprey_client_connect(service);
  osprey_client* submitter = osprey_client_connect(service);
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(submitter, nullptr);

  int claimed = OSPREY_E_INTERNAL;
  int64_t claimed_id = 0;
  const auto started = std::chrono::steady_clock::now();
  std::thread waiter([&] {
    osprey_claim_spec_t spec;
    osprey_claim_spec_init(&spec);
    spec.eq_type = kSimWork;
    spec.wait.strategy = OSPREY_WAIT_NOTIFY;
    spec.wait.poll_delay = 5.0;  // the fallback slice a lost wakeup would cost
    spec.wait.timeout = 10.0;
    char payload[16];
    claimed = osprey_query_task_v2(worker, &spec, &claimed_id, payload,
                                   sizeof payload);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  osprey_task_spec_t task;
  osprey_task_spec_init(&task);
  task.exp_id = "e";
  task.eq_type = kSimWork;
  task.payload = "[1]";
  int64_t submitted = 0;
  EXPECT_EQ(osprey_submit_task_v2(submitter, &task, &submitted), OSPREY_OK);
  waiter.join();
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  EXPECT_EQ(claimed, OSPREY_OK);
  EXPECT_EQ(claimed_id, submitted);
  EXPECT_LT(took, 1.0);

  osprey_client_destroy(worker);
  osprey_client_destroy(submitter);
  osprey_service_destroy(service);
}

// Race hammer: many producers and many consumers on the same channels. The
// assertions are mild on purpose — the value of this test is running the
// commit path, the cv waits, and listener add/remove concurrently under
// TSan, which CI does.
TEST_F(NotifyThreadedTest, ManyProducersManyConsumersRace) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 20;
  constexpr int kConsumers = 3;
  constexpr int kTotal = kProducers * kPerProducer;

  std::atomic<int> claimed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([this, p] {
      auto api = connect();
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(api->submit_task("e" + std::to_string(p), kSimWork, "[1]")
                        .ok());
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([this, &claimed] {
      auto api = connect();
      while (claimed.load() < kTotal) {
        WaitSpec wait = WaitSpec::notify(0.5);
        wait.poll_delay = 0.05;  // tight fallback: ride out lost races
        auto tasks = api->query_task(kSimWork, 5, "race", wait);
        if (tasks.ok()) claimed.fetch_add(static_cast<int>(tasks.value().size()));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(claimed.load(), kTotal);
  EXPECT_EQ(service_.stats().value().tasks_running, kTotal);
}

// --- simulation runtime ------------------------------------------------------

struct SimCampaignOutcome {
  std::string db_dump;          // full task-state fingerprint (incl. times)
  std::uint64_t completed = 0;
  std::uint64_t queries = 0;
};

SimCampaignOutcome run_sim_campaign(bool notifications, std::uint64_t seed) {
  SimCampaignOutcome outcome;
  sim::Simulation sim;
  EmewsService service(sim);
  EXPECT_TRUE(service.start().is_ok());
  if (notifications) {
    EXPECT_TRUE(service.enable_notifications().is_ok());
  }

  EQSQL api(service.database(), sim);
  api.set_notifier(service.notifier());

  std::vector<std::string> payloads(60, "[0]");
  EXPECT_TRUE(api.submit_tasks("det", kSimWork, payloads).ok());

  std::vector<std::unique_ptr<pool::SimWorkerPool>> pools;
  for (int i = 0; i < 2; ++i) {
    pool::SimPoolConfig c;
    c.name = "det_pool_" + std::to_string(i);
    c.work_type = kSimWork;
    c.num_workers = 8;
    c.batch_size = 10;
    c.threshold = 2;
    pools.push_back(std::make_unique<pool::SimWorkerPool>(
        sim, api, c,
        [](const TaskHandle&, Rng& rng) {
          return pool::TaskOutcome{"{\"y\":0}", 1.0 + rng.uniform() * 4.0};
        },
        seed + static_cast<std::uint64_t>(i)));
    EXPECT_TRUE(pools.back()->start().is_ok());
  }
  // A mid-campaign burst while the pools are already armed idle or working.
  sim.schedule_at(30.0, [&] {
    std::vector<std::string> more(20, "[1]");
    EXPECT_TRUE(api.submit_tasks("det", kSimWork, more).ok());
  });
  sim.run_until(500.0);
  for (const auto& p : pools) {
    outcome.completed += p->tasks_completed();
    outcome.queries += p->queries_issued();
  }
  outcome.db_dump = db::dump_database(service.database()).dump();
  return outcome;
}

TEST(NotifySimTest, NotifiedRunsAreBitDeterministic) {
  SimCampaignOutcome a = run_sim_campaign(true, 99);
  SimCampaignOutcome b = run_sim_campaign(true, 99);
  EXPECT_EQ(a.completed, 80u);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.db_dump, b.db_dump);
}

TEST(NotifySimTest, PollingRunsStayDeterministicToo) {
  SimCampaignOutcome a = run_sim_campaign(false, 99);
  SimCampaignOutcome b = run_sim_campaign(false, 99);
  EXPECT_EQ(a.completed, 80u);
  EXPECT_EQ(a.db_dump, b.db_dump);
}

TEST(NotifySimTest, NotificationsCompleteTheSameWorkWithFewerQueries) {
  SimCampaignOutcome polled = run_sim_campaign(false, 7);
  SimCampaignOutcome notified = run_sim_campaign(true, 7);
  EXPECT_EQ(polled.completed, 80u);
  EXPECT_EQ(notified.completed, 80u);
  // The notified pools never blind-poll an empty queue; the polled pools do
  // for the whole post-campaign idle stretch.
  EXPECT_LT(notified.queries, polled.queries);
}

TEST(NotifySimTest, IdleNotifiedPoolIssuesNoQueries) {
  sim::Simulation sim;
  EmewsService service(sim);
  ASSERT_TRUE(service.start().is_ok());
  ASSERT_TRUE(service.enable_notifications().is_ok());
  EQSQL api(service.database(), sim);
  api.set_notifier(service.notifier());

  pool::SimPoolConfig c;
  c.name = "idle_pool";
  c.work_type = kSimWork;
  c.num_workers = 4;
  c.batch_size = 4;
  c.threshold = 1;
  c.notify_fallback = 0.0;  // trust wakeups entirely
  pool::SimWorkerPool p(
      sim, api, c,
      [](const TaskHandle&, Rng&) {
        return pool::TaskOutcome{"{}", 1.0};
      },
      3);
  ASSERT_TRUE(p.start().is_ok());
  sim.run_until(1000.0);
  // One probe at start (the queue was empty), then silence: the §VI idle
  // no-op query load is gone, not just spaced out.
  EXPECT_EQ(p.queries_issued(), 1u);

  // Work arriving wakes the armed pool with no poll event pending.
  ASSERT_TRUE(api.submit_task("e", kSimWork, "[1]").ok());
  sim.run_until(2000.0);
  EXPECT_EQ(p.tasks_completed(), 1u);
}

}  // namespace
}  // namespace osprey::eqsql
