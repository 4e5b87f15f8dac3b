// End-to-end telemetry suite: a multi-pool DES campaign observed *only*
// through the exported telemetry — the acceptance test for the osprey::obs
// plane. Every assertion reads the metrics snapshot, the task-event stream,
// or the exported documents (Prometheus text, Chrome trace JSON); none reads
// campaign-internal state. Task spans must cover submit -> claim -> run ->
// report with monotonic per-hop timestamps, queue-depth and utilization
// metrics must match the known workload totals, and both export formats must
// parse.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/future.h"
#include "osprey/eqsql/schema.h"
#include "osprey/json/json.h"
#include "osprey/me/sampler.h"
#include "osprey/me/task_runners.h"
#include "osprey/obs/telemetry.h"
#include "osprey/pool/sim_pool.h"
#include "osprey/sim/sim.h"

namespace osprey {
namespace {

constexpr WorkType kWork = 1;
constexpr int kTasks = 60;
constexpr int kWorkers = 4;

/// Run a two-pool campaign to completion with telemetry on and return the
/// ids, leaving the global telemetry context holding the full record.
std::vector<TaskId> run_observed_campaign() {
  sim::Simulation sim;
  db::Database database;
  {
    db::sql::Connection conn(database);
    EXPECT_TRUE(eqsql::create_schema(conn).is_ok());
  }
  eqsql::EQSQL api(database, sim);

  Rng sample_rng(4242);
  auto samples = me::uniform_samples(sample_rng, kTasks, 4, -32.768, 32.768);
  std::vector<std::string> payloads;
  payloads.reserve(samples.size());
  for (const auto& p : samples) payloads.push_back(json::array_of(p).dump());
  auto ids = api.submit_tasks("telemetry_exp", kWork, payloads);
  EXPECT_TRUE(ids.ok());

  std::vector<std::unique_ptr<pool::SimWorkerPool>> pools;
  for (const char* name : {"tel_pool_a", "tel_pool_b"}) {
    pool::SimPoolConfig c;
    c.name = name;
    c.work_type = kWork;
    c.num_workers = kWorkers;
    c.batch_size = kWorkers;
    c.threshold = 1;
    c.query_cost = 0.6;
    c.query_jitter = 0.15;
    pools.push_back(std::make_unique<pool::SimWorkerPool>(
        sim, api, c, me::ackley_sim_runner(5.0, 0.3), 7));
    EXPECT_TRUE(pools.back()->start().is_ok());
  }

  // The ME side: poll the input queue until every result is picked up
  // (each pickup emits the task's kCompleted event).
  std::set<TaskId> pending(ids.value().begin(), ids.value().end());
  std::function<void()> poll = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      if (api.try_query_result(*it).ok()) {
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    if (!pending.empty()) sim.schedule_in(1.0, poll);
  };
  sim.schedule_in(1.0, poll);

  sim.run_until(3000.0);
  EXPECT_TRUE(pending.empty());
  for (auto& p : pools) p->stop();
  return ids.value();
}

TEST(TelemetryE2ETest, CampaignIsFullyObservableFromTelemetryAlone) {
  obs::ScopedTelemetry scoped;
  std::vector<TaskId> ids = run_observed_campaign();
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kTasks));

  // --- metrics match the known workload totals -------------------------------
  obs::MetricsSnapshot snap = obs::telemetry().metrics.snapshot();
  EXPECT_EQ(snap.counter_value("osprey_eqsql_tasks_submitted_total"),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.counter_value("osprey_eqsql_tasks_claimed_total"),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.counter_value("osprey_eqsql_tasks_reported_total"),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.counter_value("osprey_eqsql_results_picked_up_total"),
            static_cast<std::uint64_t>(kTasks));
  // Queues drained: both depth gauges returned to zero.
  EXPECT_DOUBLE_EQ(snap.gauge_value("osprey_eqsql_output_queue_depth"), 0.0);
  EXPECT_DOUBLE_EQ(snap.gauge_value("osprey_eqsql_input_queue_depth"), 0.0);

  // Per-pool utilization: both pools worked, their starts partition the
  // workload, every started task finished, and nobody is still running.
  std::uint64_t started = 0;
  for (const char* pool : {"tel_pool_a", "tel_pool_b"}) {
    std::uint64_t pool_started = snap.counter_value(
        "osprey_pool_tasks_started_total", {{"pool", pool}});
    EXPECT_GT(pool_started, 0u) << pool;
    EXPECT_EQ(snap.counter_value("osprey_pool_tasks_finished_total",
                                 {{"pool", pool}}),
              pool_started);
    EXPECT_DOUBLE_EQ(
        snap.gauge_value("osprey_pool_running_tasks", {{"pool", pool}}), 0.0);
    started += pool_started;
  }
  EXPECT_EQ(started, static_cast<std::uint64_t>(kTasks));

  // Latency histograms populated consistently with the counters.
  const obs::HistogramSample* queue_wait = snap.find_histogram(
      "osprey_pool_queue_wait_seconds", {{"pool", "tel_pool_a"}});
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_GT(queue_wait->count, 0u);
  const obs::HistogramSample* submit_latency =
      snap.find_histogram("osprey_eqsql_submit_latency_seconds");
  ASSERT_NE(submit_latency, nullptr);
  EXPECT_EQ(submit_latency->count, 1u);  // one submit_tasks batch

  // --- the task-event stream covers every lifecycle hop ----------------------
  std::vector<obs::TaskEvent> events = obs::telemetry().trace.events();
  std::map<TaskId, std::vector<obs::TaskSpan>> by_task;
  for (obs::TaskSpan& s : obs::assemble_spans(events)) {
    by_task[s.task_id].push_back(s);
  }
  ASSERT_EQ(by_task.size(), ids.size());
  for (TaskId id : ids) {
    ASSERT_TRUE(by_task.count(id)) << "task " << id << " left no spans";
    const std::vector<obs::TaskSpan>& spans = by_task[id];
    ASSERT_EQ(spans.size(), 4u) << "task " << id;
    EXPECT_EQ(spans[0].name, "queued");
    EXPECT_EQ(spans[1].name, "cache_wait");
    EXPECT_EQ(spans[2].name, "run");
    EXPECT_EQ(spans[3].name, "await_result");
    // Monotonic per-hop timestamps, each hop starting where the last ended.
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_LE(spans[i].begin, spans[i].end);
      if (i > 0) {
        EXPECT_DOUBLE_EQ(spans[i].begin, spans[i - 1].end);
      }
    }
    // The run happened on one of the campaign's pools.
    EXPECT_TRUE(spans[2].pool == "tel_pool_a" || spans[2].pool == "tel_pool_b")
        << spans[2].pool;
  }

  // --- exports parse and agree with the stream -------------------------------
  Result<json::Value> trace_doc =
      json::parse(obs::chrome_trace_document().dump());
  ASSERT_TRUE(trace_doc.ok());
  const json::Array& trace_events =
      trace_doc.value()["traceEvents"].as_array();
  EXPECT_EQ(trace_events.size(), static_cast<std::size_t>(4 * kTasks));

  std::string prom = obs::prometheus_text();
  EXPECT_NE(prom.find("osprey_eqsql_tasks_submitted_total " +
                      std::to_string(kTasks)),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE osprey_pool_queue_wait_seconds histogram"),
            std::string::npos);
}

TEST(TelemetryE2ETest, PopCompletedCountsEachPickupOnce) {
  // pop_completed pops the input-queue entry in the batch check, then
  // resolves the future's payload: the pickup is one event, not two.
  obs::ScopedTelemetry scoped;
  db::Database database;
  {
    db::sql::Connection conn(database);
    ASSERT_TRUE(eqsql::create_schema(conn).is_ok());
  }
  ManualClock clock;
  eqsql::EQSQL api(database, clock);
  auto futures =
      eqsql::submit_task_futures(api, "e", kWork, {"a", "b", "c"}).value();
  const auto handles = api.try_query_tasks(kWork, 3).value();
  for (const eqsql::TaskHandle& h : handles) {
    ASSERT_TRUE(api.report_task(h.eq_task_id, kWork, "r").is_ok());
  }
  while (!futures.empty()) {
    ASSERT_TRUE(eqsql::pop_completed(futures, 1.0).ok());
  }
  obs::MetricsSnapshot snap = obs::telemetry().metrics.snapshot();
  EXPECT_EQ(snap.counter_value("osprey_eqsql_results_picked_up_total"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("osprey_eqsql_input_queue_depth"), 0.0);
  std::size_t completed_events = 0;
  for (const obs::TaskEvent& e : obs::telemetry().trace.events()) {
    if (e.kind == obs::TaskEventKind::kCompleted) ++completed_events;
  }
  EXPECT_EQ(completed_events, 3u);
}

TEST(TelemetryE2ETest, DisabledTelemetryRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  obs::telemetry().reset();
  run_observed_campaign();
  EXPECT_EQ(obs::telemetry().trace.size(), 0u);
  obs::MetricsSnapshot snap = obs::telemetry().metrics.snapshot();
  EXPECT_EQ(snap.counter_value("osprey_eqsql_tasks_submitted_total"), 0u);
  for (const auto& counter : snap.counters) {
    EXPECT_EQ(counter.value, 0u) << counter.name;
  }
}

}  // namespace
}  // namespace osprey
