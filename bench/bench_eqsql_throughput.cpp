// EQSQL task-queue throughput: the §IV-C submit/claim/report cycle under
// various batch sizes, plus batch submission. The claim batch size is the
// worker pool's query batch (§IV-D) — larger claims amortize the per-query
// transaction cost, which is the quantitative basis of Fig 3's cache effect.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "osprey/core/clock.h"
#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/schema.h"

using namespace osprey;
using namespace osprey::eqsql;

namespace {

constexpr WorkType kWork = 1;

struct Fixture {
  Fixture() : conn(db) {
    (void)create_schema(conn);
    api = std::make_unique<EQSQL>(db, clock);
  }
  db::Database db;
  db::sql::Connection conn;
  ManualClock clock;
  std::unique_ptr<EQSQL> api;
};

void BM_SubmitTask(benchmark::State& state) {
  Fixture fx;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.api->submit_task("bench", kWork, "[1.0, 2.0, 3.0, 4.0]"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubmitTask);

void BM_SubmitBatch(benchmark::State& state) {
  Fixture fx;
  std::vector<std::string> payloads(static_cast<std::size_t>(state.range(0)),
                                    "[1.0, 2.0, 3.0, 4.0]");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.api->submit_tasks("bench", kWork, payloads));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SubmitBatch)->Arg(50)->Arg(750);

void BM_ClaimBatch(benchmark::State& state) {
  Fixture fx;
  const int batch = static_cast<int>(state.range(0));
  // Pre-fill enough tasks that claims never run dry mid-iteration.
  std::vector<std::string> payloads(4096, "[1]");
  (void)fx.api->submit_tasks("bench", kWork, payloads);
  std::vector<TaskHandle> claimed;
  for (auto _ : state) {
    auto handles = fx.api->try_query_tasks(kWork, batch, "pool");
    benchmark::DoNotOptimize(handles);
    if (handles.ok() && handles.value().size() < static_cast<std::size_t>(batch)) {
      state.PauseTiming();
      (void)fx.api->submit_tasks("bench", kWork, payloads);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ClaimBatch)->Arg(1)->Arg(8)->Arg(33)->Arg(50);

void BM_ClaimAtBacklog(benchmark::State& state) {
  // Claim-1 latency against the queued backlog (EXPERIMENTS.md, "Claim
  // path"): every task at the API's default priority 0, so the pop's cost
  // shows how it scales with the queue. A replacement submit (untimed)
  // keeps the backlog constant.
  Fixture fx;
  const auto backlog = static_cast<std::size_t>(state.range(0));
  for (std::size_t done = 0; done < backlog; done += 1000) {
    std::vector<std::string> payloads(
        std::min<std::size_t>(1000, backlog - done), "[1]");
    (void)fx.api->submit_tasks("bench", kWork, payloads);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.api->try_query_tasks(kWork, 1, "pool"));
    state.PauseTiming();
    (void)fx.api->submit_task("bench", kWork, "[1]");
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClaimAtBacklog)
    ->Arg(256)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(64000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_UpdatePrioritiesAtHistory(benchmark::State& state) {
  // update_priorities cost per row against the finished-task history
  // (EXPERIMENTS.md): reprioritize a 256-task backlog after `history`
  // tasks were submitted, claimed, reported and picked up. Items are rows.
  Fixture fx;
  const int history = static_cast<int>(state.range(0));
  for (int done = 0; done < history; done += 1000) {
    const int n = std::min(1000, history - done);
    std::vector<std::string> payloads(static_cast<std::size_t>(n), "[1]");
    auto ids = fx.api->submit_tasks("history", kWork, payloads).value();
    auto claimed = fx.api->try_query_tasks(kWork, n, "pool");
    for (const auto& h : claimed.value()) {
      (void)fx.api->report_task(h.eq_task_id, kWork, "{}");
    }
    (void)fx.api->try_query_completed(ids, n);
  }
  std::vector<std::string> payloads(256, "[1]");
  auto queued = fx.api->submit_tasks("bench", kWork, payloads).value();
  Priority priority = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.api->update_priorities(queued, {++priority}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queued.size()));
}
BENCHMARK(BM_UpdatePrioritiesAtHistory)
    ->Arg(0)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMicrosecond);

void BM_FullTaskCycle(benchmark::State& state) {
  // submit -> claim -> report -> query_result, the complete §IV-C loop.
  Fixture fx;
  for (auto _ : state) {
    TaskId id = fx.api->submit_task("bench", kWork, "[1]").value();
    auto handles = fx.api->try_query_tasks(kWork, 1, "pool");
    (void)fx.api->report_task(handles.value()[0].eq_task_id, kWork, "{\"y\":1}");
    benchmark::DoNotOptimize(fx.api->try_query_result(id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullTaskCycle);

void BM_RequeuePoolTasks(benchmark::State& state) {
  // Crash-recovery path: requeue all of a failed pool's running tasks.
  Fixture fx;
  std::vector<std::string> payloads(static_cast<std::size_t>(state.range(0)),
                                    "[1]");
  for (auto _ : state) {
    state.PauseTiming();
    (void)fx.api->submit_tasks("bench", kWork, payloads);
    (void)fx.api->try_query_tasks(kWork, static_cast<int>(state.range(0)),
                                  "doomed");
    state.ResumeTiming();
    benchmark::DoNotOptimize(fx.api->requeue_pool_tasks("doomed"));
    state.PauseTiming();
    // Drain the requeued tasks so the next iteration starts clean.
    auto handles = fx.api->try_query_tasks(
        kWork, static_cast<int>(state.range(0)), "drain");
    for (const auto& h : handles.value()) {
      (void)fx.api->report_task(h.eq_task_id, kWork, "{}");
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RequeuePoolTasks)->Arg(33);

void BM_StatusBatch(benchmark::State& state) {
  Fixture fx;
  std::vector<std::string> payloads(static_cast<std::size_t>(state.range(0)),
                                    "[1]");
  auto ids = fx.api->submit_tasks("bench", kWork, payloads).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.api->task_statuses(ids));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StatusBatch)->Arg(100)->Arg(750);

}  // namespace

BENCHMARK_MAIN();
