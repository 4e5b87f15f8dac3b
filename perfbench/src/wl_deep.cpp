// deep_backlog: a single-threaded closed loop over a steady backlog of 4,096
// queued priority-0 tasks (the paper API's default priority).
//
// Each cycle claims one task, reports it, picks its result up, submits a
// replacement and reads one uniformly random historical result. The service
// runs the LSM storage engine with default StorageOptions and the WAL on
// the same FileLogDevice, syncing every commit. Set-up completes a history
// whose result bytes are 4x the default block cache (256 x 16 KiB), so
// history reads miss the cache and reach the sorted runs.
#include <memory>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/eqsql/service.h"
#include "osprey/obs/telemetry.h"
#include "workloads.h"

namespace perfbench {

namespace {

using osprey::eqsql::EmewsService;
using osprey::eqsql::EQSQL;

constexpr osprey::WorkType kType = 0;
constexpr int kBacklog = 4096;
constexpr int kHistoryTasks = 2048;
constexpr std::size_t kHistoryResultBytes = 8192;  // 16 MiB = 4x the cache
// Results written by the timed loop. At 8 KiB, one report in ~120 landed
// on a compaction and put report/submit/result p99 on the edge between two
// modes (±50% run to run); at 1 KiB a run still flushes a few memtables.
constexpr std::size_t kLiveResultBytes = 1024;
constexpr int kSetupBatch = 256;
constexpr int kTailCycles = 100;
constexpr int kRecoveryRepeats = 7;
// Traced runs use fixed cycle counts so their per-layer counts repeat
// exactly for a seed.
constexpr int kTracedUntracedCycles = 150;
constexpr int kTracedCycles = 300;

struct Stack {
  std::string dir;
  std::unique_ptr<osprey::db::wal::FileLogDevice> file;
  std::unique_ptr<trace::TracedDevice> traced_device;
  osprey::RealClock clock;
  std::unique_ptr<EmewsService> service;
  trace::TracedObserver observer;
  std::unique_ptr<EQSQL> api;
  std::vector<osprey::TaskId> completed;  // every task whose result was read
  osprey::TaskId last_history_id = 0;     // set-up history: ids up to here

  osprey::db::wal::LogDevice& device() {
    return traced_device
               ? static_cast<osprey::db::wal::LogDevice&>(*traced_device)
               : *file;
  }

  ~Stack() {
    api.reset();
    observer.uninstall();
    service.reset();
  }
};

struct Collect {
  Samples claim, report, result, submit, history_read;
  std::uint64_t cycles = 0;
  std::uint64_t user_bytes = 0;
  std::vector<std::int64_t> done_ns;  // when each cycle's result was held
};

std::string result_bytes(const Stack& s, std::uint64_t seed, osprey::TaskId id) {
  return derived_bytes(seed, static_cast<std::uint64_t>(id),
                       id <= s.last_history_id ? kHistoryResultBytes
                                               : kLiveResultBytes);
}

/// Build the stack, complete the history and fill the backlog.
std::unique_ptr<Stack> build_stack(const std::string& dir, bool traced,
                                   std::uint64_t seed, RunResult& r) {
  auto s = std::make_unique<Stack>();
  s->dir = dir;
  reset_dir(dir);
  s->file = std::make_unique<osprey::db::wal::FileLogDevice>(dir);
  if (traced) s->traced_device = std::make_unique<trace::TracedDevice>(*s->file);
  s->service = std::make_unique<EmewsService>(s->clock);
  EmewsService* svc = s->service.get();
  if (!svc->enable_storage(s->device()).is_ok()) {
    r.violation("deep: enable_storage failed");
    return nullptr;
  }
  if (traced) {
    svc->database().set_store_factory(trace::traced_store_factory(
        [svc](const std::string& table) {
          return std::make_unique<osprey::storage::LsmStore>(*svc->storage(),
                                                             table);
        }));
  }
  if (!svc->start().is_ok() || !svc->enable_wal(s->device()).is_ok()) {
    r.violation("deep: start / enable_wal failed");
    return nullptr;
  }
  if (traced) s->observer.install(svc->database());
  auto api = svc->connect();
  if (!api.ok()) {
    r.violation("deep: connect failed");
    return nullptr;
  }
  s->api = std::move(api.value());
  EQSQL& q = *s->api;

  // History: submit, claim and report in batches, then pick every result up.
  for (int done = 0; done < kHistoryTasks; done += kSetupBatch) {
    std::vector<std::string> payloads;
    for (int i = 0; i < kSetupBatch; ++i) {
      payloads.push_back("h" + std::to_string(done + i));
    }
    auto ids = q.submit_tasks("history", kType, payloads, 0);
    auto handles = q.try_query_tasks(kType, kSetupBatch, "setup");
    if (!ids.ok() || !handles.ok() ||
        handles.value().size() != static_cast<std::size_t>(kSetupBatch)) {
      r.violation("deep: history submit/claim failed");
      return nullptr;
    }
    for (const auto& h : handles.value()) {
      const std::string result = derived_bytes(
          seed, static_cast<std::uint64_t>(h.eq_task_id), kHistoryResultBytes);
      if (!q.report_task(h.eq_task_id, kType, result).is_ok()) {
        r.violation("deep: history report failed");
        return nullptr;
      }
    }
    auto picked = q.try_query_completed(ids.value(), kSetupBatch);
    if (!picked.ok() || picked.value().size() != ids.value().size()) {
      r.violation("deep: history pickup failed");
      return nullptr;
    }
    for (osprey::TaskId id : ids.value()) s->completed.push_back(id);
    s->last_history_id = ids.value().back();
  }
  // Backlog: 4,096 queued tasks at the default priority 0.
  for (int done = 0; done < kBacklog; done += 512) {
    std::vector<std::string> payloads;
    for (int i = 0; i < 512; ++i) payloads.push_back("b" + std::to_string(done + i));
    if (!q.submit_tasks("backlog", kType, payloads, 0).ok()) {
      r.violation("deep: backlog submit failed");
      return nullptr;
    }
  }
  return s;
}

/// One closed-loop cycle: claim-1, report, pickup, replacement submit and a
/// random history read. False on any failed op or check.
bool cycle(Stack& s, std::uint64_t seed, SeededRng& rng, Collect& c,
           RunResult& r) {
  EQSQL& q = *s.api;
  std::int64_t t = now_ns();
  osprey::Result<std::vector<osprey::eqsql::TaskHandle>> claimed = [&] {
    trace::Span span("eqsql.claim");
    auto res = q.try_query_tasks(kType, 1, "deep");
    if (res.ok() && !res.value().empty()) {
      span.request(res.value().front().eq_task_id);
    }
    return res;
  }();
  r.op(claimed.ok());
  if (!claimed.ok() || claimed.value().size() != 1) {
    r.violation("deep: claim from the backlog returned no task");
    return false;
  }
  c.claim.add_ns(now_ns() - t);
  const osprey::TaskId id = claimed.value().front().eq_task_id;
  const std::string result = result_bytes(s, seed, id);

  t = now_ns();
  osprey::Status reported = [&] {
    trace::Span span("eqsql.report");
    span.request(id);
    return q.report_task(id, kType, result);
  }();
  r.op(reported.is_ok());
  if (!reported.is_ok()) {
    r.violation("deep: report failed: " + reported.to_string());
    return false;
  }
  const std::int64_t acked = now_ns();
  c.report.add_ns(acked - t);

  osprey::Result<std::string> got = [&] {
    trace::Span span("eqsql.result");
    span.request(id);
    return q.try_query_result(id);
  }();
  r.op(got.ok());
  if (!got.ok() || got.value() != result) {
    r.violation("deep: result of task " + std::to_string(id) +
                " differs from the reported bytes");
    return false;
  }
  const std::int64_t held = now_ns();
  c.result.add_ns(held - acked);
  c.done_ns.push_back(held);
  s.completed.push_back(id);

  const std::string payload = "r" + std::to_string(id);
  t = now_ns();
  osprey::Result<osprey::TaskId> sub = [&] {
    trace::Span span("eqsql.submit");
    auto res = q.submit_task("live", kType, payload, 0);
    if (res.ok()) span.request(res.value());
    return res;
  }();
  r.op(sub.ok());
  if (!sub.ok()) {
    r.violation("deep: replacement submit failed");
    return false;
  }
  c.submit.add_ns(now_ns() - t);
  c.user_bytes += payload.size() + result.size();

  const osprey::TaskId old = s.completed[rng.below(s.completed.size())];
  t = now_ns();
  osprey::Result<std::string> hist = [&] {
    trace::Span span("eqsql.history_read");
    span.request(old);
    return q.peek_result(old);
  }();
  r.op(hist.ok());
  if (!hist.ok() || hist.value() != result_bytes(s, seed, old)) {
    r.violation("deep: history read of task " + std::to_string(old) +
                " returned other bytes than were stored");
    return false;
  }
  c.history_read.add_ns(now_ns() - t);
  ++c.cycles;
  return true;
}

/// Cycles until `seconds` pass (seconds > 0) or exactly `cycles` cycles.
bool run_segment(Stack& s, std::uint64_t seed, SeededRng& rng, double seconds,
                 int cycles, Collect& c, RunResult& r, double& wall_s,
                 double* rate = nullptr) {
  const std::int64_t t0 = now_ns();
  for (int i = 0; seconds > 0 ? seconds_since(t0) < seconds : i < cycles; ++i) {
    if (!cycle(s, seed, rng, c, r)) return false;
  }
  const std::int64_t t1 = now_ns();
  wall_s = static_cast<double>(t1 - t0) * 1e-9;
  if (rate) *rate = sliced_rate(c.done_ns, t0, t1);
  return true;
}

bool state_counts(EmewsService& svc, osprey::eqsql::ServiceStats& out,
                  RunResult& r) {
  auto st = svc.stats();
  if (!st.ok()) {
    r.violation("deep: stats failed");
    return false;
  }
  out = st.value();
  return true;
}

bool same_counts(const osprey::eqsql::ServiceStats& a,
                 const osprey::eqsql::ServiceStats& b) {
  return a.tasks_total == b.tasks_total && a.tasks_queued == b.tasks_queued &&
         a.tasks_running == b.tasks_running &&
         a.tasks_complete == b.tasks_complete &&
         a.tasks_canceled == b.tasks_canceled &&
         a.output_queue_depth == b.output_queue_depth &&
         a.input_queue_depth == b.input_queue_depth;
}

/// End-of-run invariants: the backlog is intact, nothing is running and
/// every completed result was picked up.
bool check_steady(EmewsService& svc, std::size_t completed, RunResult& r) {
  osprey::eqsql::ServiceStats st;
  if (!state_counts(svc, st, r)) return false;
  if (st.tasks_running != 0 || st.input_queue_depth != 0 ||
      st.tasks_queued != kBacklog ||
      static_cast<std::size_t>(st.tasks_complete) != completed) {
    r.violation("deep: end state has running/unread tasks or a broken backlog");
    return false;
  }
  return true;
}

}  // namespace

RunResult run_deep_backlog(const Options& opt) {
  RunResult r;
  osprey::obs::set_enabled(false);
  pin_this_thread({0});
  SeededRng rng(opt.seed);

  // Set-up kSetupRepeats times; the last stack is measured. The first
  // stack also lays down the recovery probe's log: a durable checkpoint of
  // the set-up state plus a fixed tail of kTailCycles cycles, so recovery
  // replays the same amount of work in every run.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::string recovery_dir;
  osprey::eqsql::ServiceStats committed;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (stack) {
      const std::string old = stack->dir;
      stack.reset();
      if (old != recovery_dir) remove_tree(old);
    }
    const std::int64_t t0 = now_ns();
    stack = build_stack(opt.work_dir + "/deep-" + std::to_string(rep), false,
                        opt.seed, r);
    if (!stack) return r;
    setup_s.push_back(seconds_since(t0));
    if (rep == 0 && !opt.trace) {
      if (!stack->service->checkpoint_durable().ok()) {
        r.violation("deep: checkpoint_durable failed");
        return r;
      }
      SeededRng tail_rng(opt.seed ^ 0x7461696cULL);
      Collect tail;
      double tail_s = 0.0;
      if (!run_segment(*stack, opt.seed, tail_rng, 0.0, kTailCycles, tail, r,
                       tail_s) ||
          !state_counts(*stack->service, committed, r)) {
        return r;
      }
      recovery_dir = stack->dir;
    }
  }
  r.set("setup_s", median(setup_s), "s");

  Collect c;
  double wall_s = 0.0;
  double sliced_tasks_per_s = 0.0;
  if (!run_segment(*stack, opt.seed, rng, opt.trace ? 0.0 : opt.seconds,
                   kTracedUntracedCycles, c, r, wall_s, &sliced_tasks_per_s)) {
    return r;
  }
  if (!check_steady(*stack->service, stack->completed.size(), r)) return r;
  const double tasks_per_s = static_cast<double>(c.cycles) / wall_s;
  {
    const std::string old = stack->dir;
    stack.reset();
    remove_tree(old);
  }

  if (!opt.trace) {
    // Recovery probe: fresh services recover from the first stack's log and
    // must reproduce the task-state counts committed before the crash.
    std::vector<double> recovery_s;
    for (int i = 0; i < kRecoveryRepeats; ++i) {
      osprey::db::wal::FileLogDevice device(recovery_dir);
      osprey::RealClock clock;
      EmewsService fresh(clock);
      if (!fresh.enable_storage(device).is_ok()) {
        r.violation("deep: enable_storage on the recovering service failed");
        return r;
      }
      const std::int64_t t0 = now_ns();
      auto info = fresh.recover_from_wal(device);
      recovery_s.push_back(seconds_since(t0));
      r.op(info.ok());
      if (!info.ok()) {
        r.violation("deep: recover_from_wal failed: " + info.error().to_string());
        return r;
      }
      osprey::eqsql::ServiceStats recovered;
      if (!state_counts(fresh, recovered, r)) return r;
      if (!same_counts(recovered, committed)) {
        r.violation("deep: recovered task-state counts differ from the "
                    "committed counts");
        return r;
      }
    }
    r.set("tasks_per_s", sliced_tasks_per_s, "1/s");
    // A 750-task campaign's worth of cycles at the measured rate.
    r.set("campaign_s", 750.0 / sliced_tasks_per_s, "s");
    r.set("claim_p50_us", c.claim.sliced_quantile(0.50), "us");
    r.set("claim_p99_us", c.claim.sliced_quantile(0.99), "us");
    r.set("submit_p50_us", c.submit.sliced_quantile(0.50), "us");
    r.set("submit_p99_us", c.submit.sliced_quantile(0.99), "us");
    r.set("report_p50_us", c.report.sliced_quantile(0.50), "us");
    r.set("report_p99_us", c.report.sliced_quantile(0.99), "us");
    r.set("result_p50_us", c.result.sliced_quantile(0.50), "us");
    r.set("result_p99_us", c.result.sliced_quantile(0.99), "us");
    r.set("history_read_p50_us", c.history_read.sliced_quantile(0.50), "us");
    r.set("history_read_p99_us", c.history_read.sliced_quantile(0.99), "us");
    r.set("recovery_s", median(recovery_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // Traced segment: a decorated stack, a fixed number of cycles.
  SeededRng trng(opt.seed ^ 0x7472616365ULL);
  auto traced = build_stack(opt.work_dir + "/deep-traced", true, opt.seed, r);
  if (!traced) return r;
  trace::Recorder& rec = trace::Recorder::instance();
  rec.reset();
  const auto wal0 = traced->service->wal()->stats();
  const auto sto0 = traced->service->storage()->stats();
  Collect tc;
  double traced_wall = 0.0;
  rec.set_active(true);
  const bool ok = run_segment(*traced, opt.seed, trng, 0.0, kTracedCycles, tc,
                              r, traced_wall);
  rec.set_active(false);
  if (!ok || !check_steady(*traced->service, traced->completed.size(), r)) {
    return r;
  }
  const auto wal1 = traced->service->wal()->stats();
  const auto sto1 = traced->service->storage()->stats();
  const auto stats = rec.stats();

  SegmentFacts facts;
  facts.wall_s = traced_wall;
  facts.tasks = tc.cycles;
  facts.claimed = tc.cycles;
  facts.commits = wal1.commits_logged - wal0.commits_logged;
  facts.wal_syncs = wal1.syncs - wal0.syncs;
  facts.wal_bytes = wal1.bytes_logged - wal0.bytes_logged;
  facts.user_bytes = tc.user_bytes;
  OpNames ops{"eqsql.submit", "eqsql.claim", "eqsql.report", "eqsql.result",
              "eqsql.history_read"};
  derive_layer_metrics(stats, ops, facts, r);
  record_span_counts(stats, r);
  const std::uint64_t hits = sto1.cache_hits - sto0.cache_hits;
  const std::uint64_t misses = sto1.cache_misses - sto0.cache_misses;
  r.set("storage.cache_hit_ratio",
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0,
        "ratio");
  r.set("storage.flushes", static_cast<double>(sto1.flushes - sto0.flushes),
        "count");
  r.set("storage.compactions",
        static_cast<double>(sto1.compactions - sto0.compactions), "count");
  r.counts["wal.commits"] = facts.commits;
  r.counts["wal.syncs"] = facts.wal_syncs;
  r.counts["wal.bytes"] = facts.wal_bytes;
  r.counts["storage.cache_hits"] = hits;
  r.counts["storage.cache_misses"] = misses;
  r.counts["storage.flushes"] = sto1.flushes - sto0.flushes;
  r.counts["storage.compactions"] = sto1.compactions - sto0.compactions;
  r.counts["cycles"] = tc.cycles;
  r.set("trace.overhead_ratio",
        (static_cast<double>(tc.cycles) / traced_wall) / tasks_per_s, "ratio");
  if (!opt.out_dir.empty()) {
    rec.write_chrome(opt.out_dir + "/trace-deep_backlog.json");
  }
  traced.reset();
  rec.reset();
  fill_absent_layer_metrics(r);
  return r;
}

}  // namespace perfbench
