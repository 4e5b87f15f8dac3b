// ackley_campaign: the paper's §VI pattern on real threads.
//
// The ME (this thread) submits a 750-task campaign of 4-D Ackley points
// with distinct priorities, reprioritizes every still-queued task after
// every 50 completions, and collects results with notify-driven
// pop_completed. One ThreadedWorkerPool (2 workers, §IV-D batch/threshold)
// evaluates me::ackley inline. Campaigns run back to back on one long-lived
// EmewsService with notifications on, a WAL on a FileLogDevice that syncs
// every commit, and the program's own telemetry enabled.
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "osprey/core/clock.h"
#include "osprey/eqsql/future.h"
#include "osprey/eqsql/service.h"
#include "osprey/me/functions.h"
#include "osprey/obs/telemetry.h"
#include "osprey/pool/threaded_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using osprey::eqsql::EmewsService;
using osprey::eqsql::EQSQL;
using osprey::eqsql::TaskFuture;
using osprey::eqsql::WaitSpec;

constexpr osprey::WorkType kType = 1;
constexpr int kCampaignTasks = 750;
constexpr int kReprioritizeEvery = 50;
constexpr int kHistoryReadsPerCampaign = 100;
constexpr int kRecoveryRepeats = 7;
// A service serves this many campaigns (3,750 tasks) before the ME moves to
// a fresh one: update_priorities' cost grows with the task table, so an
// unbounded service would make every figure depend on how long the run was.
constexpr int kCampaignsPerService = 3;

std::string format_point(const std::array<double, 4>& x) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "[%.17g,%.17g,%.17g,%.17g]", x[0], x[1], x[2],
                x[3]);
  return buf;
}

std::string format_result(double y) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "{\"y\":%.17g}", y);
  return buf;
}

double ackley_of(const std::array<double, 4>& x) {
  return osprey::me::ackley(std::vector<double>(x.begin(), x.end()));
}

/// Runner-return stamps keyed by task id (a ring far larger than one
/// campaign, written by pool workers and read by the ME).
class ReturnStamps {
 public:
  void mark(osprey::TaskId id) {
    slots_[static_cast<std::size_t>(id) & kMask].store(
        now_ns(), std::memory_order_release);
  }
  std::int64_t get(osprey::TaskId id) const {
    return slots_[static_cast<std::size_t>(id) & kMask].load(
        std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kMask = (1u << 16) - 1;
  std::array<std::atomic<std::int64_t>, kMask + 1> slots_{};
};

/// One deployment: device, service, ME handle and the running pool.
struct Stack {
  std::string dir;
  std::unique_ptr<osprey::db::wal::FileLogDevice> file;
  std::unique_ptr<trace::TracedDevice> traced_device;
  osprey::RealClock clock;
  std::unique_ptr<EmewsService> service;
  trace::TracedObserver observer;
  std::unique_ptr<EQSQL> me;
  std::unique_ptr<EQSQL> pool_api;
  std::unique_ptr<osprey::pool::ThreadedWorkerPool> pool;
  int campaigns = 0;             // campaigns run on this service
  std::uint64_t delivered = 0;   // results the ME holds from this service
  std::vector<std::pair<osprey::TaskId, std::string>> history;

  osprey::db::wal::LogDevice& device() {
    return traced_device ? static_cast<osprey::db::wal::LogDevice&>(*traced_device)
                         : *file;
  }

  ~Stack() {
    if (pool) pool->stop();
    pool.reset();
    pool_api.reset();
    me.reset();
    observer.uninstall();
    service.reset();
  }
};

struct Collect {
  Samples submit, result, history_read;
  std::vector<double> campaign_s;
  std::vector<std::int64_t> held_ns;  // when the ME got each result
  // Layer counters summed over the retired stacks of a segment.
  std::uint64_t wal_commits = 0, wal_syncs = 0, wal_bytes = 0;
  std::uint64_t notify_commits = 0, notify_work = 0, notify_results = 0;
  std::uint64_t pool_queries = 0, pool_tasks = 0;

  double update_us = 0.0;
  std::uint64_t update_ids = 0;  // ids passed to update_priorities
  std::uint64_t tasks = 0;
  std::uint64_t user_bytes = 0;

  void absorb(Stack& s) {
    const auto wal = s.service->wal()->stats();
    wal_commits += wal.commits_logged;
    wal_syncs += wal.syncs;
    wal_bytes += wal.bytes_logged;
    const auto* n = s.service->notifier();
    notify_commits += n->commits_seen();
    notify_work += n->work_signals();
    notify_results += n->result_signals();
    pool_queries += s.pool->queries_issued();
    pool_tasks += s.pool->tasks_completed();
  }
};

/// Build and start one stack. Returns nullptr (with a violation) on error.
std::unique_ptr<Stack> build_stack(const std::string& dir, bool traced,
                                   ReturnStamps& stamps, RunResult& r) {
  // The process-wide obs trace grows without bound (ROADMAP item 4). Each
  // service starts it empty, so obs.trace_events_retained is what one
  // service lifetime leaves behind, and peak RSS does not step with the
  // trace vector's capacity doublings as a run completes more tasks.
  osprey::obs::telemetry().trace.clear();
  auto s = std::make_unique<Stack>();
  s->dir = dir;
  reset_dir(dir);
  s->file = std::make_unique<osprey::db::wal::FileLogDevice>(dir);
  if (traced) s->traced_device = std::make_unique<trace::TracedDevice>(*s->file);
  s->service = std::make_unique<EmewsService>(s->clock);
  if (traced) {
    s->service->database().set_store_factory(
        trace::traced_store_factory(nullptr));
  }
  bool ok = s->service->start().is_ok() &&
            s->service->enable_notifications().is_ok() &&
            s->service->enable_wal(s->device()).is_ok();
  if (!ok) {
    r.violation("ackley: service start / notifications / WAL failed");
    return nullptr;
  }
  if (traced) s->observer.install(s->service->database());
  auto me = s->service->connect();
  auto pool_api = s->service->connect();
  if (!me.ok() || !pool_api.ok()) {
    r.violation("ackley: connect failed");
    return nullptr;
  }
  s->me = std::move(me.value());
  s->pool_api = std::move(pool_api.value());

  osprey::pool::PoolConfig config;
  config.name = "ackley-pool";
  config.work_type = kType;
  config.num_workers = 2;
  config.batch_size = 4;
  config.threshold = 2;
  config.poll_interval = 0.05;
  config.notify_fallback = 0.05;
  s->pool = std::make_unique<osprey::pool::ThreadedWorkerPool>(
      *s->pool_api, config,
      [&stamps](const osprey::eqsql::TaskHandle& h) -> std::string {
        trace::Span span("pool.run");
        span.request(h.eq_task_id);
        std::array<double, 4> x{};
        const char* p = h.payload.c_str();
        for (double& v : x) {
          while (*p == '[' || *p == ',') ++p;
          char* end = nullptr;
          v = std::strtod(p, &end);
          p = end;
        }
        std::string out = format_result(ackley_of(x));
        stamps.mark(h.eq_task_id);
        return out;
      });
  if (!s->pool->start().is_ok()) {
    r.violation("ackley: pool start failed");
    return nullptr;
  }
  return s;
}

/// One 750-task campaign. Every result is checked against the locally
/// computed Ackley value and must arrive exactly once.
bool run_campaign(Stack& s, SeededRng& rng, int campaign,
                  const ReturnStamps& stamps, Collect& c, RunResult& r) {
  EQSQL& api = *s.me;
  std::vector<std::array<double, 4>> points(kCampaignTasks);
  for (auto& x : points) {
    for (double& v : x) v = rng.uniform(-32.768, 32.768);
  }
  std::vector<osprey::Priority> prio(kCampaignTasks);
  for (int i = 0; i < kCampaignTasks; ++i) prio[i] = i + 1;
  for (int i = kCampaignTasks - 1; i > 0; --i) {
    std::swap(prio[i], prio[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }

  const std::int64_t t0 = now_ns();
  const std::string exp_id = "ackley-" + std::to_string(campaign);
  std::vector<TaskFuture> pending;
  pending.reserve(kCampaignTasks);
  std::unordered_map<osprey::TaskId, std::string> expected;
  for (int i = 0; i < kCampaignTasks; ++i) {
    const std::string payload = format_point(points[i]);
    const std::int64_t ts = now_ns();
    osprey::Result<osprey::TaskId> id = [&] {
      trace::Span span("eqsql.submit");
      auto res = api.submit_task(exp_id, kType, payload, prio[i]);
      if (res.ok()) span.request(res.value());
      return res;
    }();
    r.op(id.ok());
    if (!id.ok()) {
      r.violation("ackley: submit failed: " + id.error().to_string());
      return false;
    }
    c.submit.add_ns(now_ns() - ts);
    c.user_bytes += payload.size();
    pending.emplace_back(api, id.value(), kType);
    expected.emplace(id.value(), format_result(ackley_of(points[i])));
  }

  int completed = 0;
  while (!pending.empty()) {
    osprey::Result<TaskFuture> done = [&] {
      trace::Span span("eqsql.result");
      auto res = osprey::eqsql::pop_completed(pending, WaitSpec::notify(30.0));
      if (res.ok()) span.request(res.value().task_id());
      return res;
    }();
    r.op(done.ok());
    if (!done.ok()) {
      r.violation("ackley: pop_completed failed: " + done.error().to_string());
      return false;
    }
    const std::int64_t held = now_ns();
    TaskFuture f = done.value();
    osprey::Result<std::string> payload = f.try_result();
    auto it = expected.find(f.task_id());
    if (it == expected.end()) {
      r.violation("ackley: task " + std::to_string(f.task_id()) +
                  " delivered twice or never submitted");
      return false;
    }
    if (!payload.ok() || payload.value() != it->second) {
      r.violation("ackley: task " + std::to_string(f.task_id()) +
                  " result bytes differ from the expected Ackley value");
      return false;
    }
    const std::int64_t returned = stamps.get(f.task_id());
    if (returned > 0 && returned <= held) c.result.add_ns(held - returned);
    c.user_bytes += it->second.size();
    s.history.emplace_back(f.task_id(), std::move(it->second));
    expected.erase(it);
    ++completed;
    ++c.tasks;
    ++s.delivered;
    c.held_ns.push_back(held);

    if (completed % kReprioritizeEvery == 0 && !pending.empty()) {
      std::vector<osprey::TaskId> ids;
      ids.reserve(pending.size());
      for (const TaskFuture& p : pending) ids.push_back(p.task_id());
      std::vector<osprey::Priority> fresh(ids.size());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        fresh[i] = static_cast<osprey::Priority>(i + 1);
      }
      for (std::size_t i = fresh.size() - 1; i > 0; --i) {
        std::swap(fresh[i], fresh[rng.below(i + 1)]);
      }
      const std::int64_t tu = now_ns();
      osprey::Result<std::size_t> rows = [&] {
        trace::Span span("eqsql.update_priorities");
        return api.update_priorities(ids, fresh);
      }();
      r.op(rows.ok());
      if (!rows.ok()) {
        r.violation("ackley: update_priorities failed: " +
                    rows.error().to_string());
        return false;
      }
      c.update_us += static_cast<double>(now_ns() - tu) * 1e-3;
      c.update_ids += ids.size();
    }
  }
  c.campaign_s.push_back(seconds_since(t0));
  ++s.campaigns;
  return true;
}

/// Random reads of earlier results, checked against the bytes delivered.
bool read_history(Stack& s, SeededRng& rng, Collect& c, RunResult& r) {
  EQSQL& api = *s.me;
  const auto& history = s.history;
  for (int i = 0; i < kHistoryReadsPerCampaign && !history.empty(); ++i) {
    const auto& [id, bytes] = history[rng.below(history.size())];
    const std::int64_t t = now_ns();
    osprey::Result<std::string> got = [&] {
      trace::Span span("eqsql.history_read");
      span.request(id);
      return api.peek_result(id);
    }();
    r.op(got.ok());
    if (!got.ok() || got.value() != bytes) {
      r.violation("ackley: history read of task " + std::to_string(id) +
                  " returned other bytes than were delivered");
      return false;
    }
    c.history_read.add_ns(now_ns() - t);
  }
  return true;
}

/// Stop the stack's pool and check its end state: nothing queued, running
/// or unread, and exactly the delivered results complete.
bool retire(Stack& s, RunResult& r,
            osprey::eqsql::ServiceStats* out = nullptr) {
  s.pool->stop();
  auto st = s.service->stats();
  if (!st.ok()) {
    r.violation("ackley: stats failed");
    return false;
  }
  const auto& v = st.value();
  if (v.tasks_running != 0 || v.tasks_queued != 0 || v.input_queue_depth != 0) {
    r.violation("ackley: tasks left queued/running/unread at the end");
    return false;
  }
  if (static_cast<std::uint64_t>(v.tasks_complete) != s.delivered) {
    r.violation("ackley: complete count " + std::to_string(v.tasks_complete) +
                " != results delivered " + std::to_string(s.delivered));
    return false;
  }
  if (out) *out = v;
  return true;
}

struct Segment {
  double wall_s = 0.0;
  std::uint64_t tasks = 0;
  double tasks_per_s = 0.0;
};

/// Run campaigns until `seconds` have passed (finishing the open one),
/// moving to a fresh service every kCampaignsPerService campaigns. Leaves
/// the last stack running in `s`.
bool run_segment(std::unique_ptr<Stack>& s, const std::string& dir_base,
                 bool traced, SeededRng& rng, double seconds,
                 ReturnStamps& stamps, Collect& c, int& campaign,
                 RunResult& r, Segment& seg) {
  const std::uint64_t tasks0 = c.tasks;
  const std::size_t held0 = c.held_ns.size();
  int generation = 0;
  const std::int64_t t0 = now_ns();
  while (seconds_since(t0) < seconds) {
    if (s->campaigns >= kCampaignsPerService) {
      if (!retire(*s, r)) return false;
      c.absorb(*s);
      s.reset();
      s = build_stack(dir_base + "-" + std::to_string(generation++), traced,
                      stamps, r);
      if (!s) return false;
    }
    if (!run_campaign(*s, rng, campaign++, stamps, c, r)) return false;
    if (!read_history(*s, rng, c, r)) return false;
  }
  const std::int64_t t1 = now_ns();
  seg.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  seg.tasks = c.tasks - tasks0;
  seg.tasks_per_s = sliced_rate(
      std::vector<std::int64_t>(c.held_ns.begin() + static_cast<long>(held0),
                                c.held_ns.end()),
      t0, t1);
  return true;
}

}  // namespace

RunResult run_ackley_campaign(const Options& opt) {
  RunResult r;
  pin_this_thread({0});
  osprey::obs::set_enabled(true);
  osprey::obs::telemetry().reset();
  SeededRng rng(opt.seed);
  auto stamps_owner = std::make_unique<ReturnStamps>();
  ReturnStamps& stamps = *stamps_owner;

  // Set-up: build the stack and run one warm-up campaign, kSetupRepeats
  // times; the last stack is the measured one. The first stack's log is
  // kept for the recovery probe (a fixed-size, one-campaign log).
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  std::string recovery_dir;
  osprey::eqsql::ServiceStats recovery_expect;
  int campaign = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    const std::string dir = opt.work_dir + "/ackley-" + std::to_string(rep);
    stack = build_stack(dir, false, stamps, r);
    if (!stack) return r;
    Collect warm;
    if (!run_campaign(*stack, rng, campaign++, stamps, warm, r)) return r;
    setup_s.push_back(seconds_since(t0));
    if (rep == 0) {
      if (!retire(*stack, r, &recovery_expect)) return r;
      recovery_dir = dir;
    }
    if (rep + 1 < kSetupRepeats) stack.reset();
  }
  r.set("setup_s", median(setup_s), "s");

  // The claim/report histograms must cover the measured window only.
  osprey::obs::telemetry().metrics.reset();
  Collect c;
  Segment seg;
  const double untraced_s = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  if (!run_segment(stack, opt.work_dir + "/ackley-m", false, rng, untraced_s,
                   stamps, c, campaign, r, seg) ||
      !retire(*stack, r)) {
    return r;
  }
  stack.reset();

  // Recovery probe: recover a fresh service from the first stack's log and
  // compare its task-state counts with the counts committed before the
  // crash.
  std::vector<double> recovery_s;
  for (int i = 0; i < kRecoveryRepeats; ++i) {
    osprey::db::wal::FileLogDevice device(recovery_dir);
    osprey::RealClock clock;
    EmewsService fresh(clock);
    const std::int64_t t0 = now_ns();
    auto info = fresh.recover_from_wal(device);
    recovery_s.push_back(seconds_since(t0));
    r.op(info.ok());
    if (!info.ok()) {
      r.violation("ackley: recover_from_wal failed: " + info.error().to_string());
      return r;
    }
    auto st = fresh.stats();
    if (!st.ok() || st.value().tasks_complete != recovery_expect.tasks_complete ||
        st.value().tasks_total != recovery_expect.tasks_total ||
        st.value().tasks_queued != recovery_expect.tasks_queued ||
        st.value().tasks_running != recovery_expect.tasks_running) {
      r.violation("ackley: recovered task-state counts differ from the "
                  "committed counts");
      return r;
    }
  }

  if (!opt.trace) {
    r.set("tasks_per_s", seg.tasks_per_s, "1/s");
    r.set("campaign_s", median(c.campaign_s), "s");
    // Claim and report run inside the pool: their latencies come from the
    // program's own eqsql histograms (obs is on in this workload).
    const auto snap = osprey::obs::telemetry().metrics.snapshot();
    auto hist_quantile = [&snap](const char* name, double q) {
      const auto* h = snap.find_histogram(name);
      if (!h || h->count == 0) return 0.0;
      // Log-linear interpolation inside the bucket holding rank q.
      const double rank = q * static_cast<double>(h->count);
      double seen = 0.0;
      for (std::size_t b = 0; b < h->buckets.size(); ++b) {
        const double n = static_cast<double>(h->buckets[b]);
        if (seen + n >= rank && n > 0) {
          const double hi = b < h->bounds.size() ? h->bounds[b]
                                                 : h->bounds.back() * 2.0;
          const double lo = b == 0 ? hi / 10.0 : h->bounds[b - 1];
          const double frac = (rank - seen) / n;
          return lo * std::pow(hi / lo, frac) * 1e6;
        }
        seen += n;
      }
      return h->bounds.back() * 1e6;
    };
    r.set("claim_p50_us",
          hist_quantile("osprey_eqsql_claim_latency_seconds", 0.50), "us");
    r.set("claim_p99_us",
          hist_quantile("osprey_eqsql_claim_latency_seconds", 0.99), "us");
    r.set("report_p50_us",
          hist_quantile("osprey_eqsql_report_latency_seconds", 0.50), "us");
    r.set("report_p99_us",
          hist_quantile("osprey_eqsql_report_latency_seconds", 0.99), "us");
    r.set("submit_p50_us", c.submit.sliced_quantile(0.50), "us");
    r.set("submit_p99_us", c.submit.sliced_quantile(0.99), "us");
    r.set("result_p50_us", c.result.sliced_quantile(0.50), "us");
    r.set("result_p99_us", c.result.sliced_quantile(0.99), "us");
    r.set("history_read_p50_us", c.history_read.sliced_quantile(0.50), "us");
    r.set("history_read_p99_us", c.history_read.sliced_quantile(0.99), "us");
    r.set("recovery_s", median(recovery_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // Traced segment on decorated stacks (their set-up is not measured).
  auto traced = build_stack(opt.work_dir + "/ackley-t", true, stamps, r);
  if (!traced) return r;
  trace::Recorder& rec = trace::Recorder::instance();
  rec.reset();
  Collect tc;
  Segment tseg;
  rec.set_active(true);
  const bool ok = run_segment(traced, opt.work_dir + "/ackley-t", true, rng,
                              opt.seconds - untraced_s, stamps, tc, campaign,
                              r, tseg);
  rec.set_active(false);
  if (!ok || !retire(*traced, r)) return r;
  tc.absorb(*traced);

  const auto stats = rec.stats();
  SegmentFacts facts;
  facts.wall_s = tseg.wall_s;
  facts.tasks = tseg.tasks;
  facts.commits = tc.wal_commits;
  facts.wal_syncs = tc.wal_syncs;
  facts.wal_bytes = tc.wal_bytes;
  facts.user_bytes = tc.user_bytes;
  facts.pool_workers = 2;
  OpNames ops{"eqsql.submit", "eqsql.claim", "eqsql.report", "eqsql.result",
              "eqsql.history_read"};
  derive_layer_metrics(stats, ops, facts, r);
  record_span_counts(stats, r);
  r.set("notify.commits_seen", static_cast<double>(tc.notify_commits), "count");
  r.set("notify.work_signals", static_cast<double>(tc.notify_work), "count");
  r.set("notify.result_signals", static_cast<double>(tc.notify_results),
        "count");
  r.set("pool.queries_per_task",
        tc.pool_tasks ? static_cast<double>(tc.pool_queries) /
                            static_cast<double>(tc.pool_tasks)
                      : 0.0,
        "ratio");
  r.set("eqsql.update_priorities_us_per_row",
        tc.update_ids ? tc.update_us / static_cast<double>(tc.update_ids) : 0.0,
        "us");
  r.set("obs.trace_events_retained",
        static_cast<double>(osprey::obs::telemetry().trace.size()), "count");
  const double untraced_rate = static_cast<double>(seg.tasks) / seg.wall_s;
  const double traced_rate = static_cast<double>(tseg.tasks) / tseg.wall_s;
  r.set("trace.overhead_ratio", traced_rate / untraced_rate, "ratio");
  if (!opt.out_dir.empty()) {
    rec.write_chrome(opt.out_dir + "/trace-ackley_campaign.json");
  }
  traced.reset();
  rec.reset();
  fill_absent_layer_metrics(r);
  return r;
}

}  // namespace perfbench
