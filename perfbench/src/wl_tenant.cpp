// tenant_fair_capi: weighted-fair multi-tenant claims through the v2 C API
// only.
//
// Tenancy and notifications are on; two shards keyed by exp id, so claims
// scatter. Four tenants weigh 4:3:2:1. One submitter/ME thread keeps about
// 2k tasks queued (each tenant backlogged on both shards) and picks results
// up; tenant t3 submits at 2x its max_queue_depth, so its refusals
// (OSPREY_E_RESOURCE_EXHAUSTED) are expected and counted, not failures. Two
// claimer threads run osprey_query_task_v2 with a notify wait, then
// osprey_report_task. The whole workload is in memory.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "osprey/capi/osprey_c.h"
#include "osprey/obs/telemetry.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kTenants = 4;
constexpr int kShards = 2;
constexpr int kClaimers = 2;
constexpr double kWeights[kTenants] = {4.0, 3.0, 2.0, 1.0};
// Per-shard queue bounds (quotas are per shard) and per-(tenant, shard)
// in-flight targets: t3's target is twice its bound.
constexpr std::uint64_t kDepthBound[kTenants] = {1000, 1000, 1000, 250};
constexpr int kTarget[kTenants] = {250, 250, 250, 500};
constexpr int kExpIdsPerShard = 2;
constexpr int kRestartProbes = 51;
// Set-up here takes ~15 ms, so it is repeated more often than the shared
// kSetupRepeats for a steady median.
constexpr int kSetups = 3 * kSetupRepeats;
// Each claimed task "runs" (sleeps) a seeded uniform 3-9 ms before it
// is reported, like the paper's sleep-padded tasks. It keeps the two
// claimers slower than the one submitter, so the ~2k backlog holds and
// every tenant stays backlogged; the spread keeps the claimers from
// phase-locking on the shard locks. At this length the claims hold the
// busy shard's lock well under half the time, so most other calls find it
// free and the latency quantiles sit inside one mode.
constexpr std::int64_t kRuntimeMinUs = 3000;
constexpr std::int64_t kRuntimeSpanUs = 6000;
constexpr std::size_t kBuf = 256;
constexpr auto kInboxPeriod = std::chrono::microseconds(500);

const char* tenant_name(int k) {
  static const char* kNames[kTenants] = {"t0", "t1", "t2", "t3"};
  return kNames[k];
}

std::string expected_result(const std::string& payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : payload) h = (h ^ ch) * 0x100000001b3ULL;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return "ok|" + payload + "|" + buf;
}

struct Reported {
  std::int64_t id;
  std::int64_t acked_ns;
};

/// State shared by the ME and the claimer threads.
struct Shared {
  std::mutex mutex;
  std::deque<Reported> reported;  // guarded by mutex
  std::atomic<bool> stop{false};
  std::atomic<bool> paused{false};
  std::atomic<int> parked{0};
  std::atomic<int> exited{0};  // claimers that left their loop
  std::atomic<bool> measuring{false};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> attempted{0};
};

struct ClaimerOut {
  Samples claim, report;
  std::string error;
};

struct TaskInfo {
  int tenant = 0;
  int shard = 0;
  std::string expected;
};

/// One C service with its tenants registered and the ME client connected.
struct Deployment {
  osprey_service* service = nullptr;
  osprey_client* me = nullptr;
  std::array<std::array<std::vector<std::string>, kShards>, kTenants> exp_ids;

  ~Deployment() {
    if (me) osprey_client_destroy(me);
    if (service) osprey_service_destroy(service);
  }
};

std::unique_ptr<Deployment> build(RunResult& r) {
  auto d = std::make_unique<Deployment>();
  d->service = osprey_service_create();
  if (!d->service ||
      osprey_service_configure_shards(d->service, kShards,
                                      OSPREY_SHARD_KEY_EXP_ID,
                                      OSPREY_SHARD_HASH) != OSPREY_OK ||
      osprey_service_start(d->service) != OSPREY_OK ||
      osprey_service_enable_notifications(d->service) != OSPREY_OK ||
      osprey_service_enable_tenants(d->service) != OSPREY_OK) {
    r.violation("tenant: C service set-up failed");
    return nullptr;
  }
  for (int k = 0; k < kTenants; ++k) {
    osprey_tenant_config_t config;
    osprey_tenant_config_init(&config);
    config.weight = kWeights[k];
    config.max_queue_depth = kDepthBound[k];
    if (osprey_tenant_register(d->service, tenant_name(k), &config) != OSPREY_OK) {
      r.violation("tenant: register failed");
      return nullptr;
    }
    // Exp ids that hash to each shard, so every tenant stays backlogged on
    // both shards.
    for (int j = 0; ; ++j) {
      const std::string exp = std::string(tenant_name(k)) + "-e" + std::to_string(j);
      std::uint32_t shard = 0;
      osprey_shard_of(d->service, 0, exp.c_str(), &shard);
      if (d->exp_ids[k][shard].size() < kExpIdsPerShard) {
        d->exp_ids[k][shard].push_back(exp);
      }
      if (d->exp_ids[k][0].size() == kExpIdsPerShard &&
          d->exp_ids[k][1].size() == kExpIdsPerShard) {
        break;
      }
    }
  }
  d->me = osprey_client_connect(d->service);
  if (!d->me) {
    r.violation("tenant: client connect failed");
    return nullptr;
  }
  return d;
}

/// The ME side: submissions, top-up and result pickup.
class Me {
 public:
  Me(Deployment& d, std::uint64_t seed, Shared& shared, RunResult& r)
      : d_(d), rng_(seed), shared_(shared), r_(r) {}

  /// Submit until every (tenant, shard) reaches its target or is refused.
  bool top_up(bool measure) {
    for (int k = 0; k < kTenants; ++k) {
      for (int sh = 0; sh < kShards; ++sh) {
        while (inflight_[k][sh] < kTarget[k]) {
          const int rc = submit(k, sh, measure);
          if (rc == OSPREY_E_RESOURCE_EXHAUSTED) break;
          if (rc != OSPREY_OK) return false;
        }
      }
    }
    return true;
  }

  int submit(int k, int sh, bool measure) {
    const auto& exps = d_.exp_ids[k][sh];
    const std::string& exp = exps[seq_ % exps.size()];
    const std::string payload = std::string(tenant_name(k)) + "|" +
                                std::to_string(seq_++) + "|" +
                                derived_bytes(rng_.next(), 0, 24);
    osprey_task_spec_t spec;
    osprey_task_spec_init(&spec);
    spec.exp_id = exp.c_str();
    spec.tenant = tenant_name(k);
    spec.eq_type = 0;
    spec.payload = payload.c_str();
    std::int64_t id = 0;
    const std::int64_t t = now_ns();
    int rc = OSPREY_OK;
    {
      trace::Span span("capi.submit_v2");
      rc = osprey_submit_task_v2(d_.me, &spec, &id);
      span.request(id);
    }
    const std::int64_t dt = now_ns() - t;
    if (rc == OSPREY_E_RESOURCE_EXHAUSTED) {
      ++rejected_;
      r_.op(true);
      return rc;
    }
    r_.op(rc == OSPREY_OK);
    if (rc != OSPREY_OK) {
      r_.violation(std::string("tenant: submit failed: ") + osprey_error_name(rc));
      return rc;
    }
    std::uint32_t shard = 0;
    osprey_shard_of_task(d_.service, id, &shard);
    if (static_cast<int>(shard) != sh) {
      r_.violation("tenant: task routed to another shard than its exp id");
      return OSPREY_E_INTERNAL;
    }
    if (measure) submit_.add_ns(dt);
    ++inflight_[k][sh];
    ++submitted_;
    user_bytes_ += payload.size();
    tasks_.emplace(id, TaskInfo{k, sh, expected_result(payload)});
    return rc;
  }

  /// Pick up every reported result. The ME checks its inbox on a fixed
  /// kInboxPeriod cadence rather than waking on each report: a wakeup
  /// right after a report races the reporting claimer's next claim for the
  /// shard lock, and which side won stuck for a whole run, flipping the
  /// ME's latencies between two modes from run to run.
  bool pick_up(bool measure, bool top_up_after_each) {
    std::deque<Reported> batch;
    {
      std::lock_guard<std::mutex> lock(shared_.mutex);
      batch.swap(shared_.reported);
    }
    if (batch.empty()) {
      std::this_thread::sleep_for(kInboxPeriod);
      return true;
    }
    for (const Reported& rep : batch) {
      auto it = tasks_.find(rep.id);
      if (it == tasks_.end()) {
        r_.violation("tenant: task " + std::to_string(rep.id) +
                     " reported twice or never submitted");
        return false;
      }
      osprey_wait_spec wait;
      osprey_wait_spec_init(&wait);
      wait.strategy = OSPREY_WAIT_NOTIFY;
      wait.timeout = 5.0;
      char buf[kBuf] = {};
      int rc = OSPREY_OK;
      {
        trace::Span span("capi.query_result");
        span.request(rep.id);
        rc = osprey_query_result_wait(d_.me, rep.id, &wait, buf, sizeof buf);
      }
      const std::int64_t held = now_ns();
      r_.op(rc == OSPREY_OK);
      if (rc != OSPREY_OK || it->second.expected != buf) {
        r_.violation("tenant: result of task " + std::to_string(rep.id) +
                     " missing or differs from the reported bytes");
        return false;
      }
      if (measure) {
        result_.add_ns(held - rep.acked_ns);
        held_ns_.push_back(held);
        ++held_in_window_;
      }
      --inflight_[it->second.tenant][it->second.shard];
      completed_.emplace_back(rep.id, std::move(it->second.expected));
      tasks_.erase(it);
      if (!read_history(measure)) return false;
      if (top_up_after_each && !top_up(measure)) return false;
    }
    return true;
  }

  bool read_history(bool measure) {
    const auto& [id, bytes] = completed_[rng_.below(completed_.size())];
    char buf[kBuf] = {};
    const std::int64_t t = now_ns();
    int rc = OSPREY_OK;
    {
      trace::Span span("capi.peek_result");
      span.request(id);
      rc = osprey_peek_result(d_.me, id, buf, sizeof buf);
    }
    const std::int64_t dt = now_ns() - t;
    r_.op(rc == OSPREY_OK);
    if (rc != OSPREY_OK || bytes != buf) {
      r_.violation("tenant: history read of task " + std::to_string(id) +
                   " returned other bytes than were delivered");
      return false;
    }
    if (measure) history_.add_ns(dt);
    return true;
  }

  /// The tenant depth bound, service-wide: queued <= shards x bound.
  bool check_depths() {
    std::array<osprey_tenant_stats_row_t, 8> rows{};
    rows[0].struct_size = sizeof(osprey_tenant_stats_row_t);
    std::size_t count = 0;
    if (osprey_tenant_stats_v2(d_.me, rows.data(), rows.size(), &count) !=
        OSPREY_OK) {
      r_.violation("tenant: tenant stats failed");
      return false;
    }
    for (std::size_t i = 0; i < count && i < rows.size(); ++i) {
      for (int k = 0; k < kTenants; ++k) {
        if (std::strcmp(rows[i].tenant, tenant_name(k)) == 0 &&
            rows[i].queued > static_cast<std::int64_t>(kShards * kDepthBound[k])) {
          r_.violation(std::string("tenant: ") + tenant_name(k) +
                       " crossed its queue-depth bound");
          return false;
        }
      }
    }
    return true;
  }

  std::int64_t inflight() const {
    std::int64_t n = 0;
    for (const auto& t : inflight_) n += t[0] + t[1];
    return n;
  }

  Samples submit_, result_, history_;
  std::uint64_t rejected_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t held_in_window_ = 0;
  std::vector<std::int64_t> held_ns_;
  std::uint64_t user_bytes_ = 0;
  std::vector<std::pair<std::int64_t, std::string>> completed_;

 private:
  Deployment& d_;
  SeededRng rng_;
  Shared& shared_;
  RunResult& r_;
  std::uint64_t seq_ = 0;
  std::array<std::array<std::int64_t, kShards>, kTenants> inflight_{};
  std::unordered_map<std::int64_t, TaskInfo> tasks_;
};

void claimer_loop(osprey_service* service, int index, std::uint64_t seed,
                  Shared& shared, ClaimerOut& out) {
  SeededRng runtime_rng(seed * 31 + static_cast<std::uint64_t>(index) + 1);
  pin_this_thread({index + 1});
  osprey_client* client = osprey_client_connect(service);
  if (!client) {
    out.error = "claimer connect failed";
    shared.exited.fetch_add(1);
    return;
  }
  const std::string pool = "claimer-" + std::to_string(index);
  osprey_claim_spec_t spec;
  osprey_claim_spec_init(&spec);
  spec.eq_type = 0;
  spec.worker_pool = pool.c_str();
  spec.wait.strategy = OSPREY_WAIT_NOTIFY;
  spec.wait.timeout = 0.05;
  spec.wait.poll_delay = 0.001;
  char payload[kBuf] = {};
  while (!shared.stop.load()) {
    if (shared.paused.load()) {
      shared.parked.fetch_add(1);
      while (shared.paused.load() && !shared.stop.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      shared.parked.fetch_sub(1);
      continue;
    }
    std::int64_t id = 0;
    const bool measure = shared.measuring.load();
    std::int64_t t = now_ns();
    int rc = OSPREY_OK;
    {
      trace::Span span("capi.query_task_v2");
      rc = osprey_query_task_v2(client, &spec, &id, payload, sizeof payload);
      span.request(id);
    }
    if (rc == OSPREY_E_TIMEOUT) continue;
    shared.attempted.fetch_add(1);
    if (rc != OSPREY_OK) {
      shared.failed.fetch_add(1);
      out.error = std::string("claim failed: ") + osprey_error_name(rc);
      break;
    }
    if (measure) out.claim.add_ns(now_ns() - t);
    const std::string result = expected_result(payload);
    // Runtimes apply inside the measured window; the final drain runs the
    // leftover tasks back to back.
    if (measure) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          kRuntimeMinUs +
          static_cast<std::int64_t>(runtime_rng.below(kRuntimeSpanUs))));
    }
    t = now_ns();
    {
      trace::Span span("capi.report");
      span.request(id);
      rc = osprey_report_task(client, id, 0, result.c_str());
    }
    const std::int64_t acked = now_ns();
    shared.attempted.fetch_add(1);
    if (rc != OSPREY_OK) {
      shared.failed.fetch_add(1);
      out.error = std::string("report failed: ") + osprey_error_name(rc);
      break;
    }
    if (measure) out.report.add_ns(acked - t);
    {
      std::lock_guard<std::mutex> lock(shared.mutex);
      shared.reported.push_back({id, acked});
    }
  }
  osprey_client_destroy(client);
  shared.exited.fetch_add(1);
}

/// Stops and joins the claimer threads on every way out of the run.
struct ClaimerThreads {
  explicit ClaimerThreads(Shared& s) : shared(s) {}
  ~ClaimerThreads() { stop(); }
  ClaimerThreads(const ClaimerThreads&) = delete;
  ClaimerThreads& operator=(const ClaimerThreads&) = delete;

  void stop() {
    shared.stop.store(true);
    for (auto& t : threads) t.join();
    threads.clear();
  }

  Shared& shared;
  std::vector<std::thread> threads;
};

struct TenantSnapshot {
  std::array<std::uint64_t, kTenants> claimed{};
  std::array<std::int64_t, kShards> complete{};
};

bool snapshot(Deployment& d, TenantSnapshot& out, RunResult& r) {
  std::array<osprey_tenant_stats_row_t, 8> rows{};
  rows[0].struct_size = sizeof(osprey_tenant_stats_row_t);
  std::size_t count = 0;
  if (osprey_tenant_stats_v2(d.me, rows.data(), rows.size(), &count) != OSPREY_OK) {
    r.violation("tenant: tenant stats failed");
    return false;
  }
  for (std::size_t i = 0; i < count && i < rows.size(); ++i) {
    for (int k = 0; k < kTenants; ++k) {
      if (std::strcmp(rows[i].tenant, tenant_name(k)) == 0) {
        out.claimed[k] = rows[i].claimed;
      }
    }
  }
  for (int s = 0; s < kShards; ++s) {
    osprey_stats_v2_t st;
    osprey_stats_v2_init(&st);
    if (osprey_stats_v2(d.me, s, &st) != OSPREY_OK) {
      r.violation("tenant: shard stats failed");
      return false;
    }
    out.complete[s] = st.complete;
  }
  return true;
}

}  // namespace

RunResult run_tenant_fair_capi(const Options& opt) {
  RunResult r;
  osprey::obs::set_enabled(false);

  pin_this_thread({0});  // the ME; claimers take CPU slots 1 and 2
  // Set-up: service, tenants and the initial ~2k-task backlog.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Me> me;
  Shared shared;
  for (int rep = 0; rep < kSetups; ++rep) {
    me.reset();
    d.reset();
    const std::int64_t t0 = now_ns();
    d = build(r);
    if (!d) return r;
    me = std::make_unique<Me>(*d, opt.seed, shared, r);
    if (!me->top_up(false)) return r;
    setup_s.push_back(seconds_since(t0));
  }
  r.set("setup_s", median(setup_s), "s");

  trace::Recorder& rec = trace::Recorder::instance();
  rec.reset();
  std::array<ClaimerOut, kClaimers> outs;
  ClaimerThreads claimers(shared);
  for (int i = 0; i < kClaimers; ++i) {
    claimers.threads.emplace_back(claimer_loop, d->service, i, opt.seed,
                                  std::ref(shared), std::ref(outs[i]));
  }

  TenantSnapshot before, after;
  if (!snapshot(*d, before, r)) return r;
  // A traced run measures its first third untraced (the baseline for
  // trace.overhead_ratio) and records spans for the rest.
  shared.measuring.store(true);
  const std::int64_t t0 = now_ns();
  const double untraced_s = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  double untraced_rate = 0.0;
  std::uint64_t held_at_switch = 0;
  std::int64_t traced_t0 = 0;
  bool ok = true;
  for (std::uint64_t loop = 0; ok && seconds_since(t0) < opt.seconds; ++loop) {
    ok = me->pick_up(true, true);
    if (ok && loop % 64 == 0) ok = me->check_depths();
    if (opt.trace && traced_t0 == 0 && seconds_since(t0) >= untraced_s) {
      held_at_switch = me->held_in_window_;
      untraced_rate = static_cast<double>(held_at_switch) / seconds_since(t0);
      traced_t0 = now_ns();
      rec.set_active(true);
    }
  }
  const std::int64_t t1 = now_ns();
  const double traced_wall_s = traced_t0 ? seconds_since(traced_t0) : 0.0;
  shared.measuring.store(false);
  rec.set_active(false);
  ok = ok && snapshot(*d, after, r);

  // Restart probe: with claimers parked and the backlog intact, stop and
  // restart the in-memory C service and time until it hands out a task
  // again. (The C path has no log device, so restart is its recovery.)
  std::vector<double> restart_s;
  if (ok) {
    shared.paused.store(true);
    while (shared.parked.load() + shared.exited.load() < kClaimers) {
      std::this_thread::yield();
    }
    for (int i = 0; ok && i < kRestartProbes; ++i) {
      if (!me->top_up(false)) {
        ok = false;
        break;
      }
      osprey_claim_spec_t spec;
      osprey_claim_spec_init(&spec);
      spec.wait.strategy = OSPREY_WAIT_NOTIFY;
      spec.wait.timeout = 1.0;
      spec.wait.poll_delay = 0.001;
      char payload[kBuf] = {};
      std::int64_t id = 0;
      const std::int64_t ts = now_ns();
      int rc = osprey_service_stop(d->service);
      if (rc == OSPREY_OK) rc = osprey_service_start(d->service);
      if (rc == OSPREY_OK) {
        rc = osprey_query_task_v2(d->me, &spec, &id, payload, sizeof payload);
      }
      restart_s.push_back(seconds_since(ts));
      r.op(rc == OSPREY_OK);
      if (rc == OSPREY_OK) {
        rc = osprey_report_task(d->me, id, 0, expected_result(payload).c_str());
      }
      if (rc != OSPREY_OK) {
        r.violation(std::string("tenant: restart probe failed: ") +
                    osprey_error_name(rc));
        ok = false;
        break;
      }
      {
        std::lock_guard<std::mutex> lock(shared.mutex);
        shared.reported.push_back({id, now_ns()});
      }
      ok = me->pick_up(false, false);
    }
    shared.paused.store(false);
  }

  // Drain: no more submits; claimers empty the queue, the ME reads every
  // outstanding result.
  const std::int64_t drain0 = now_ns();
  while (ok && me->inflight() > 0) {
    ok = me->pick_up(false, false);
    if (seconds_since(drain0) > 60.0) {
      r.violation("tenant: drain did not finish within 60 s");
      ok = false;
    }
  }
  claimers.stop();
  r.attempted += shared.attempted.load();
  r.failed += shared.failed.load();
  for (const ClaimerOut& o : outs) {
    if (!o.error.empty()) {
      r.violation("tenant: claimer " + o.error);
      ok = false;
    }
  }
  if (!ok) return r;

  osprey_stats_v2_t st;
  osprey_stats_v2_init(&st);
  if (osprey_stats_v2(d->me, -1, &st) != OSPREY_OK || st.running != 0 ||
      st.queued != 0 || st.input_queue != 0 ||
      static_cast<std::uint64_t>(st.complete) != me->submitted_) {
    r.violation("tenant: end state has queued/running/unread tasks or a "
                "complete count other than the tasks submitted");
    return r;
  }

  // Weighted fairness over the measured window, when every tenant was
  // backlogged: x_k = claimed_k / weight_k.
  double sum = 0.0, sum_sq = 0.0;
  std::array<std::uint64_t, kTenants> claimed{};
  for (int k = 0; k < kTenants; ++k) {
    claimed[k] = after.claimed[k] - before.claimed[k];
    const double x = static_cast<double>(claimed[k]) / kWeights[k];
    sum += x;
    sum_sq += x * x;
  }
  const double jain = sum_sq > 0 ? (sum * sum) / (kTenants * sum_sq) : 0.0;
  std::fprintf(stderr,
               "tenant claims in window: t0 %llu  t1 %llu  t2 %llu  t3 %llu  "
               "(weights 4:3:2:1, weighted Jain %.4f, %llu refused submits)\n",
               static_cast<unsigned long long>(claimed[0]),
               static_cast<unsigned long long>(claimed[1]),
               static_cast<unsigned long long>(claimed[2]),
               static_cast<unsigned long long>(claimed[3]), jain,
               static_cast<unsigned long long>(me->rejected_));
  if (jain < 0.99) {
    r.violation("tenant: weighted Jain index " + std::to_string(jain) +
                " < 0.99");
    return r;
  }

  const double tasks_per_s = sliced_rate(me->held_ns_, t0, t1);
  if (!opt.trace) {
    Samples claims, reports;
    for (const ClaimerOut& o : outs) {
      claims.merge(o.claim);
      reports.merge(o.report);
    }
    r.set("tasks_per_s", tasks_per_s, "1/s");
    // A 750-task campaign's worth of results at the measured rate.
    r.set("campaign_s", 750.0 / tasks_per_s, "s");
    r.set("claim_p50_us", claims.sliced_quantile(0.50), "us");
    r.set("claim_p99_us", claims.sliced_quantile(0.99), "us");
    r.set("submit_p50_us", me->submit_.sliced_quantile(0.50), "us");
    r.set("submit_p99_us", me->submit_.sliced_quantile(0.99), "us");
    r.set("report_p50_us", reports.sliced_quantile(0.50), "us");
    r.set("report_p99_us", reports.sliced_quantile(0.99), "us");
    r.set("result_p50_us", me->result_.sliced_quantile(0.50), "us");
    r.set("result_p99_us", me->result_.sliced_quantile(0.99), "us");
    r.set("history_read_p50_us", me->history_.sliced_quantile(0.50), "us");
    r.set("history_read_p99_us", me->history_.sliced_quantile(0.99), "us");
    r.set("recovery_s", median(restart_s), "s");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // Traced run: the C API hides the database, so only the capi.* spans
  // are recorded; the per-layer split is the C calls' own time.
  const auto stats = rec.stats();
  SegmentFacts facts;
  facts.wall_s = traced_wall_s;
  facts.tasks = me->held_in_window_ - held_at_switch;
  if (const auto it = stats.find("capi.query_task_v2"); it != stats.end()) {
    facts.claimed = it->second.count;
  }
  facts.user_bytes = me->user_bytes_;
  OpNames ops{"capi.submit_v2", "capi.query_task_v2", "capi.report",
              "capi.query_result", "capi.peek_result"};
  derive_layer_metrics(stats, ops, facts, r);
  record_span_counts(stats, r);
  auto busy = [&stats](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0
                             : static_cast<double>(it->second.total_ns) * 1e-9;
  };
  r.set("capi.submit_v2.busy_s", busy("capi.submit_v2"), "s");
  r.set("capi.query_task_v2.busy_s", busy("capi.query_task_v2"), "s");
  r.set("capi.report.busy_s", busy("capi.report"), "s");
  r.set("capi.query_result.busy_s", busy("capi.query_result"), "s");
  r.set("trace.overhead_ratio",
        untraced_rate > 0 && traced_wall_s > 0
            ? (static_cast<double>(facts.tasks) / traced_wall_s) / untraced_rate
            : 0.0,
        "ratio");
  r.set("tenant.jain_weighted", jain, "ratio");
  r.set("tenant.rejected_submits", static_cast<double>(me->rejected_), "count");
  for (int k = 0; k < kTenants; ++k) {
    r.set(std::string("tenant.claimed.") + tenant_name(k),
          static_cast<double>(claimed[k]), "count");
  }
  std::int64_t lo = -1, hi = 0;
  for (int s = 0; s < kShards; ++s) {
    const std::int64_t done = after.complete[s] - before.complete[s];
    lo = lo < 0 ? done : std::min(lo, done);
    hi = std::max(hi, done);
  }
  r.set("shard.completed_min_over_max",
        hi > 0 ? static_cast<double>(lo) / static_cast<double>(hi) : 0.0,
        "ratio");
  if (!opt.out_dir.empty()) {
    rec.write_chrome(opt.out_dir + "/trace-tenant_fair_capi.json");
  }
  rec.reset();
  fill_absent_layer_metrics(r);
  return r;
}

}  // namespace perfbench
