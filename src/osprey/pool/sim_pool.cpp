#include "osprey/pool/sim_pool.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "osprey/core/log.h"

namespace osprey::pool {

SimWorkerPool::SimWorkerPool(sim::Simulation& sim, eqsql::EQSQL& api,
                             SimPoolConfig config, SimTaskRunner runner,
                             std::uint64_t seed)
    : SimWorkerPool(sim, PoolBackend::local(api), std::move(config),
                    std::move(runner), seed) {}

SimWorkerPool::SimWorkerPool(sim::Simulation& sim, PoolBackend backend,
                             SimPoolConfig config, SimTaskRunner runner,
                             std::uint64_t seed)
    : sim_(sim),
      backend_(std::move(backend)),
      config_(std::move(config)),
      policy_(config_.batch_size, config_.threshold),
      runner_(std::move(runner)),
      rng_(seed),
      feed_(config_.name) {
  assert(runner_ && "pool needs a task runner");
  assert(backend_.complete() && "pool backend must route claim/report/requeue");
}

Status SimWorkerPool::start() {
  Status valid = QueryPolicy::validate(config_.batch_size, config_.threshold,
                                       config_.num_workers);
  if (!valid.is_ok()) return valid;
  if (started_) {
    return Status(ErrorCode::kConflict, "pool already started");
  }
  started_ = true;
  started_at_ = sim_.now();
  idle_since_ = sim_.now();
  feed_.mark(sim_.now());
  notifier_ = backend_.notifier ? backend_.notifier() : nullptr;
  if (notifier_ != nullptr) {
    listener_id_ =
        notifier_->on_work(config_.work_type, [this] { on_work_signal(); });
  }
  OSPREY_LOG(kInfo, "pool") << config_.name << " started (workers="
                            << config_.num_workers << " batch="
                            << config_.batch_size << " threshold="
                            << config_.threshold
                            << (notifier_ ? " notified" : " polling") << ")";
  issue_query();
  return Status::ok();
}

SimWorkerPool::~SimWorkerPool() {
  if (notifier_ != nullptr && listener_id_ != 0) {
    notifier_->remove_listener(listener_id_);
    listener_id_ = 0;
  }
}

void SimWorkerPool::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  if (poll_event_ != 0) {
    sim_.cancel(poll_event_);
    poll_event_ = 0;
  }
  // Release cached tasks so other pools can take them (§IV-D: pools "can be
  // started and stopped as needed").
  if (!cache_.empty()) {
    std::vector<TaskId> ids;
    ids.reserve(cache_.size());
    for (const CachedTask& t : cache_) ids.push_back(t.handle.eq_task_id);
    cache_.clear();
    auto requeued = backend_.requeue(ids);
    if (requeued.ok()) {
      OSPREY_LOG(kInfo, "pool")
          << config_.name << " requeued " << requeued.value()
          << " cached tasks on stop";
    }
  }
  if (running_ == 0) shutdown();
}

void SimWorkerPool::crash() {
  // Everything in flight is abandoned; the DB still records the tasks as
  // running+owned, which is what requeue_pool_tasks recovers from.
  // In-flight completion events still fire, but finish_task drops them:
  // a crashed pool must never report.
  crashed_ = true;
  stopped_ = true;
  started_ = false;
  if (notifier_ != nullptr && listener_id_ != 0) {
    notifier_->remove_listener(listener_id_);
    listener_id_ = 0;
  }
  if (poll_event_ != 0) {
    sim_.cancel(poll_event_);
    poll_event_ = 0;
  }
  cache_.clear();
  running_ = 0;
  feed_.reset(sim_.now());
  OSPREY_LOG(kWarn, "pool") << config_.name << " crashed";
}

void SimWorkerPool::issue_query() {
  if (stopped_ || query_in_flight_) return;
  int n = policy_.tasks_to_request(owned());
  if (n <= 0) return;
  armed_idle_ = false;  // actively querying, not waiting on a wakeup
  query_in_flight_ = true;
  ++queries_issued_;
  Duration cost = config_.query_cost;
  if (cost > 0 && config_.query_jitter > 0) {
    cost = LognormalRuntime(cost, config_.query_jitter).sample(rng_);
  }
  sim_.schedule_in(cost, [this, n] { query_arrived(n); });
}

void SimWorkerPool::query_arrived(int requested) {
  query_in_flight_ = false;
  if (stopped_) return;
  // Claim through the §IV-D batched query with the owned count re-derived
  // *now*: tasks completing while the query was in flight widen the deficit,
  // so the claim reflects the pool's true capacity at claim time.
  (void)requested;
  const int claim_target = policy_.tasks_to_request(owned());
  obs::Stopwatch claim_latency;
  auto handles = backend_.claim_batched(config_.work_type, config_.batch_size,
                                        config_.threshold, owned(),
                                        config_.name);
  if (!handles.ok()) {
    OSPREY_LOG(kError, "pool") << config_.name << " query failed: "
                               << handles.error().to_string();
    schedule_poll();
    return;
  }
  if (!handles.value().empty()) {
    empty_polls_ = 0;
    obs::observe_latency(feed_.claim_latency(), claim_latency);
  }
  const TimePoint claimed_at = obs::enabled() ? sim_.now() : 0.0;
  for (eqsql::TaskHandle& h : handles.value()) {
    cache_.push_back({std::move(h), claimed_at});
  }
  maybe_start_cached();
  if (owned() > 0) idle_since_ = sim_.now();

  if (static_cast<int>(handles.value().size()) < claim_target &&
      running_ < config_.num_workers) {
    // The queue could not fill us: poll again later (workers are idle).
    schedule_poll();
  } else if (policy_.tasks_to_request(owned()) > 0) {
    // Oversubscription configurations may still want more.
    issue_query();
  }
}

void SimWorkerPool::schedule_poll() {
  if (stopped_) return;
  if (notifier_ != nullptr) {
    // Notification mode: idle armed on the work channel instead of a poll
    // cadence. Arm unconditionally — even when the fallback timer is already
    // pending — or an empty query returning while the timer runs would leave
    // the pool disarmed: the signal handler would drop the next commit and
    // the timer handler would see !armed and never reschedule (a dormant
    // pool). The only scheduled event is the safety net — the earlier of
    // the lost-wakeup fallback probe and the idle-shutdown check; with both
    // disabled the pool sits fully quiet until a commit wakes it (an idle
    // pool issues zero DB queries).
    armed_idle_ = true;
    if (poll_event_ != 0) return;  // safety net already pending
    Duration delay = config_.notify_fallback;
    if (config_.idle_shutdown > 0) {
      Duration remain = config_.idle_shutdown - (sim_.now() - idle_since_);
      if (remain < 0) remain = 0;
      delay = delay > 0 ? std::min(delay, remain) : remain;
    } else if (delay <= 0) {
      return;
    }
    poll_event_ = sim_.schedule_in(delay, [this] {
      poll_event_ = 0;
      maybe_idle_shutdown();
      if (stopped_ || !armed_idle_) return;
      if (config_.notify_fallback > 0 &&
          policy_.tasks_to_request(owned()) > 0) {
        issue_query();  // fallback probe in case a wakeup was lost
      } else {
        armed_idle_ = false;
        schedule_poll();  // re-arm (recomputes the idle-shutdown horizon)
      }
    });
    return;
  }
  if (poll_event_ != 0) return;
  // Consecutive empty polls back off (see next_poll_delay).
  const Duration delay = next_poll_delay(config_, ++empty_polls_);
  poll_event_ = sim_.schedule_in(delay, [this] {
    poll_event_ = 0;
    maybe_idle_shutdown();
    if (stopped_) return;
    if (policy_.tasks_to_request(owned()) > 0) {
      issue_query();
    } else {
      schedule_poll();
    }
  });
}

void SimWorkerPool::on_work_signal() {
  // Runs synchronously inside the committing event. Only an armed-idle pool
  // reacts, and it reacts by scheduling — never by claiming reentrantly —
  // so the claim lands at a deterministic point in the event order.
  if (!armed_idle_ || stopped_) return;
  armed_idle_ = false;
  sim_.schedule_in(0.0, [this] { wake_from_notify(); });
}

void SimWorkerPool::wake_from_notify() {
  if (stopped_) return;
  if (poll_event_ != 0) {
    sim_.cancel(poll_event_);
    poll_event_ = 0;
  }
  if (policy_.tasks_to_request(owned()) > 0) {
    issue_query();
  } else {
    schedule_poll();
  }
}

void SimWorkerPool::maybe_start_cached() {
  while (running_ < config_.num_workers && !cache_.empty()) {
    CachedTask cached = std::move(cache_.front());
    cache_.pop_front();
    if (in_completion_context_) ++cache_hits_;
    start_task(std::move(cached.handle), cached.claimed_at);
  }
}

void SimWorkerPool::start_task(eqsql::TaskHandle handle, TimePoint claimed_at) {
  ++running_;
  const TimePoint now = sim_.now();
  if (obs::enabled() && claimed_at > 0.0) {
    feed_.queue_wait().observe(now - claimed_at);
  }
  feed_.consume({handle.eq_task_id, obs::TaskEventKind::kRunStart, now,
                 handle.eq_type, config_.name, ""});
  TaskOutcome outcome = runner_(handle, rng_);
  sim_.schedule_in(outcome.runtime,
                   [this, handle = std::move(handle),
                    result = std::move(outcome.result)] {
                     finish_task(handle, result);
                   });
}

void SimWorkerPool::finish_task(const eqsql::TaskHandle& handle,
                                const std::string& result) {
  if (crashed_) return;  // dead pools report nothing
  if (faults_ != nullptr &&
      faults_->should_fire(fault_point::pool_stall(config_.name))) {
    // The worker hangs instead of reporting: its task stays 'running' in the
    // DB (recovered by the lease reaper) and the worker slot is lost —
    // running_ stays elevated so the pool claims less, exactly like a hung
    // node eating pilot-job capacity.
    ++stalled_workers_;
    feed_.consume({handle.eq_task_id, obs::TaskEventKind::kStalled, sim_.now(),
                   handle.eq_type, config_.name, ""});
    OSPREY_LOG(kWarn, "pool")
        << config_.name << " worker hung holding task " << handle.eq_task_id
        << log_field("pool", config_.name);
    return;
  }
  Status reported =
      backend_.report(handle.eq_task_id, handle.eq_type, result);
  if (reported.code() == ErrorCode::kConflict) {
    // Lost the exactly-once race: the task was requeued (lease expiry) or
    // completed elsewhere. Free the worker without counting a completion.
    OSPREY_LOG(kInfo, "pool") << config_.name << " dropped late report for task "
                              << handle.eq_task_id;
  } else {
    if (!reported.is_ok() && reported.code() != ErrorCode::kCanceled) {
      OSPREY_LOG(kError, "pool") << config_.name << " report failed: "
                                 << reported.to_string();
    }
    ++tasks_completed_;
  }
  --running_;
  feed_.consume({handle.eq_task_id, obs::TaskEventKind::kRunEnd, sim_.now(),
                 handle.eq_type, config_.name, ""});
  in_completion_context_ = true;
  maybe_start_cached();
  in_completion_context_ = false;
  if (owned() == 0) idle_since_ = sim_.now();
  if (stopped_) {
    if (running_ == 0) shutdown();
    return;
  }
  // The §IV-D pattern: completion opens a deficit; query if it clears the
  // threshold.
  issue_query();
  if (owned() == 0) schedule_poll();
}

void SimWorkerPool::maybe_idle_shutdown() {
  if (stopped_ || config_.idle_shutdown <= 0) return;
  if (owned() == 0 && sim_.now() - idle_since_ >= config_.idle_shutdown) {
    stopped_ = true;
    shutdown();
  }
}

void SimWorkerPool::shutdown() {
  OSPREY_LOG(kInfo, "pool") << config_.name << " shut down after "
                            << tasks_completed_ << " tasks";
  if (notifier_ != nullptr && listener_id_ != 0) {
    notifier_->remove_listener(listener_id_);
    listener_id_ = 0;
  }
  if (poll_event_ != 0) {
    sim_.cancel(poll_event_);
    poll_event_ = 0;
  }
  if (on_shutdown_) on_shutdown_();
}

}  // namespace osprey::pool
