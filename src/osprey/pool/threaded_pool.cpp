#include "osprey/pool/threaded_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "osprey/core/log.h"

namespace osprey::pool {

namespace {
std::chrono::duration<double> seconds(Duration d) {
  return std::chrono::duration<double>(d > 0 ? d : 0);
}
}  // namespace

ThreadedWorkerPool::ThreadedWorkerPool(eqsql::EQSQL& api, PoolConfig config,
                                       ThreadedTaskRunner runner)
    : api_(api),
      config_(std::move(config)),
      policy_(config_.batch_size, config_.threshold),
      runner_(std::move(runner)),
      feed_(config_.name) {
  assert(runner_ && "pool needs a task runner");
}

ThreadedWorkerPool::~ThreadedWorkerPool() { stop(); }

Status ThreadedWorkerPool::start() {
  Status valid = QueryPolicy::validate(config_.batch_size, config_.threshold,
                                       config_.num_workers);
  if (!valid.is_ok()) return valid;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return Status(ErrorCode::kConflict, "pool already started");
    started_ = true;
    feed_.mark(api_.clock().now());
  }
  notifier_ = api_.notifier();
  if (notifier_ != nullptr) {
    work_channel_ = &notifier_->work_channel(config_.work_type);
    // The listener runs on the committing thread (under the database and
    // listener locks); it only pokes the coordinator. Taking mutex_ around
    // the notify pairs it with the coordinator's gate re-check under the
    // same lock, so a commit can never slip between re-check and sleep.
    listener_id_ = notifier_->on_work(config_.work_type, [this] {
      std::lock_guard<std::mutex> lock(mutex_);
      control_cv_.notify_one();
    });
  }
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  coordinator_ = std::thread([this] { coordinator_loop(); });
  OSPREY_LOG(kInfo, "pool") << config_.name << " started ("
                            << (notifier_ ? "notified" : "polling")
                            << ", workers=" << config_.num_workers << ")";
  return Status::ok();
}

void ThreadedWorkerPool::coordinator_loop() {
  TimePoint idle_since = api_.clock().now();
  // Notification-mode gate: after a query finds the output queue empty, the
  // coordinator stops issuing no-op claims until the work channel moves past
  // the version sampled before that query — the "queue known empty" fact is
  // keyed to the channel, so a submit committed mid-query reopens the gate
  // rather than being missed. Worker completions (which grow the deficit but
  // add nothing to the queue) no longer cost a DB round-trip at idle.
  bool queue_known_empty = false;
  std::uint64_t empty_version = 0;
  // Poll mode: consecutive queries that claimed nothing (see next_poll_delay).
  int empty_polls = 0;
  while (true) {
    int to_request = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_) break;
      to_request = policy_.tasks_to_request(owned_locked());
      if (owned_locked() > 0) idle_since = api_.clock().now();
    }
    if (to_request > 0 && work_channel_ != nullptr && queue_known_empty &&
        work_channel_->load(std::memory_order_acquire) == empty_version) {
      to_request = 0;  // queue still empty, nothing committed since
    }
    if (to_request > 0) {
      const std::uint64_t seen =
          work_channel_ != nullptr
              ? work_channel_->load(std::memory_order_acquire)
              : 0;
      int owned_now;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        owned_now = owned_locked();
      }
      // The §IV-D batched pool query: deficit/threshold applied at claim
      // time against the current owned count.
      obs::Stopwatch claim_latency;
      auto handles = api_.try_query_tasks_batched(
          config_.work_type, config_.batch_size, config_.threshold, owned_now,
          config_.name);
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ++queries_issued_;
        if (handles.ok() && !handles.value().empty()) {
          queue_known_empty = false;
          empty_polls = 0;
          obs::observe_latency(feed_.claim_latency(), claim_latency);
          const TimePoint claimed_at =
              obs::enabled() ? api_.clock().now() : 0.0;
          for (eqsql::TaskHandle& h : handles.value()) {
            cache_.push_back({std::move(h), claimed_at});
          }
          idle_since = api_.clock().now();
          work_cv_.notify_all();
          // Got work: loop immediately to check the policy again.
          continue;
        }
      }
      ++empty_polls;
      if (!handles.ok()) {
        OSPREY_LOG(kError, "pool") << config_.name << " query failed: "
                                   << handles.error().to_string();
      } else {
        queue_known_empty = true;
        empty_version = seen;
      }
    }
    // Nothing to fetch (or nothing available): wait for a completion, a
    // commit notification, or the poll delay / fallback interval, then
    // re-evaluate.
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) break;
    if (config_.idle_shutdown > 0 && owned_locked() == 0 &&
        api_.clock().now() - idle_since >= config_.idle_shutdown) {
      stopping_ = true;
      break;
    }
    if (work_channel_ != nullptr) {
      // Gate re-check under the lock: the on_work listener notifies under
      // this same mutex, so a commit after the check cannot win the race
      // into a lost wakeup.
      if (queue_known_empty &&
          work_channel_->load(std::memory_order_acquire) != empty_version) {
        queue_known_empty = false;
        continue;
      }
      Duration slice = config_.notify_fallback;
      if (config_.idle_shutdown > 0) {
        const Duration remain =
            config_.idle_shutdown - (api_.clock().now() - idle_since);
        slice = slice > 0 ? std::min(slice, remain) : remain;
      }
      if (slice > 0) {
        if (control_cv_.wait_for(lock, seconds(slice)) ==
            std::cv_status::timeout) {
          queue_known_empty = false;  // safety net: force a fallback probe
        }
      } else {
        control_cv_.wait(lock);  // no fallback: trust wakeups entirely
      }
    } else {
      control_cv_.wait_for(lock,
                           seconds(next_poll_delay(config_, empty_polls)));
    }
  }

  // Shutdown path: release cached tasks, wake workers so they can exit.
  std::vector<TaskId> to_requeue;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (const CachedTask& t : cache_) to_requeue.push_back(t.handle.eq_task_id);
    cache_.clear();
    work_cv_.notify_all();
  }
  if (!to_requeue.empty()) {
    auto requeued = api_.requeue_tasks(to_requeue);
    if (requeued.ok()) {
      OSPREY_LOG(kInfo, "pool") << config_.name << " requeued "
                                << requeued.value() << " cached tasks on stop";
    }
  }
}

void ThreadedWorkerPool::worker_loop() {
  while (true) {
    eqsql::TaskHandle handle;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !cache_.empty(); });
      if (cache_.empty()) return;  // stopping and drained
      CachedTask cached = std::move(cache_.front());
      cache_.pop_front();
      handle = std::move(cached.handle);
      ++running_count_;
      const TimePoint now = api_.clock().now();
      if (obs::enabled() && cached.claimed_at > 0.0) {
        feed_.queue_wait().observe(now - cached.claimed_at);
      }
      feed_.consume({handle.eq_task_id, obs::TaskEventKind::kRunStart, now,
                     handle.eq_type, config_.name, ""});
    }
    std::string result = runner_(handle);
    Status reported =
        api_.report_task(handle.eq_task_id, handle.eq_type, result);
    if (!reported.is_ok() && reported.code() != ErrorCode::kCanceled &&
        reported.code() != ErrorCode::kConflict) {
      OSPREY_LOG(kError, "pool") << config_.name << " report failed: "
                                 << reported.to_string();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_count_;
      // A kConflict report lost the exactly-once race (the task was
      // lease-requeued); it is not this pool's completion.
      if (reported.code() != ErrorCode::kConflict) ++tasks_completed_;
      feed_.consume({handle.eq_task_id, obs::TaskEventKind::kRunEnd,
                     api_.clock().now(), handle.eq_type, config_.name, ""});
    }
    control_cv_.notify_one();  // completion opens a deficit
  }
}

void ThreadedWorkerPool::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || shut_down_) return;
    stopping_ = true;
  }
  // Unsubscribe before joining, and never while holding mutex_: the commit
  // path invokes listeners under the notifier's listener lock and our
  // listener takes mutex_, so holding mutex_ here would close a lock cycle.
  if (notifier_ != nullptr && listener_id_ != 0) {
    notifier_->remove_listener(listener_id_);
    listener_id_ = 0;
  }
  control_cv_.notify_all();
  work_cv_.notify_all();
  if (coordinator_.joinable()) coordinator_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  shut_down_ = true;
  OSPREY_LOG(kInfo, "pool") << config_.name << " shut down after "
                            << tasks_completed_ << " tasks";
}

bool ThreadedWorkerPool::wait_until_shutdown(Duration timeout) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          seconds(timeout));
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_ || shut_down_) {
        // Coordinator decided to stop (idle). Finish joining.
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stopping_ && !shut_down_) return false;
  }
  stop();
  return true;
}

bool ThreadedWorkerPool::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return started_ && !shut_down_;
}

std::uint64_t ThreadedWorkerPool::tasks_completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_completed_;
}

std::uint64_t ThreadedWorkerPool::queries_issued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queries_issued_;
}

ConcurrencyTrace ThreadedWorkerPool::trace_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return feed_.trace();
}

}  // namespace osprey::pool
