#include "osprey/shard/router.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "osprey/obs/telemetry.h"

namespace osprey::shard {

namespace {

/// Static handles, resolved once (the ReplObs pattern): scatter traffic is
/// hot-path, so per-op registry lookups are not acceptable.
struct ShardObs {
  obs::Counter& scatter_ops;
  obs::Counter& partial_failures;
  obs::Counter& merge_duplicates;
  obs::Counter& fenced_writes;
  obs::Histogram& scatter_fanout;
  obs::Histogram& scatter_latency;
  obs::Histogram& merge_batch;

  ShardObs()
      : scatter_ops(
            obs::telemetry().metrics.counter("osprey_shard_scatter_total")),
        partial_failures(obs::telemetry().metrics.counter(
            "osprey_shard_scatter_partial_failures_total")),
        merge_duplicates(obs::telemetry().metrics.counter(
            "osprey_shard_merge_duplicates_total")),
        fenced_writes(obs::telemetry().metrics.counter(
            "osprey_shard_fenced_writes_total")),
        scatter_fanout(obs::telemetry().metrics.histogram(
            "osprey_shard_scatter_fanout", {}, obs::count_buckets())),
        scatter_latency(obs::telemetry().metrics.histogram(
            "osprey_shard_scatter_latency_seconds")),
        merge_batch(obs::telemetry().metrics.histogram(
            "osprey_shard_merge_batch_ids", {}, obs::count_buckets())) {}
};

ShardObs& shard_obs() {
  static ShardObs obs;
  return obs;
}

/// A shard outage mid-wait is a retryable condition for blocking calls: the
/// probe re-resolves the shard leader next round, so a failover in the wait
/// window costs retries, not an error.
bool retryable(ErrorCode code) { return code == ErrorCode::kUnavailable; }

/// The error for a global id whose shard bits name no shard of the cluster.
Error unrouted(TaskId global_id, std::uint32_t shard_count) {
  return Error(ErrorCode::kInvalidArgument,
               "task " + std::to_string(global_id) + " routes to shard " +
                   std::to_string(shard_of_task(global_id)) + " of " +
                   std::to_string(shard_count));
}

}  // namespace

// --- UnionWaiter -------------------------------------------------------------

UnionWaiter::UnionWaiter(const std::vector<eqsql::Notifier*>& notifiers,
                         WorkType eq_type) {
  subs_.reserve(notifiers.size());
  for (eqsql::Notifier* n : notifiers) {
    if (n == nullptr) continue;
    subs_.push_back({n, n->on_work(eq_type, [this] { bump(); })});
  }
}

UnionWaiter::UnionWaiter(const std::vector<eqsql::Notifier*>& notifiers) {
  subs_.reserve(notifiers.size());
  for (eqsql::Notifier* n : notifiers) {
    if (n == nullptr) continue;
    subs_.push_back({n, n->on_result([this](TaskId) { bump(); })});
  }
}

UnionWaiter::~UnionWaiter() {
  for (const Subscription& sub : subs_) {
    sub.notifier->remove_listener(sub.id);
  }
}

void UnionWaiter::bump() {
  // Runs on the committing thread (under that shard's database mutex and
  // listener mutex); our mutex is a leaf, so the order stays acyclic.
  version_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  cv_.notify_all();
}

bool UnionWaiter::wait_past(std::uint64_t seen, Duration timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout), [&] {
    return version_.load(std::memory_order_acquire) > seen;
  });
}

// --- ShardRouter -------------------------------------------------------------

ShardRouter::ShardRouter(ShardCluster& cluster, ShardRouterConfig config)
    : cluster_(cluster), config_(std::move(config)) {
  if (!config_.sleeper) config_.sleeper = &RealClock::sleep_for;
  routers_.reserve(cluster_.shard_count());
  for (ShardId s = 0; s < cluster_.shard_count(); ++s) {
    routers_.push_back(
        std::make_unique<repl::ReplRouter>(cluster_.group(s), config_.read));
  }
}

std::vector<ShardId> ShardRouter::rotation() {
  return rotation_order(rr_.fetch_add(1, std::memory_order_relaxed),
                        shard_count());
}

Result<TaskId> ShardRouter::submit_task(const ExpId& exp_id, WorkType eq_type,
                                        const std::string& payload,
                                        Priority priority,
                                        const std::string& tag) {
  const ShardId s = shard_of(eq_type, exp_id);
  Result<TaskId> local =
      routers_[s]->submit_task(exp_id, eq_type, payload, priority, tag);
  if (!local.ok()) return local;
  return global_task_id(local.value(), s);
}

Result<std::vector<TaskId>> ShardRouter::submit_tasks(
    const ExpId& exp_id, WorkType eq_type,
    const std::vector<std::string>& payloads, Priority priority,
    const std::string& tag) {
  const ShardId s = shard_of(eq_type, exp_id);
  Result<std::vector<TaskId>> locals =
      routers_[s]->submit_tasks(exp_id, eq_type, payloads, priority, tag);
  if (!locals.ok()) return locals;
  std::vector<TaskId> globals;
  globals.reserve(locals.value().size());
  for (TaskId local : locals.value()) {
    globals.push_back(global_task_id(local, s));
  }
  return globals;
}

Result<TaskId> ShardRouter::submit_task_as(const TenantId& tenant,
                                           const ExpId& exp_id,
                                           WorkType eq_type,
                                           const std::string& payload,
                                           Priority priority,
                                           const std::string& tag) {
  const ShardId s = shard_of(eq_type, exp_id);
  Result<TaskId> local = routers_[s]->submit_task_as(tenant, exp_id, eq_type,
                                                     payload, priority, tag);
  if (!local.ok()) return local;
  return global_task_id(local.value(), s);
}

Result<std::vector<TaskId>> ShardRouter::submit_tasks_as(
    const TenantId& tenant, const ExpId& exp_id, WorkType eq_type,
    const std::vector<std::string>& payloads, Priority priority,
    const std::string& tag) {
  const ShardId s = shard_of(eq_type, exp_id);
  Result<std::vector<TaskId>> locals = routers_[s]->submit_tasks_as(
      tenant, exp_id, eq_type, payloads, priority, tag);
  if (!locals.ok()) return locals;
  std::vector<TaskId> globals;
  globals.reserve(locals.value().size());
  for (TaskId local : locals.value()) {
    globals.push_back(global_task_id(local, s));
  }
  return globals;
}

void ShardRouter::set_tenant_context(TenantId tenant) {
  for (ShardId s = 0; s < shard_count(); ++s) {
    routers_[s]->set_tenant_context(cluster_.tenants(s), tenant);
  }
}

std::vector<tenant::TenantStats> ShardRouter::tenant_stats() {
  // Registry snapshots are in-memory — no shard database is touched, so
  // this merge works even while a shard's leader is down.
  std::map<TenantId, tenant::TenantStats> merged;
  for (ShardId s = 0; s < shard_count(); ++s) {
    tenant::TenantRegistry* registry = cluster_.tenants(s);
    if (registry == nullptr) continue;
    for (const tenant::TenantStats& row : registry->stats()) {
      auto [it, inserted] = merged.try_emplace(row.tenant, row);
      if (!inserted) it->second.merge(row);
    }
  }
  std::vector<tenant::TenantStats> out;
  out.reserve(merged.size());
  for (auto& [_, row] : merged) out.push_back(std::move(row));
  return out;
}

Result<std::vector<eqsql::TaskHandle>> ShardRouter::try_query_tasks(
    WorkType eq_type, int n, const PoolId& worker_pool) {
  std::vector<eqsql::TaskHandle> out;
  if (n <= 0) return out;
  // Work-type keying: the type's whole queue lives on one shard. Experiment
  // keying spreads a type across shards, so the claim sweeps the rotation
  // until n tasks are gathered.
  std::vector<ShardId> shards;
  if (cluster_.spec().key == ShardKeyKind::kWorkType) {
    shards.push_back(shard_of(eq_type));
  } else {
    shards = rotation();
  }
  obs::Stopwatch latency;
  std::size_t failed = 0;
  Error last_error;
  for (ShardId s : shards) {
    const int want = n - static_cast<int>(out.size());
    if (want <= 0) break;
    Result<std::vector<eqsql::TaskHandle>> claimed =
        routers_[s]->try_query_tasks(eq_type, want, worker_pool);
    if (!claimed.ok()) {
      if (!config_.tolerate_partial) return claimed.error();
      ++failed;
      ++partial_failures_;
      if (obs::enabled()) shard_obs().partial_failures.inc();
      last_error = claimed.error();
      continue;
    }
    for (eqsql::TaskHandle& handle : claimed.value()) {
      handle.eq_task_id = global_task_id(handle.eq_task_id, s);
      out.push_back(std::move(handle));
    }
  }
  if (failed == shards.size()) return last_error;  // every probe failed
  if (shards.size() > 1) {
    ++scatter_ops_;
    if (obs::enabled()) {
      ShardObs& o = shard_obs();
      o.scatter_ops.inc();
      o.scatter_fanout.observe(static_cast<double>(shards.size()));
      obs::observe_latency(o.scatter_latency, latency);
    }
  }
  return out;
}

Result<std::vector<eqsql::TaskHandle>> ShardRouter::query_task(
    WorkType eq_type, int n, const PoolId& worker_pool, eqsql::WaitSpec wait) {
  // Notify mode needs every relevant shard's notifier: a shard without one
  // could complete work the union never hears about, so any gap degrades
  // the whole wait to polling.
  std::vector<eqsql::Notifier*> notifiers;
  if (cluster_.spec().key == ShardKeyKind::kWorkType) {
    notifiers.push_back(cluster_.notifier(shard_of(eq_type)));
  } else {
    for (ShardId s = 0; s < shard_count(); ++s) {
      notifiers.push_back(cluster_.notifier(s));
    }
  }
  std::unique_ptr<UnionWaiter> channel;
  if (wait.strategy != eqsql::WaitStrategy::kPoll &&
      std::find(notifiers.begin(), notifiers.end(), nullptr) ==
          notifiers.end()) {
    channel = std::make_unique<UnionWaiter>(notifiers, eq_type);
  }

  // Each probe re-resolves the shard leader, so the wait survives a
  // mid-wait failover.
  std::vector<eqsql::TaskHandle> claimed;
  Status waited = eqsql::wait_until(
      wait, cluster_.clock(), config_.sleeper, channel.get(),
      [&]() -> Result<eqsql::ProbeOutcome> {
        Result<std::vector<eqsql::TaskHandle>> handles =
            try_query_tasks(eq_type, n, worker_pool);
        if (!handles.ok()) {
          if (retryable(handles.code())) return eqsql::ProbeOutcome::kNotYet;
          return handles.error();
        }
        if (handles.value().empty()) return eqsql::ProbeOutcome::kNotYet;
        claimed = std::move(handles).take();
        return eqsql::ProbeOutcome::kDone;
      },
      [&] {
        return "no task of type " + std::to_string(eq_type) + " within " +
               std::to_string(wait.timeout) + "s";
      });
  if (!waited.is_ok()) return waited.error();
  return claimed;
}

Status ShardRouter::report_task(TaskId global_id, WorkType eq_type,
                                const std::string& result) {
  const ShardId s = shard_of_task(global_id);
  if (s >= shard_count()) return unrouted(global_id, shard_count());
  return routers_[s]->report_task(local_task_id(global_id), eq_type, result);
}

Status ShardRouter::report_task_at_epoch(repl::Epoch epoch, TaskId global_id,
                                         WorkType eq_type,
                                         const std::string& result) {
  const ShardId s = shard_of_task(global_id);
  if (s >= shard_count()) return unrouted(global_id, shard_count());
  const std::uint64_t fenced_before = routers_[s]->fenced_writes();
  Status status = routers_[s]->report_task_at_epoch(
      epoch, local_task_id(global_id), eq_type, result);
  if (obs::enabled() && routers_[s]->fenced_writes() > fenced_before) {
    shard_obs().fenced_writes.inc();
  }
  return status;
}

Result<std::string> ShardRouter::try_query_result(TaskId global_id) {
  const ShardId s = shard_of_task(global_id);
  if (s >= shard_count()) return unrouted(global_id, shard_count());
  return routers_[s]->try_query_result(local_task_id(global_id));
}

Result<std::size_t> ShardRouter::requeue_tasks(
    const std::vector<TaskId>& global_ids) {
  // Group per owning shard, de-globalizing the ids on the way.
  std::vector<std::vector<TaskId>> per_shard(shard_count());
  for (TaskId id : global_ids) {
    const ShardId s = shard_of_task(id);
    if (s >= shard_count()) return unrouted(id, shard_count());
    per_shard[s].push_back(local_task_id(id));
  }
  std::size_t requeued = 0;
  std::size_t probed = 0;
  std::size_t failed = 0;
  Error last_error{ErrorCode::kUnavailable, "no shards probed"};
  for (ShardId s = 0; s < shard_count(); ++s) {
    if (per_shard[s].empty()) continue;
    ++probed;
    Result<std::size_t> r = routers_[s]->requeue_tasks(per_shard[s]);
    if (!r.ok()) {
      if (!config_.tolerate_partial) return r.error();
      ++failed;
      ++partial_failures_;
      last_error = r.error();
      continue;
    }
    requeued += r.value();
  }
  if (probed > 0 && failed == probed) return last_error;
  return requeued;
}

pool::PoolBackend ShardRouter::pool_backend(WorkType eq_type) {
  pool::PoolBackend backend;
  backend.claim_batched = [this](WorkType type, int batch_size, int threshold,
                                 int owned, const PoolId& worker_pool)
      -> Result<std::vector<eqsql::TaskHandle>> {
    // The same batch/threshold gate as EQSQL::try_query_tasks_batched; the
    // claim itself routes through the owning shard (or scatters, under
    // experiment keying).
    if (batch_size <= 0 || threshold <= 0 || owned < 0) {
      return Error(ErrorCode::kInvalidArgument,
                   "batch_size and threshold must be positive, owned >= 0");
    }
    int deficit = batch_size - owned;
    if (deficit < threshold) return std::vector<eqsql::TaskHandle>{};
    return try_query_tasks(type, deficit, worker_pool);
  };
  backend.report = [this](TaskId global_id, WorkType type,
                          const std::string& result) {
    return report_task(global_id, type, result);
  };
  backend.requeue = [this](const std::vector<TaskId>& ids) {
    return requeue_tasks(ids);
  };
  backend.notifier = [this, eq_type]() -> eqsql::Notifier* {
    if (cluster_.spec().key != ShardKeyKind::kWorkType) return nullptr;
    return cluster_.notifier(shard_of(eq_type));
  };
  return backend;
}

Result<std::string> ShardRouter::peek_result(TaskId global_id) {
  const ShardId s = shard_of_task(global_id);
  if (s >= shard_count()) return unrouted(global_id, shard_count());
  return routers_[s]->peek_result(local_task_id(global_id));
}

Result<eqsql::TaskStatus> ShardRouter::task_status(TaskId global_id) {
  const ShardId s = shard_of_task(global_id);
  if (s >= shard_count()) return unrouted(global_id, shard_count());
  return routers_[s]->task_status(local_task_id(global_id));
}

Result<std::int64_t> ShardRouter::queued_count(WorkType eq_type) {
  if (cluster_.spec().key == ShardKeyKind::kWorkType) {
    return routers_[shard_of(eq_type)]->queued_count(eq_type);
  }
  // Experiment keying spreads a type across every shard: sum the scatter.
  std::int64_t total = 0;
  std::size_t succeeded = 0;
  Error last_error;
  for (ShardId s = 0; s < shard_count(); ++s) {
    Result<std::int64_t> count = routers_[s]->queued_count(eq_type);
    if (!count.ok()) {
      if (!config_.tolerate_partial) return count.error();
      ++partial_failures_;
      if (obs::enabled()) shard_obs().partial_failures.inc();
      last_error = count.error();
      continue;
    }
    total += count.value();
    ++succeeded;
  }
  if (succeeded == 0) return last_error;
  ++scatter_ops_;
  if (obs::enabled()) shard_obs().scatter_ops.inc();
  return total;
}

Result<eqsql::QueueStats> ShardRouter::stats() {
  obs::Stopwatch latency;
  eqsql::QueueStats total;
  std::size_t succeeded = 0;
  Error last_error;
  for (ShardId s = 0; s < shard_count(); ++s) {
    Result<eqsql::QueueStats> stats = routers_[s]->stats();
    if (!stats.ok()) {
      if (!config_.tolerate_partial) return stats.error();
      ++partial_failures_;
      if (obs::enabled()) shard_obs().partial_failures.inc();
      last_error = stats.error();
      continue;
    }
    total.merge(stats.value());
    ++succeeded;
  }
  if (succeeded == 0) return last_error;
  ++scatter_ops_;
  if (obs::enabled()) {
    ShardObs& o = shard_obs();
    o.scatter_ops.inc();
    o.scatter_fanout.observe(static_cast<double>(shard_count()));
    obs::observe_latency(o.scatter_latency, latency);
  }
  return total;
}

Result<std::vector<TaskId>> ShardRouter::try_query_completed(
    const std::vector<TaskId>& global_ids, int n) {
  if (n <= 0 || global_ids.empty()) return std::vector<TaskId>{};
  // Group the ids by owning shard, preserving the caller's per-shard order.
  // A shard with no ids is not probed at all (the empty-shard edge).
  std::unordered_map<ShardId, std::vector<TaskId>> locals;
  for (TaskId id : global_ids) {
    const ShardId s = shard_of_task(id);
    if (s >= shard_count()) return unrouted(id, shard_count());
    locals[s].push_back(local_task_id(id));
  }
  obs::Stopwatch latency;
  std::vector<TaskId> found;
  std::unordered_set<TaskId> seen;
  std::size_t probed = 0;
  std::size_t failed = 0;
  Error last_error;
  // Gather in rotation order with a shrinking budget: each shard-side probe
  // pops its input-queue entries — an exactly-once delivery — so a probe
  // must never ask for more than the caller can still take.
  for (ShardId s : rotation()) {
    if (static_cast<int>(found.size()) >= n) break;
    auto it = locals.find(s);
    if (it == locals.end()) continue;
    ++probed;
    Result<std::vector<TaskId>> completed = routers_[s]->try_query_completed(
        it->second, n - static_cast<int>(found.size()));
    if (!completed.ok()) {
      if (!config_.tolerate_partial) return completed.error();
      ++failed;
      ++partial_failures_;
      if (obs::enabled()) shard_obs().partial_failures.inc();
      last_error = completed.error();
      continue;
    }
    for (TaskId local : completed.value()) {
      const TaskId global = global_task_id(local, s);
      if (!seen.insert(global).second) {
        ++merge_duplicates_;
        if (obs::enabled()) shard_obs().merge_duplicates.inc();
        continue;
      }
      found.push_back(global);
    }
  }
  if (probed > 0 && failed == probed) return last_error;
  ++scatter_ops_;
  if (obs::enabled()) {
    ShardObs& o = shard_obs();
    o.scatter_ops.inc();
    o.scatter_fanout.observe(static_cast<double>(probed));
    o.merge_batch.observe(static_cast<double>(found.size()));
    obs::observe_latency(o.scatter_latency, latency);
  }
  return found;
}

Result<std::vector<TaskId>> ShardRouter::as_completed(
    const std::vector<TaskId>& global_ids, std::size_t n,
    eqsql::WaitSpec wait) {
  if (n == 0) return std::vector<TaskId>{};
  if (n > global_ids.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "waiting for " + std::to_string(n) + " of " +
                     std::to_string(global_ids.size()) + " tasks");
  }
  // The union wait covers the result channels of exactly the owning shards:
  // a completion on any of them wakes the waiter; shards holding none of
  // the ids are neither probed nor subscribed.
  std::vector<eqsql::Notifier*> notifiers;
  {
    std::unordered_set<ShardId> owners;
    for (TaskId id : global_ids) owners.insert(shard_of_task(id));
    for (ShardId s : owners) {
      notifiers.push_back(s < shard_count() ? cluster_.notifier(s) : nullptr);
    }
  }
  std::unique_ptr<UnionWaiter> channel;
  if (wait.strategy != eqsql::WaitStrategy::kPoll &&
      std::find(notifiers.begin(), notifiers.end(), nullptr) ==
          notifiers.end()) {
    channel = std::make_unique<UnionWaiter>(notifiers);
  }

  std::vector<TaskId> pending = global_ids;
  std::vector<TaskId> done;
  done.reserve(n);
  Status waited = eqsql::wait_until(
      wait, cluster_.clock(), config_.sleeper, channel.get(),
      [&]() -> Result<eqsql::ProbeOutcome> {
        Result<std::vector<TaskId>> completed =
            try_query_completed(pending, static_cast<int>(n - done.size()));
        if (!completed.ok()) {
          if (retryable(completed.code())) return eqsql::ProbeOutcome::kNotYet;
          return completed.error();
        }
        for (TaskId id : completed.value()) {
          done.push_back(id);
          pending.erase(std::remove(pending.begin(), pending.end(), id),
                        pending.end());
        }
        return done.size() >= n ? eqsql::ProbeOutcome::kDone
                                : eqsql::ProbeOutcome::kNotYet;
      },
      [&] {
        return std::to_string(done.size()) + " of " + std::to_string(n) +
               " tasks complete within " + std::to_string(wait.timeout) + "s";
      });
  if (!waited.is_ok()) return waited.error();
  return done;
}

Result<TaskId> ShardRouter::pop_completed(std::vector<TaskId>& global_ids,
                                          eqsql::WaitSpec wait) {
  Result<std::vector<TaskId>> done = as_completed(global_ids, 1, wait);
  if (!done.ok()) return done.error();
  const TaskId id = done.value().front();
  global_ids.erase(std::remove(global_ids.begin(), global_ids.end(), id),
                   global_ids.end());
  return id;
}

std::uint64_t ShardRouter::fenced_writes() const {
  std::uint64_t total = 0;
  for (const auto& router : routers_) total += router->fenced_writes();
  return total;
}

}  // namespace osprey::shard
