#include "osprey/eqsql/db_api.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <unordered_set>

#include "osprey/core/log.h"
#include "osprey/eqsql/notify.h"
#include "osprey/eqsql/schema.h"

namespace osprey::eqsql {

namespace {

/// The ids in ascending order, each once: batch operations visit a task at
/// most once, however often the caller lists it.
std::vector<TaskId> sorted_unique(std::vector<TaskId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

EQSQL::ObsHandles::ObsHandles()
    : submitted(obs::telemetry().metrics.counter(
          "osprey_eqsql_tasks_submitted_total")),
      claimed(
          obs::telemetry().metrics.counter("osprey_eqsql_tasks_claimed_total")),
      reported(obs::telemetry().metrics.counter(
          "osprey_eqsql_tasks_reported_total")),
      report_conflicts(obs::telemetry().metrics.counter(
          "osprey_eqsql_report_conflicts_total")),
      completed(obs::telemetry().metrics.counter(
          "osprey_eqsql_results_picked_up_total")),
      canceled(obs::telemetry().metrics.counter(
          "osprey_eqsql_tasks_canceled_total")),
      requeued(obs::telemetry().metrics.counter(
          "osprey_eqsql_tasks_requeued_total")),
      output_depth(
          obs::telemetry().metrics.gauge("osprey_eqsql_output_queue_depth")),
      input_depth(
          obs::telemetry().metrics.gauge("osprey_eqsql_input_queue_depth")),
      submit_latency(obs::telemetry().metrics.histogram(
          "osprey_eqsql_submit_latency_seconds")),
      claim_latency(obs::telemetry().metrics.histogram(
          "osprey_eqsql_claim_latency_seconds")),
      report_latency(obs::telemetry().metrics.histogram(
          "osprey_eqsql_report_latency_seconds")),
      result_latency(obs::telemetry().metrics.histogram(
          "osprey_eqsql_result_latency_seconds")) {}

const char* task_status_name(TaskStatus s) {
  switch (s) {
    case TaskStatus::kQueued: return "queued";
    case TaskStatus::kRunning: return "running";
    case TaskStatus::kComplete: return "complete";
    case TaskStatus::kCanceled: return "canceled";
  }
  return "?";
}

Result<TaskStatus> parse_task_status(const std::string& name) {
  if (name == "queued") return TaskStatus::kQueued;
  if (name == "running") return TaskStatus::kRunning;
  if (name == "complete") return TaskStatus::kComplete;
  if (name == "canceled") return TaskStatus::kCanceled;
  return Error(ErrorCode::kInvalidArgument, "unknown task status '" + name + "'");
}

EQSQL::EQSQL(db::Database& db, const Clock& clock)
    : db_(db),
      clock_(clock),
      sleeper_(&RealClock::sleep_for),
      conn_(db) {
  assert(schema_exists(db) && "EMEWS schema missing: call create_schema first");
}

Result<TaskId> EQSQL::submit_task(const ExpId& exp_id, WorkType eq_type,
                                  const std::string& payload, Priority priority,
                                  const std::string& tag) {
  Result<std::vector<TaskId>> ids =
      submit_tasks(exp_id, eq_type, {payload}, priority, tag);
  if (!ids.ok()) return ids.error();
  return ids.value().front();
}

Result<std::vector<TaskId>> EQSQL::submit_tasks(
    const ExpId& exp_id, WorkType eq_type,
    const std::vector<std::string>& payloads, Priority priority,
    const std::string& tag) {
  return submit_tasks_as(tenant_, exp_id, eq_type, payloads, priority, tag);
}

Result<TaskId> EQSQL::submit_task_as(const TenantId& tenant,
                                     const ExpId& exp_id, WorkType eq_type,
                                     const std::string& payload,
                                     Priority priority,
                                     const std::string& tag) {
  Result<std::vector<TaskId>> ids =
      submit_tasks_as(tenant, exp_id, eq_type, {payload}, priority, tag);
  if (!ids.ok()) return ids.error();
  return ids.value().front();
}

namespace {

/// Compensates an admit whose submit transaction never committed: the
/// front-door charge must not leak quota when the database says no.
struct AdmitGuard {
  tenant::TenantRegistry* registry;
  const TenantId& tenant;
  std::size_t n;
  bool committed = false;
  ~AdmitGuard() {
    if (registry != nullptr && !committed) registry->unadmit(tenant, n);
  }
};

}  // namespace

Result<std::vector<TaskId>> EQSQL::submit_tasks_as(
    const TenantId& tenant, const ExpId& exp_id, WorkType eq_type,
    const std::vector<std::string>& payloads, Priority priority,
    const std::string& tag) {
  if (payloads.empty()) return std::vector<TaskId>{};
  obs::Stopwatch latency;
  // Admission control happens before the transaction opens: an over-quota
  // submit costs the client one registry check, not a database round-trip.
  if (tenants_ != nullptr) {
    Status admitted = tenants_->admit(tenant, payloads.size());
    if (!admitted.is_ok()) return admitted.error();
  }
  AdmitGuard admit_guard{tenants_, tenant, payloads.size()};
  db::Transaction txn(db_);

  // Allocate a contiguous id block from the sequence row.
  auto seq = conn_.execute(
      "SELECT meta_value FROM eq_meta WHERE meta_key = 'next_task_id'");
  if (!seq.ok()) return seq.error();
  if (seq.value().rows.empty()) {
    return Error(ErrorCode::kInternal, "task id sequence row missing");
  }
  TaskId first_id = seq.value().rows[0][0].as_int();
  auto bump = conn_.execute(
      "UPDATE eq_meta SET meta_value = meta_value + ? "
      "WHERE meta_key = 'next_task_id'",
      {db::Value(static_cast<std::int64_t>(payloads.size()))});
  if (!bump.ok()) return bump.error();

  const double now = clock_.now();
  // Untenanted submits keep a NULL tenant column, byte-identical with the
  // pre-tenancy schema's rows.
  const db::Value tenant_value =
      tenant.empty() ? db::Value() : db::Value(tenant);
  std::vector<TaskId> ids;
  ids.reserve(payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    TaskId id = first_id + static_cast<TaskId>(i);
    auto ins = conn_.execute(
        "INSERT INTO eq_tasks (eq_task_id, eq_task_type, eq_status, "
        "eq_priority, json_out, time_created, tenant) "
        "VALUES (?, ?, 'queued', ?, ?, ?, ?)",
        {db::Value(id), db::Value(std::int64_t{eq_type}),
         db::Value(std::int64_t{priority}), db::Value(payloads[i]),
         db::Value(now), tenant_value});
    if (!ins.ok()) return ins.error();
    auto queue = conn_.execute(
        "INSERT INTO eq_output_queue (eq_task_id, eq_task_type, eq_priority, "
        "tenant) VALUES (?, ?, ?, ?)",
        {db::Value(id), db::Value(std::int64_t{eq_type}),
         db::Value(std::int64_t{priority}), tenant_value});
    if (!queue.ok()) return queue.error();
    auto exp = conn_.execute("INSERT INTO eq_experiments VALUES (?, ?)",
                             {db::Value(exp_id), db::Value(id)});
    if (!exp.ok()) return exp.error();
    if (!tag.empty()) {
      auto tagged = conn_.execute("INSERT INTO eq_task_tags VALUES (?, ?)",
                                  {db::Value(id), db::Value(tag)});
      if (!tagged.ok()) return tagged.error();
    }
    ids.push_back(id);
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  admit_guard.committed = true;
  if (obs::enabled()) {
    obs_.submitted.inc(ids.size());
    obs_.output_depth.add(static_cast<double>(ids.size()));
    obs::observe_latency(obs_.submit_latency, latency);
    for (TaskId id : ids) {
      obs::telemetry().trace.record(
          {id, obs::TaskEventKind::kSubmitted, now, eq_type, "", exp_id});
    }
  }
  return ids;
}

Result<std::vector<TaskId>> EQSQL::pick_tasks_locked(WorkType eq_type,
                                                    int n) {
  // The n highest-priority entries; ties resolve FIFO by task id.
  auto top = conn_.execute(
      "SELECT eq_task_id FROM eq_output_queue WHERE eq_task_type = ? "
      "ORDER BY eq_priority DESC, eq_task_id ASC LIMIT ?",
      {db::Value(std::int64_t{eq_type}), db::Value(std::int64_t{n})});
  if (!top.ok()) return top.error();
  std::vector<TaskId> ids;
  ids.reserve(top.value().rows.size());
  for (const db::Row& row : top.value().rows) ids.push_back(row[0].as_int());
  return ids;
}

Result<std::vector<TaskId>> EQSQL::pick_tasks_fair_locked(
    WorkType eq_type, int n,
    std::vector<std::pair<TenantId, std::size_t>>& claimed_by) {
  // Weighted-fair draw (DESIGN.md §5.13): instead of popping the global
  // priority order, take each backlogged tenant's head (its first n tasks
  // in priority order, ties FIFO by task id) and let the stride scheduler
  // interleave the heads, so one tenant's huge campaign cannot starve the
  // others. No tenant can be picked more than n times, so n-task heads
  // give the same interleave as the whole backlog would.
  const db::Value type(std::int64_t{eq_type});
  Result<std::vector<db::Value>> tenant_cells =
      db_.table(kOutputQueueTable)
          ->distinct_values({{"eq_task_type", type}}, "tenant");
  if (!tenant_cells.ok()) return tenant_cells.error();

  // Per tenant, (priority, task id) pairs; the untenanted principal owns
  // both NULL and '' cells, so its two heads are merged.
  std::map<TenantId, std::vector<std::pair<Priority, TaskId>>> heads;
  for (const db::Value& cell : tenant_cells.value()) {
    std::vector<db::Value> params{type};
    if (!cell.is_null()) params.push_back(cell);
    params.emplace_back(std::int64_t{n});
    auto head = conn_.execute(
        std::string("SELECT eq_priority, eq_task_id FROM eq_output_queue "
                    "WHERE eq_task_type = ? AND ") +
            (cell.is_null() ? "tenant IS NULL" : "tenant = ?") +
            " ORDER BY eq_priority DESC, eq_task_id ASC LIMIT ?",
        params);
    if (!head.ok()) return head.error();
    auto& ids = heads[cell.is_null() ? TenantId{} : cell.as_text()];
    for (const db::Row& row : head.value().rows) {
      ids.emplace_back(static_cast<Priority>(row[0].as_int()), row[1].as_int());
    }
    std::sort(ids.begin(), ids.end(), [](const auto& a, const auto& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
  }
  std::vector<TenantId> candidates;
  candidates.reserve(heads.size());
  for (const auto& [t, ids] : heads) candidates.push_back(t);

  std::vector<TaskId> picked;
  picked.reserve(static_cast<std::size_t>(n));
  std::map<TenantId, std::size_t> counts;
  while (picked.size() < static_cast<std::size_t>(n) && !candidates.empty()) {
    const TenantId next = tenants_->pick_next(candidates);
    const auto& ids = heads[next];
    std::size_t& taken = counts[next];
    picked.push_back(ids[taken].second);
    ++taken;
    tenants_->charge(next, 1);
    if (taken == ids.size()) {
      candidates.erase(std::find(candidates.begin(), candidates.end(), next));
    }
  }
  claimed_by.assign(counts.begin(), counts.end());
  return picked;
}

Result<std::vector<TaskHandle>> EQSQL::take_tasks_locked(
    WorkType eq_type, const std::vector<TaskId>& picked,
    const PoolId& worker_pool) {
  // Hand tasks out in pick order: priority order for the plain claim, the
  // scheduler's interleave for the fair one (the interleave *is* the
  // fairness).
  const TimePoint now = clock_.now();
  std::vector<TaskHandle> handles;
  handles.reserve(picked.size());
  for (TaskId id : picked) {
    auto del = conn_.execute("DELETE FROM eq_output_queue WHERE eq_task_id = ?",
                             {db::Value(id)});
    if (!del.ok()) return del.error();
    auto upd = conn_.execute(
        "UPDATE eq_tasks SET eq_status = 'running', worker_pool = ?, "
        "time_start = ? WHERE eq_task_id = ?",
        {db::Value(worker_pool), db::Value(now), db::Value(id)});
    if (!upd.ok()) return upd.error();
    auto payload = conn_.execute(
        "SELECT json_out FROM eq_tasks WHERE eq_task_id = ?", {db::Value(id)});
    if (!payload.ok()) return payload.error();
    if (payload.value().rows.empty()) {
      return Error(ErrorCode::kInternal,
                   "queued task " + std::to_string(id) + " has no task row");
    }
    const db::Value& json = payload.value().rows[0][0];
    handles.push_back(
        TaskHandle{id, eq_type, json.is_null() ? "" : json.as_text()});
  }
  return handles;
}

Result<std::vector<TaskHandle>> EQSQL::try_query_tasks(
    WorkType eq_type, int n, const PoolId& worker_pool) {
  if (n <= 0) return std::vector<TaskHandle>{};
  obs::Stopwatch latency;
  std::vector<std::pair<TenantId, std::size_t>> claimed_by;
  db::Transaction txn(db_);
  Result<std::vector<TaskId>> picked =
      tenants_ != nullptr ? pick_tasks_fair_locked(eq_type, n, claimed_by)
                          : pick_tasks_locked(eq_type, n);
  if (!picked.ok()) return picked.error();
  Result<std::vector<TaskHandle>> handles =
      take_tasks_locked(eq_type, picked.value(), worker_pool);
  if (handles.ok() && !handles.value().empty()) {
    Status committed = txn.commit();
    // A claim that cannot be made durable never happened: the rollback put
    // the tasks back in the output queue, so report the failure instead of
    // handing out leases the log does not know about.
    if (!committed.is_ok()) return committed.error();
    if (tenants_ != nullptr) {
      for (const auto& [t, count] : claimed_by) tenants_->on_claimed(t, count);
    }
    if (obs::enabled()) {
      obs_.claimed.inc(handles.value().size());
      obs_.output_depth.add(-static_cast<double>(handles.value().size()));
      obs::observe_latency(obs_.claim_latency, latency);
      const TimePoint now = clock_.now();
      for (const TaskHandle& h : handles.value()) {
        obs::telemetry().trace.record({h.eq_task_id,
                                       obs::TaskEventKind::kClaimed, now,
                                       h.eq_type, worker_pool, ""});
      }
    }
  }
  return handles;
}

Result<std::vector<TaskHandle>> EQSQL::try_query_tasks_batched(
    WorkType eq_type, int batch_size, int threshold, int owned,
    const PoolId& worker_pool) {
  if (batch_size <= 0 || threshold <= 0 || owned < 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "batch_size and threshold must be positive, owned >= 0");
  }
  int deficit = batch_size - owned;
  if (deficit < threshold) return std::vector<TaskHandle>{};
  return try_query_tasks(eq_type, deficit, worker_pool);
}

Result<std::vector<TaskHandle>> EQSQL::query_task(WorkType eq_type, int n,
                                                  const PoolId& worker_pool,
                                                  WaitSpec wait) {
  std::optional<NotifierChannel> channel;
  if (wait.resolve(notifier_) == WaitStrategy::kNotify) {
    channel.emplace(*notifier_, eq_type);
  }
  std::vector<TaskHandle> claimed;
  Status waited = wait_until(
      wait, clock_, sleeper_, channel ? &*channel : nullptr,
      [&]() -> Result<ProbeOutcome> {
        Result<std::vector<TaskHandle>> handles =
            try_query_tasks(eq_type, n, worker_pool);
        if (!handles.ok()) return handles.error();
        if (handles.value().empty()) return ProbeOutcome::kNotYet;
        claimed = std::move(handles).take();
        return ProbeOutcome::kDone;
      },
      [&] {
        return "no task of type " + std::to_string(eq_type) + " within " +
               std::to_string(wait.timeout) + "s";
      });
  if (!waited.is_ok()) return waited.error();
  return claimed;
}

Status EQSQL::report_task(TaskId eq_task_id, WorkType eq_type,
                          const std::string& result) {
  obs::Stopwatch latency;
  db::Transaction txn(db_);
  auto status = conn_.execute(
      "SELECT eq_status, worker_pool, time_created, time_start, tenant "
      "FROM eq_tasks WHERE eq_task_id = ?",
      {db::Value(eq_task_id)});
  if (!status.ok()) return status.error();
  if (status.value().rows.empty()) {
    return Status(ErrorCode::kNotFound,
                  "no task " + std::to_string(eq_task_id));
  }
  const std::string& current = status.value().rows[0][0].as_text();
  if (current == "canceled") {
    // Canceled while running: drop the result, keep the canceled state
    // (the ME algorithm already gave up on this task).
    txn.commit();
    return Status(ErrorCode::kCanceled,
                  "task " + std::to_string(eq_task_id) + " was canceled");
  }
  if (current != "running") {
    // Exactly-once guard: a task that was lease-requeued (back to 'queued')
    // or already reported ('complete') must not be completed again — the
    // late report loses the race and is dropped.
    txn.commit();
    obs_.report_conflicts.inc();
    return Status(ErrorCode::kConflict,
                  "task " + std::to_string(eq_task_id) + " is " + current +
                      ", not running; dropping late report");
  }
  const TimePoint now = clock_.now();
  auto upd = conn_.execute(
      "UPDATE eq_tasks SET eq_status = 'complete', json_in = ?, time_stop = ? "
      "WHERE eq_task_id = ?",
      {db::Value(result), db::Value(now), db::Value(eq_task_id)});
  if (!upd.ok()) return upd.error();
  auto push = conn_.execute(
      "INSERT INTO eq_input_queue VALUES (?, ?)",
      {db::Value(eq_task_id), db::Value(std::int64_t{eq_type})});
  if (!push.ok()) return push.error();
  Status committed = txn.commit();
  if (committed.is_ok() && tenants_ != nullptr) {
    // Release the tenant's in-flight slot and feed the per-tenant
    // task-cycle latency (submit -> complete) and cost accounting.
    const db::Row& row = status.value().rows[0];
    const TenantId task_tenant = row[4].is_null() ? TenantId{} : row[4].as_text();
    const double cycle = row[2].is_null() ? -1.0 : now - row[2].as_real();
    const double run = row[3].is_null() ? 0.0 : now - row[3].as_real();
    tenants_->on_finished(task_tenant, 1, /*from_queue=*/false, cycle, run);
  }
  if (committed.is_ok() && obs::enabled()) {
    obs_.reported.inc();
    obs_.input_depth.add(1.0);
    obs::observe_latency(obs_.report_latency, latency);
    const db::Value& pool = status.value().rows[0][1];
    obs::telemetry().trace.record({eq_task_id, obs::TaskEventKind::kReported,
                                   now, eq_type,
                                   pool.is_null() ? "" : pool.as_text(), ""});
  }
  return committed;
}

Result<std::string> EQSQL::try_query_result(TaskId eq_task_id) {
  // Complete is a terminal state, so the check and the pop need not share
  // a transaction. The pop counts the pickup only if this call removed the
  // entry: a task try_query_completed already popped is not counted twice.
  Result<std::string> result = peek_result(eq_task_id);
  if (!result.ok()) return result.error();
  Status popped = pop_result_entry(eq_task_id);
  if (!popped.is_ok()) return popped.error();
  return result;
}

Result<std::string> EQSQL::peek_result(TaskId eq_task_id) {
  auto row = conn_.execute(
      "SELECT eq_status, json_in FROM eq_tasks WHERE eq_task_id = ?",
      {db::Value(eq_task_id)});
  if (!row.ok()) return row.error();
  if (row.value().rows.empty()) {
    return Error(ErrorCode::kNotFound, "no task " + std::to_string(eq_task_id));
  }
  const std::string& status = row.value().rows[0][0].as_text();
  if (status == "canceled") {
    return Error(ErrorCode::kCanceled,
                 "task " + std::to_string(eq_task_id) + " canceled");
  }
  if (status != "complete") {
    return Error(ErrorCode::kNotFound,
                 "task " + std::to_string(eq_task_id) + " not complete");
  }
  return row.value().rows[0][1].is_null() ? std::string{}
                                          : row.value().rows[0][1].as_text();
}

Status EQSQL::pop_result_entry(TaskId eq_task_id) {
  obs::Stopwatch latency;
  db::Transaction txn(db_);
  auto pop = conn_.execute("DELETE FROM eq_input_queue WHERE eq_task_id = ?",
                           {db::Value(eq_task_id)});
  if (!pop.ok()) return pop.error();
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed;
  // affected == 0 means someone already popped it (e.g. a concurrent
  // pickup); the payload the caller holds is still the task's result, so
  // only the queue-depth accounting is conditional.
  if (obs::enabled() && pop.value().affected > 0) {
    obs_.completed.inc();
    obs_.input_depth.add(-1.0);
    obs::observe_latency(obs_.result_latency, latency);
    obs::telemetry().trace.record(
        {eq_task_id, obs::TaskEventKind::kCompleted, clock_.now(), 0, "", ""});
  }
  return Status::ok();
}

Result<std::string> EQSQL::query_result(TaskId eq_task_id, WaitSpec wait) {
  std::optional<NotifierChannel> channel;
  if (wait.resolve(notifier_) == WaitStrategy::kNotify) channel.emplace(*notifier_);
  std::string payload;
  Status waited = wait_until(
      wait, clock_, sleeper_, channel ? &*channel : nullptr,
      [&]() -> Result<ProbeOutcome> {
        // With a peeker routed in, the waiting probes are read-only and a
        // replica may answer them; a positive probe already carries the
        // payload, so the local side only pops the input-queue entry — one
        // write, no duplicate read of the task row. A probe error other
        // than "not complete" falls through to the local path so routing
        // failures never wedge the loop — at worst a probe costs a leader
        // round-trip.
        if (peeker_) {
          Result<std::string> probe = peeker_(eq_task_id);
          if (!probe.ok() && probe.code() == ErrorCode::kCanceled) {
            return probe.error();
          }
          if (probe.ok()) {
            Status picked = pop_result_entry(eq_task_id);
            if (!picked.is_ok()) return picked.error();
            payload = std::move(probe).take();
            return ProbeOutcome::kDone;
          }
          if (probe.code() == ErrorCode::kNotFound &&
              probe.error().message.find("not complete") != std::string::npos) {
            return ProbeOutcome::kNotYet;  // authoritative "still running"
          }
        }
        Result<std::string> r = try_query_result(eq_task_id);
        if (r.ok()) {
          payload = std::move(r).take();
          return ProbeOutcome::kDone;
        }
        // kNotFound means "not complete yet" — unless the task truly does
        // not exist, which waiting will never fix; bail out for those.
        if (r.code() == ErrorCode::kNotFound &&
            r.error().message.find("not complete") != std::string::npos) {
          return ProbeOutcome::kNotYet;
        }
        return r.error();
      },
      [&] {
        return "task " + std::to_string(eq_task_id) + " not complete within " +
               std::to_string(wait.timeout) + "s";
      });
  if (!waited.is_ok()) return waited.error();
  return payload;
}

Result<std::vector<TaskId>> EQSQL::try_query_completed(
    const std::vector<TaskId>& ids, int n) {
  if (ids.empty() || n <= 0) return std::vector<TaskId>{};
  db::Transaction txn(db_);
  // One transaction for the whole list instead of one per future — the
  // §V-B "batch operations on the EMEWS DB" optimization. The DELETE's
  // affected count is the completion test, so each entry pops exactly once.
  std::vector<TaskId> found;
  for (TaskId id : sorted_unique(ids)) {
    if (found.size() == static_cast<std::size_t>(n)) break;
    auto pop = conn_.execute("DELETE FROM eq_input_queue WHERE eq_task_id = ?",
                             {db::Value(id)});
    if (!pop.ok()) return pop.error();
    if (pop.value().affected > 0) found.push_back(id);
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  if (obs::enabled() && !found.empty()) {
    obs_.completed.inc(found.size());
    obs_.input_depth.add(-static_cast<double>(found.size()));
    const TimePoint now = clock_.now();
    for (TaskId id : found) {
      obs::telemetry().trace.record(
          {id, obs::TaskEventKind::kCompleted, now, 0, "", ""});
    }
  }
  return found;
}

Result<std::size_t> EQSQL::cancel_tasks(const std::vector<TaskId>& ids) {
  if (ids.empty()) return std::size_t{0};
  db::Transaction txn(db_);
  const TimePoint now = clock_.now();
  // Each queued or running task the cancel reaches gets its terminal event
  // and releases its tenant's in-flight slot.
  struct Hit {
    TaskId id;
    TenantId tenant;
    bool was_queued;
  };
  std::vector<Hit> hits;
  std::size_t dequeued = 0;
  for (TaskId id : sorted_unique(ids)) {
    auto row = conn_.execute(
        "SELECT eq_status, tenant FROM eq_tasks WHERE eq_task_id = ?",
        {db::Value(id)});
    if (!row.ok()) return row.error();
    if (row.value().rows.empty()) continue;
    const std::string& status = row.value().rows[0][0].as_text();
    if (status != "queued" && status != "running") continue;
    // Queued tasks leave the output queue so no pool ever claims them.
    auto dequeue = conn_.execute(
        "DELETE FROM eq_output_queue WHERE eq_task_id = ?", {db::Value(id)});
    if (!dequeue.ok()) return dequeue.error();
    dequeued += dequeue.value().affected;
    auto upd = conn_.execute(
        "UPDATE eq_tasks SET eq_status = 'canceled', time_stop = ? "
        "WHERE eq_task_id = ?",
        {db::Value(now), db::Value(id)});
    if (!upd.ok()) return upd.error();
    const db::Value& tenant = row.value().rows[0][1];
    hits.push_back({id, tenant.is_null() ? TenantId{} : tenant.as_text(),
                    status == "queued"});
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  if (tenants_ != nullptr) {
    // A canceled task leaves the system: no cycle latency (it never
    // completed), no runtime cost, but its in-flight slot comes back.
    for (const Hit& hit : hits) {
      tenants_->on_finished(hit.tenant, 1, hit.was_queued,
                            /*cycle_seconds=*/-1.0, /*run_seconds=*/0.0);
    }
  }
  if (obs::enabled()) {
    obs_.canceled.inc(hits.size());
    obs_.output_depth.add(-static_cast<double>(dequeued));
    for (const Hit& hit : hits) {
      obs::telemetry().trace.record(
          {hit.id, obs::TaskEventKind::kCanceled, now, 0, "", ""});
    }
  }
  return hits.size();
}

Result<std::size_t> EQSQL::update_priorities(
    const std::vector<TaskId>& ids, const std::vector<Priority>& priorities) {
  if (ids.empty()) return std::size_t{0};
  if (priorities.size() != 1 && priorities.size() != ids.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 "priorities must have size 1 or ids.size()");
  }
  db::Transaction txn(db_);
  // A task listed twice takes its last priority and counts once.
  std::unordered_set<TaskId> repositioned;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Priority p = priorities[priorities.size() == 1 ? 0 : i];
    const std::vector<db::Value> params{db::Value(std::int64_t{p}),
                                        db::Value(ids[i])};
    auto q = conn_.execute(
        "UPDATE eq_output_queue SET eq_priority = ? WHERE eq_task_id = ?",
        params);
    if (!q.ok()) return q.error();
    auto t = conn_.execute(
        "UPDATE eq_tasks SET eq_priority = ? WHERE eq_task_id = ?", params);
    if (!t.ok()) return t.error();
    if (q.value().affected > 0) repositioned.insert(ids[i]);
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  return repositioned.size();
}

Result<std::size_t> EQSQL::requeue_tasks(const std::vector<TaskId>& ids) {
  if (ids.empty()) return std::size_t{0};
  db::Transaction txn(db_);
  // Only running tasks are eligible; their type/priority/tenant become the
  // output-queue row.
  std::vector<db::Row> requeued;
  for (TaskId id : sorted_unique(ids)) {
    auto row = conn_.execute(
        "SELECT eq_task_id, eq_task_type, eq_priority, tenant FROM eq_tasks "
        "WHERE eq_task_id = ? AND eq_status = 'running'",
        {db::Value(id)});
    if (!row.ok()) return row.error();
    if (row.value().rows.empty()) continue;
    const db::Row& task = row.value().rows[0];
    auto upd = conn_.execute(
        "UPDATE eq_tasks SET eq_status = 'queued', worker_pool = NULL, "
        "time_start = NULL WHERE eq_task_id = ?",
        {task[0]});
    if (!upd.ok()) return upd.error();
    auto ins = conn_.execute(
        "INSERT INTO eq_output_queue (eq_task_id, eq_task_type, eq_priority, "
        "tenant) VALUES (?, ?, ?, ?)",
        task);
    if (!ins.ok()) return ins.error();
    requeued.push_back(task);
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  if (tenants_ != nullptr) {
    for (const db::Row& row : requeued) {
      tenants_->on_requeued(row[3].is_null() ? TenantId{} : row[3].as_text(),
                            1);
    }
  }
  if (obs::enabled() && !requeued.empty()) {
    obs_.requeued.inc(requeued.size());
    obs_.output_depth.add(static_cast<double>(requeued.size()));
    const TimePoint now = clock_.now();
    for (const db::Row& row : requeued) {
      obs::telemetry().trace.record({row[0].as_int(),
                                     obs::TaskEventKind::kRequeued, now,
                                     static_cast<WorkType>(row[1].as_int()),
                                     "", ""});
    }
  }
  return requeued.size();
}

Result<std::size_t> EQSQL::requeue_running_if(
    const std::function<bool(const db::Row&)>& selected) {
  auto rows = conn_.execute(
      "SELECT eq_task_id, worker_pool, time_start FROM eq_tasks "
      "WHERE eq_status = 'running'");
  if (!rows.ok()) return rows.error();
  std::vector<TaskId> ids;
  for (const db::Row& row : rows.value().rows) {
    if (selected(row)) ids.push_back(row[0].as_int());
  }
  return requeue_tasks(ids);
}

Result<std::size_t> EQSQL::requeue_pool_tasks(const PoolId& pool) {
  return requeue_running_if([&](const db::Row& row) {
    return !row[1].is_null() && row[1].as_text() == pool;
  });
}

Result<std::size_t> EQSQL::requeue_running_tasks() {
  return requeue_running_if([](const db::Row&) { return true; });
}

Result<std::size_t> EQSQL::requeue_stalled_tasks(Duration lease) {
  if (lease <= 0.0) {
    return Error(ErrorCode::kInvalidArgument, "lease must be > 0");
  }
  const TimePoint cutoff = clock_.now() - lease;
  return requeue_running_if([&](const db::Row& row) {
    return !row[2].is_null() && row[2].as_real() <= cutoff;
  });
}

Result<TaskStatus> EQSQL::task_status(TaskId eq_task_id) {
  auto r = conn_.execute("SELECT eq_status FROM eq_tasks WHERE eq_task_id = ?",
                         {db::Value(eq_task_id)});
  if (!r.ok()) return r.error();
  if (r.value().rows.empty()) {
    return Error(ErrorCode::kNotFound, "no task " + std::to_string(eq_task_id));
  }
  return parse_task_status(r.value().rows[0][0].as_text());
}

Result<std::vector<TaskStatus>> EQSQL::task_statuses(
    const std::vector<TaskId>& ids) {
  if (ids.empty()) return std::vector<TaskStatus>{};
  // One transaction, so the statuses are one consistent snapshot.
  db::Transaction txn(db_);
  std::vector<TaskStatus> out;
  out.reserve(ids.size());
  for (TaskId id : ids) {
    Result<TaskStatus> s = task_status(id);
    if (!s.ok()) return s.error();
    out.push_back(s.value());
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  return out;
}

Result<Priority> EQSQL::task_priority(TaskId eq_task_id) {
  auto r = conn_.execute(
      "SELECT eq_priority FROM eq_tasks WHERE eq_task_id = ?",
      {db::Value(eq_task_id)});
  if (!r.ok()) return r.error();
  if (r.value().rows.empty()) {
    return Error(ErrorCode::kNotFound, "no task " + std::to_string(eq_task_id));
  }
  return static_cast<Priority>(r.value().rows[0][0].as_int());
}

Result<TaskRecord> EQSQL::task_record(TaskId eq_task_id) {
  auto r = conn_.execute("SELECT * FROM eq_tasks WHERE eq_task_id = ?",
                         {db::Value(eq_task_id)});
  if (!r.ok()) return r.error();
  if (r.value().rows.empty()) {
    return Error(ErrorCode::kNotFound, "no task " + std::to_string(eq_task_id));
  }
  const db::Row& row = r.value().rows[0];
  TaskRecord record;
  record.eq_task_id = row[0].as_int();
  record.eq_type = static_cast<WorkType>(row[1].as_int());
  Result<TaskStatus> status = parse_task_status(row[2].as_text());
  if (!status.ok()) return status.error();
  record.status = status.value();
  record.priority = static_cast<Priority>(row[3].as_int());
  record.payload = row[4].is_null() ? "" : row[4].as_text();
  if (!row[5].is_null()) record.result = row[5].as_text();
  if (!row[6].is_null()) record.worker_pool = row[6].as_text();
  record.created_at = row[7].as_real();
  if (!row[8].is_null()) record.start_at = row[8].as_real();
  if (!row[9].is_null()) record.stop_at = row[9].as_real();
  if (!row[10].is_null()) record.tenant = row[10].as_text();

  auto exp = conn_.execute(
      "SELECT exp_id FROM eq_experiments WHERE eq_task_id = ?",
      {db::Value(eq_task_id)});
  if (exp.ok() && !exp.value().rows.empty()) {
    record.exp_id = exp.value().rows[0][0].as_text();
  }
  return record;
}

Result<std::vector<TaskId>> EQSQL::experiment_tasks(const ExpId& exp_id) {
  auto r = conn_.execute(
      "SELECT eq_task_id FROM eq_experiments WHERE exp_id = ? "
      "ORDER BY eq_task_id ASC",
      {db::Value(exp_id)});
  if (!r.ok()) return r.error();
  std::vector<TaskId> ids;
  ids.reserve(r.value().rows.size());
  for (const db::Row& row : r.value().rows) ids.push_back(row[0].as_int());
  return ids;
}

Result<std::vector<TaskId>> EQSQL::tagged_tasks(const std::string& tag) {
  auto r = conn_.execute(
      "SELECT eq_task_id FROM eq_task_tags WHERE tag = ? "
      "ORDER BY eq_task_id ASC",
      {db::Value(tag)});
  if (!r.ok()) return r.error();
  std::vector<TaskId> ids;
  ids.reserve(r.value().rows.size());
  for (const db::Row& row : r.value().rows) ids.push_back(row[0].as_int());
  return ids;
}

Result<std::int64_t> EQSQL::queued_count(WorkType eq_type) {
  auto r = conn_.execute(
      "SELECT COUNT(*) FROM eq_output_queue WHERE eq_task_type = ?",
      {db::Value(std::int64_t{eq_type})});
  if (!r.ok()) return r.error();
  return r.value().rows[0][0].as_int();
}

Result<std::int64_t> EQSQL::input_queue_depth() {
  auto r = conn_.execute("SELECT COUNT(*) FROM eq_input_queue");
  if (!r.ok()) return r.error();
  return r.value().rows[0][0].as_int();
}

Result<QueueStats> EQSQL::stats() {
  // One transaction so the counts are a consistent snapshot even while pools
  // are claiming and reporting concurrently. Every statement is a SELECT —
  // nothing here writes, which is what makes the read replica-servable.
  db::Transaction txn(db_);
  QueueStats out;
  auto output = conn_.execute("SELECT COUNT(*) FROM eq_output_queue");
  if (!output.ok()) return output.error();
  out.output_queue = output.value().rows[0][0].as_int();
  auto input = conn_.execute("SELECT COUNT(*) FROM eq_input_queue");
  if (!input.ok()) return input.error();
  out.input_queue = input.value().rows[0][0].as_int();
  struct {
    const char* status;
    std::int64_t* slot;
  } states[] = {{"queued", &out.queued},
                {"running", &out.running},
                {"complete", &out.complete},
                {"canceled", &out.canceled}};
  for (const auto& state : states) {
    auto n = conn_.execute("SELECT COUNT(*) FROM eq_tasks WHERE eq_status = ?",
                           {db::Value(std::string(state.status))});
    if (!n.ok()) return n.error();
    *state.slot = n.value().rows[0][0].as_int();
  }
  Status committed = txn.commit();
  if (!committed.is_ok()) return committed.error();
  return out;
}

Result<std::int64_t> EQSQL::pool_completed_count(const PoolId& pool) {
  auto r = conn_.execute(
      "SELECT COUNT(*) FROM eq_tasks WHERE worker_pool = ? AND "
      "eq_status = 'complete'",
      {db::Value(pool)});
  if (!r.ok()) return r.error();
  return r.value().rows[0][0].as_int();
}

Result<std::int64_t> EQSQL::pool_running_count(const PoolId& pool) {
  auto r = conn_.execute(
      "SELECT COUNT(*) FROM eq_tasks WHERE worker_pool = ? AND "
      "eq_status = 'running'",
      {db::Value(pool)});
  if (!r.ok()) return r.error();
  return r.value().rows[0][0].as_int();
}

}  // namespace osprey::eqsql
