// The EQSQL task-queue API over the EMEWS DB (§IV-C, §V-A).
//
// This is the C++ rendition of the paper's Python/R API (Listing 1):
//   submit_task(exp_id, eq_type, payload, priority, tag)
//   query_task(eq_type, n, worker_pool, delay, timeout)
//   report_task(eq_task_id, eq_type, result)
//   query_result(eq_task_id, delay, timeout)
// plus the batch operations that §V-B calls out as the efficient backbone of
// the asynchronous future functions (as_completed / update_priority / cancel).
//
// Concurrency: every mutating operation runs inside a single database
// transaction, so a task can never be claimed by two pools, and a crash
// between queues never loses a task — the fault-tolerance property §IV-B
// attributes to describing tasks "in the system in enough detail".
//
// Blocking queries wait per a WaitSpec (see wait.h): commit-driven
// notifications when a Notifier is routed in, (delay, timeout) polling like
// the paper's API otherwise. The sleeper is injected so threaded callers
// really sleep while simulated callers never block (they use the try_*
// variants and schedule retries).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/db/sql_exec.h"
#include "osprey/eqsql/task.h"
#include "osprey/eqsql/wait.h"
#include "osprey/obs/telemetry.h"
#include "osprey/tenant/registry.h"

namespace osprey::eqsql {

/// One consistent snapshot of the queue depths and task-state counts — the
/// monitoring read that is safe to serve from a replica, since it mutates
/// nothing and bounded staleness only shifts the numbers by in-flight work.
struct QueueStats {
  std::int64_t output_queue = 0;  // queued tasks awaiting a pool
  std::int64_t input_queue = 0;   // completed tasks awaiting pickup
  std::int64_t queued = 0;
  std::int64_t running = 0;
  std::int64_t complete = 0;
  std::int64_t canceled = 0;

  /// Add another snapshot's counts: the cross-shard sum.
  void merge(const QueueStats& other) {
    output_queue += other.output_queue;
    input_queue += other.input_queue;
    queued += other.queued;
    running += other.running;
    complete += other.complete;
    canceled += other.canceled;
  }
};

class EQSQL {
 public:
  /// `db` must contain the EMEWS schema (see create_schema). `clock` stamps
  /// task creation/start/stop times. Poll-mode waits sleep for real by
  /// default; route a virtual-time sleeper in via set_wait_routing.
  EQSQL(db::Database& db, const Clock& clock);

  // --- submission (§IV-A) ---------------------------------------------------

  /// Submit a task: inserts into the tasks table and the output queue,
  /// records the experiment link and optional tag, and returns the new
  /// unique task id.
  Result<TaskId> submit_task(const ExpId& exp_id, WorkType eq_type,
                             const std::string& payload, Priority priority = 0,
                             const std::string& tag = "");

  /// Batch submission in one transaction; returns ids in input order.
  /// Submits on behalf of the ambient tenant (see set_tenant_context).
  Result<std::vector<TaskId>> submit_tasks(
      const ExpId& exp_id, WorkType eq_type,
      const std::vector<std::string>& payloads, Priority priority = 0,
      const std::string& tag = "");

  // --- multi-tenant front door (ROADMAP item 4, DESIGN.md §5.13) -------------

  /// Submit on behalf of an explicit tenant principal. With a TenantRegistry
  /// attached, the submit passes admission control first: kPermissionDenied
  /// for an unregistered tenant, kResourceExhausted over quota / queue depth
  /// — rejected at the front door, before the transaction ever opens.
  Result<TaskId> submit_task_as(const TenantId& tenant, const ExpId& exp_id,
                                WorkType eq_type, const std::string& payload,
                                Priority priority = 0,
                                const std::string& tag = "");
  Result<std::vector<TaskId>> submit_tasks_as(
      const TenantId& tenant, const ExpId& exp_id, WorkType eq_type,
      const std::vector<std::string>& payloads, Priority priority = 0,
      const std::string& tag = "");

  /// Attach the shared tenant registry and this handle's ambient tenant
  /// principal. With a registry attached, submits pass admission control,
  /// claims draw tasks across tenants weighted-fair (stride scheduling)
  /// instead of strictly by priority, and report/cancel/requeue feed the
  /// per-tenant accounting. nullptr detaches (single-tenant behavior).
  void set_tenant_context(tenant::TenantRegistry* registry,
                          TenantId tenant = {}) {
    tenants_ = registry;
    tenant_ = std::move(tenant);
  }

  tenant::TenantRegistry* tenants() const { return tenants_; }
  const TenantId& tenant() const { return tenant_; }

  // --- worker-pool side (§IV-C, §IV-D) ---------------------------------------

  /// Atomically pop up to `n` highest-priority tasks of `eq_type` from the
  /// output queue, marking them running and owned by `worker_pool`.
  /// Returns an empty vector (not an error) when the queue has none.
  Result<std::vector<TaskHandle>> try_query_tasks(
      WorkType eq_type, int n = 1, const PoolId& worker_pool = "default");

  /// Blocking variant: waits per `wait` until at least one task is available
  /// or `wait.timeout` elapses (kTimeout). In poll mode this is the paper's
  /// query_task(eq_type, n, worker_pool, delay, timeout) exactly; in notify
  /// mode the wait blocks on the work channel and re-probes at most every
  /// `wait.poll_delay` as a lost-wakeup fallback. Braced (delay, timeout)
  /// call sites behave unchanged via the positional WaitSpec constructor.
  Result<std::vector<TaskHandle>> query_task(WorkType eq_type, int n = 1,
                                             const PoolId& worker_pool = "default",
                                             WaitSpec wait = {});

  /// The §IV-D "enhanced version for querying the output queue, customized
  /// for worker pools": request up to `batch_size` tasks "while accounting
  /// for the number of tasks a worker pool already has obtained but have
  /// not completed" (`owned`), gated by `threshold` ("how large the deficit
  /// between requested tasks and owned tasks must be before more tasks are
  /// obtained"). Claims min(deficit, available) tasks; empty when the
  /// deficit is below the threshold or the queue has none.
  Result<std::vector<TaskHandle>> try_query_tasks_batched(
      WorkType eq_type, int batch_size, int threshold, int owned,
      const PoolId& worker_pool);

  /// Report a completed task: stores the result payload, marks the task
  /// complete with its stop time, and pushes it onto the input queue.
  /// Only running tasks are reportable: kCanceled for canceled tasks,
  /// kConflict when the task was requeued or already completed (a late
  /// report from a worker that lost its lease is dropped, keeping task
  /// completion exactly-once).
  Status report_task(TaskId eq_task_id, WorkType eq_type,
                     const std::string& result);

  // --- ME-algorithm side (§IV-C, §V-B) ---------------------------------------

  /// Non-blocking result pickup: if the task is complete, pops it from the
  /// input queue and returns its result payload. kNotFound while incomplete;
  /// kCanceled for canceled tasks.
  Result<std::string> try_query_result(TaskId eq_task_id);

  /// Read-only completion probe: like try_query_result but never pops the
  /// input queue, so it is safe to serve from a read replica (and to call
  /// any number of times). kNotFound ("task not complete") while incomplete;
  /// kCanceled for canceled tasks.
  Result<std::string> peek_result(TaskId eq_task_id);

  /// Blocking variant waiting per `wait`; kTimeout on expiry, matching the
  /// {'type':'status','payload':'TIMEOUT'} protocol. With a result peeker
  /// routed in, the waiting probes go through the peeker (a replica-servable
  /// read) and a completed task costs exactly one local write — the
  /// input-queue pop; the payload comes from the probe itself. Braced
  /// (delay, timeout) call sites behave unchanged via the positional
  /// WaitSpec constructor.
  Result<std::string> query_result(TaskId eq_task_id, WaitSpec wait = {});

  /// Configure where the waiting machinery plugs in: the poll-mode sleeper
  /// (kept unchanged when unset), the replica-servable result probe, and
  /// the commit-notification plane. Replaces the peeker and notifier
  /// wholesale: an unset field clears the corresponding route.
  void set_wait_routing(WaitRouting routing) {
    if (routing.sleeper) sleeper_ = std::move(routing.sleeper);
    peeker_ = std::move(routing.peeker);
    notifier_ = routing.notifier;
  }

  /// Convenience for set_wait_routing: attach only the notifier, keeping
  /// the sleeper and peeker as they are.
  void set_notifier(Notifier* notifier) { notifier_ = notifier; }

  /// The notification plane blocking waits resolve kAuto against; nullptr
  /// means every wait polls.
  Notifier* notifier() const { return notifier_; }

  /// Batch completion check (backbone of as_completed / pop_completed):
  /// of the given ids, return up to `n` that are complete, in ascending id
  /// order and each once, popping them from the input queue. Never blocks;
  /// empty result when none are complete.
  Result<std::vector<TaskId>> try_query_completed(const std::vector<TaskId>& ids,
                                                  int n);

  // --- task control ----------------------------------------------------------

  /// Cancel queued or running tasks in one transaction. Queued tasks leave
  /// the output queue so pools never see them; running tasks are marked
  /// canceled (their in-flight results are dropped on report). Returns the
  /// number of tasks newly canceled (complete tasks are left untouched).
  Result<std::size_t> cancel_tasks(const std::vector<TaskId>& ids);

  /// Batch priority update (§V-B update_priority): updates both the tasks
  /// table and the output queue in one transaction. `priorities` must have
  /// size 1 (broadcast) or ids.size() (element-wise). Tasks no longer queued
  /// are skipped. Returns the number of tasks repositioned; a task listed
  /// twice takes its last priority and counts once.
  Result<std::size_t> update_priorities(const std::vector<TaskId>& ids,
                                        const std::vector<Priority>& priorities);

  /// Return running tasks to the output queue (status back to queued, pool
  /// and start time cleared) at their original priorities. This is how a
  /// stopping pool releases its cached-but-unstarted tasks and how tasks are
  /// "restarted if necessary" after a resource failure (§IV-B). Tasks not in
  /// the running state are skipped. Returns the number requeued.
  Result<std::size_t> requeue_tasks(const std::vector<TaskId>& ids);

  /// Crash recovery: requeue every running task owned by `pool`.
  Result<std::size_t> requeue_pool_tasks(const PoolId& pool);

  /// Resource-loss recovery (§IV-B): requeue every running task in every
  /// pool. After a crash is recovered from a checkpoint or the WAL, the
  /// pools that held leases are gone with the old resource — their in-flight
  /// tasks must be offered to the pools of the new one. Returns the number
  /// requeued.
  Result<std::size_t> requeue_running_tasks();

  /// Lease expiry (§VII stalled-task detection): requeue every running task,
  /// in any pool, whose start time is more than `lease` seconds old. A hung
  /// worker never reports, so its task's only way back to the queue is this
  /// reaper; pick a lease comfortably above the longest legitimate runtime.
  Result<std::size_t> requeue_stalled_tasks(Duration lease);

  // --- introspection ----------------------------------------------------------

  Result<TaskStatus> task_status(TaskId eq_task_id);

  /// Batch status query in one transaction (§V-B batch operations): one
  /// status per input id, in input order.
  Result<std::vector<TaskStatus>> task_statuses(const std::vector<TaskId>& ids);

  Result<Priority> task_priority(TaskId eq_task_id);

  /// The full task row.
  Result<TaskRecord> task_record(TaskId eq_task_id);

  /// All task ids belonging to an experiment.
  Result<std::vector<TaskId>> experiment_tasks(const ExpId& exp_id);

  /// All task ids carrying a tag.
  Result<std::vector<TaskId>> tagged_tasks(const std::string& tag);

  /// Number of queued tasks of a work type currently in the output queue.
  Result<std::int64_t> queued_count(WorkType eq_type);

  /// Number of completed tasks waiting in the input queue.
  Result<std::int64_t> input_queue_depth();

  /// Queue depths and task-state counts in one read-only pass — the
  /// monitoring view a read replica can serve (nothing here mutates).
  Result<QueueStats> stats();

  /// Per-pool progress counters (the remote pool monitor's heartbeat view).
  Result<std::int64_t> pool_completed_count(const PoolId& pool);
  Result<std::int64_t> pool_running_count(const PoolId& pool);

  const Clock& clock() const { return clock_; }

  /// Statement texts parsed and cached on this handle's connection. Every
  /// statement EQSQL issues is fixed text, so this stays bounded however
  /// many tasks a campaign touches.
  std::size_t cached_statements() const { return conn_.cached_statements(); }

  /// Wait via the injected sleeper (used by the future collection functions
  /// so their polling honors the same waiting strategy as the blocking API).
  void sleep(Duration seconds) const { sleeper_(seconds); }

 private:
  /// The plain claim's choice: up to n queued tasks of eq_type in priority
  /// order, ties FIFO by task id.
  Result<std::vector<TaskId>> pick_tasks_locked(WorkType eq_type, int n);

  /// Weighted-fair choice: up to n queued tasks of eq_type, drawn across
  /// backlogged tenants by stride scheduling instead of strict priority
  /// order (within a tenant, priority order is preserved). Fills
  /// `claimed_by` with per-tenant claim counts for post-commit accounting.
  Result<std::vector<TaskId>> pick_tasks_fair_locked(
      WorkType eq_type, int n,
      std::vector<std::pair<TenantId, std::size_t>>& claimed_by);

  /// The tail both claims share: pop the picked tasks from the output
  /// queue, mark them running and owned by `worker_pool`, and return their
  /// payloads in pick order.
  Result<std::vector<TaskHandle>> take_tasks_locked(
      WorkType eq_type, const std::vector<TaskId>& picked,
      const PoolId& worker_pool);

  /// The selector the requeue_* entry points share: requeue every running
  /// task whose row (eq_task_id, worker_pool, time_start) is `selected`.
  Result<std::size_t> requeue_running_if(
      const std::function<bool(const db::Row&)>& selected);

  /// The local half of a peeker-confirmed pickup: pop the input-queue entry
  /// for a task whose payload the probe already returned. One write, no
  /// re-read of the task row (the query_result dedupe).
  Status pop_result_entry(TaskId eq_task_id);

  /// Telemetry handles (see DESIGN.md §observability). Acquired once at
  /// construction; recording through them is lock-free and gated on the
  /// global telemetry switch.
  struct ObsHandles {
    obs::Counter& submitted;
    obs::Counter& claimed;
    obs::Counter& reported;
    obs::Counter& report_conflicts;
    obs::Counter& completed;
    obs::Counter& canceled;
    obs::Counter& requeued;
    obs::Gauge& output_depth;
    obs::Gauge& input_depth;
    obs::Histogram& submit_latency;
    obs::Histogram& claim_latency;
    obs::Histogram& report_latency;
    obs::Histogram& result_latency;
    ObsHandles();
  };

  db::Database& db_;
  const Clock& clock_;
  Sleeper sleeper_;
  db::sql::Connection conn_;
  ResultPeeker peeker_;  // unset = probe locally (single-node behavior)
  Notifier* notifier_ = nullptr;  // unset = every blocking wait polls
  tenant::TenantRegistry* tenants_ = nullptr;  // unset = single-tenant
  TenantId tenant_;  // ambient principal for submit_task(s)
  ObsHandles obs_;
};

}  // namespace osprey::eqsql
