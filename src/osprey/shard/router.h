// Scatter-gather routing over a ShardCluster (DESIGN.md §5.11).
//
// The routing invariants:
//  - Single-key operations touch exactly one shard. A submit routes by the
//    ShardSpec key (work type by default, §IV-D); a report / result pickup
//    routes by the shard index folded into the task id's high bits. Each
//    shard op goes through that shard's ReplRouter, so writes are epoch
//    stamped per shard and a deposed shard leader's stragglers are fenced
//    with kConflict without touching any database.
//  - Cross-shard operations (stats, try_query_completed, as_completed,
//    pop_completed) scatter to the owning shards and merge. The merge
//    dedupes ids (a result surfacing on two merge paths is delivered once)
//    and rotates its starting shard so no shard starves the gather. A probe
//    never requests more completions than the caller can take — shard-side
//    input-queue pops are exactly-once deliveries, so over-popping would
//    hide results from later probes.
//  - Partial-failure tolerance (config.tolerate_partial, default on): a
//    dead shard is skipped and counted, and the merged result covers the
//    live shards; only all shards failing is an error. With the flag off
//    any shard failure fails the whole scatter.
//  - Blocking waits honor WaitSpec: notify mode blocks on the union of the
//    relevant shards' Notifier channels (work channel for claims, result
//    channels for as_completed) and degrades per-probe to polling when any
//    relevant shard has no notifier attached.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/notify.h"
#include "osprey/eqsql/task.h"
#include "osprey/eqsql/wait.h"
#include "osprey/pool/backend.h"
#include "osprey/repl/router.h"
#include "osprey/shard/cluster.h"
#include "osprey/shard/key.h"

namespace osprey::shard {

/// A single wait primitive over many shards' notification channels: the
/// union version counter moves whenever any subscribed channel fires, so a
/// threaded waiter can block on "a result landed on any owning shard"
/// instead of polling each shard in turn. It is the WaitChannel of every
/// scatter wait (ShardRouter's and the C API's). Subscribes on construction,
/// unsubscribes in the destructor (after which no callback is in flight —
/// Notifier::remove_listener guarantees that).
class UnionWaiter final : public eqsql::WaitChannel {
 public:
  /// Union of the work channels for `eq_type` on the given notifiers.
  UnionWaiter(const std::vector<eqsql::Notifier*>& notifiers,
              WorkType eq_type);
  /// Union of the result channels on the given notifiers.
  explicit UnionWaiter(const std::vector<eqsql::Notifier*>& notifiers);
  ~UnionWaiter() override;

  /// Current union version. Sample before the probe, wait past it after —
  /// the same lost-wakeup-free protocol as Notifier's channels.
  std::uint64_t version() const override {
    return version_.load(std::memory_order_acquire);
  }

  /// Block until the union version moves past `seen` or `timeout` (real
  /// time) elapses; true when the version moved.
  bool wait_past(std::uint64_t seen, Duration timeout) override;

 private:
  struct Subscription {
    eqsql::Notifier* notifier;
    eqsql::Notifier::ListenerId id;
  };

  void bump();

  std::vector<Subscription> subs_;
  std::atomic<std::uint64_t> version_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Router policy: per-shard read routing plus scatter behavior.
struct ShardRouterConfig {
  /// Per-shard replica-read policy (bounded staleness), applied to every
  /// shard's ReplRouter.
  repl::RouterConfig read;
  /// Skip dead shards in scatter-gather ops instead of failing the call
  /// (the merged result then covers the live shards only).
  bool tolerate_partial = true;
  /// How poll-mode waits sleep (blocking query_task / as_completed).
  /// Defaults to a real sleep; simulations inject a virtual-time sleeper.
  eqsql::Sleeper sleeper;
};

class ShardRouter {
 public:
  explicit ShardRouter(ShardCluster& cluster, ShardRouterConfig config = {});

  /// The shard a (work type, experiment) pair routes to under the cluster
  /// spec.
  ShardId shard_of(WorkType eq_type, const ExpId& exp_id = "") const {
    return shard_for(cluster_.spec(), eq_type, exp_id);
  }

  /// Shard `shard`'s ReplRouter (single-shard ops, telemetry).
  repl::ReplRouter& shard(ShardId shard) { return *routers_.at(shard); }

  // --- single-key writes (owning shard, epoch-stamped) -----------------------

  /// Submit to the key's owning shard; the returned id is global (shard
  /// index folded into the high bits).
  Result<TaskId> submit_task(const ExpId& exp_id, WorkType eq_type,
                             const std::string& payload, Priority priority = 0,
                             const std::string& tag = "");
  Result<std::vector<TaskId>> submit_tasks(
      const ExpId& exp_id, WorkType eq_type,
      const std::vector<std::string>& payloads, Priority priority = 0,
      const std::string& tag = "");

  /// Claim up to n tasks of `eq_type`; handles carry global ids. Work-type
  /// keying probes the one owning shard; experiment keying scatters in
  /// rotation order until n tasks are gathered.
  Result<std::vector<eqsql::TaskHandle>> try_query_tasks(
      WorkType eq_type, int n = 1, const PoolId& worker_pool = "default");

  /// Blocking claim waiting per `wait`: notify mode blocks on the union of
  /// the relevant shards' work channels, poll mode sleeps via the config
  /// sleeper. Each probe re-resolves the shard leader, so the wait survives
  /// a mid-wait failover.
  Result<std::vector<eqsql::TaskHandle>> query_task(
      WorkType eq_type, int n = 1, const PoolId& worker_pool = "default",
      eqsql::WaitSpec wait = {});

  /// Submit on behalf of an explicit tenant: routed to the owning shard,
  /// admitted against that shard's tenant registry (per-shard quota
  /// accounting — kResourceExhausted when the tenant's slice of that shard
  /// is over its bound). Requires set_tenant_context / cluster tenancy for
  /// admission to apply; without it the tenant is recorded but unmetered.
  Result<TaskId> submit_task_as(const TenantId& tenant, const ExpId& exp_id,
                                WorkType eq_type, const std::string& payload,
                                Priority priority = 0,
                                const std::string& tag = "");
  Result<std::vector<TaskId>> submit_tasks_as(
      const TenantId& tenant, const ExpId& exp_id, WorkType eq_type,
      const std::vector<std::string>& payloads, Priority priority = 0,
      const std::string& tag = "");

  /// Wire the cluster's per-shard tenant registries into every shard's
  /// ReplRouter with this router's ambient principal. Call after
  /// ShardCluster::enable_tenants; registries attached later need a re-call.
  void set_tenant_context(TenantId tenant = {});

  /// Cluster-wide per-tenant accounting: every shard's registry snapshot,
  /// merged by tenant id (counters and depths summed; the config shown is
  /// the per-shard policy). Empty when cluster tenancy is off.
  std::vector<tenant::TenantStats> tenant_stats();

  /// Report through the owning shard with that shard's current epoch.
  Status report_task(TaskId global_id, WorkType eq_type,
                     const std::string& result);

  /// The fencing primitive: report stamped with the epoch the sender
  /// believes is current *for the owning shard*. Stale epoch => kConflict
  /// before the shard database is touched.
  Status report_task_at_epoch(repl::Epoch epoch, TaskId global_id,
                              WorkType eq_type, const std::string& result);

  /// Authoritative result pickup on the owning shard (pops its input queue).
  Result<std::string> try_query_result(TaskId global_id);

  /// Return claimed-but-unstarted tasks to their shards' output queues (a
  /// stopping pool releasing its cache). Ids are grouped per owning shard;
  /// returns the total requeued. Tolerant of dead shards like any scatter.
  Result<std::size_t> requeue_tasks(const std::vector<TaskId>& global_ids);

  /// A claim/report backend wiring a worker pool to this router: claims and
  /// reports route through the owning shard with epoch stamping, so the
  /// pool rides out that shard's leader failover; the wakeup source is the
  /// owning shard's notifier (work-type keying — under experiment keying
  /// the type spans shards and the backend resolves no notifier, leaving
  /// the pool polling). The router must outlive the pool.
  pool::PoolBackend pool_backend(WorkType eq_type);

  // --- single-key reads (owning shard, replica-eligible) ---------------------

  Result<std::string> peek_result(TaskId global_id);
  Result<eqsql::TaskStatus> task_status(TaskId global_id);
  /// Queued tasks of a type: one shard under work-type keying, a scatter
  /// sum under experiment keying.
  Result<std::int64_t> queued_count(WorkType eq_type);

  // --- scatter-gather --------------------------------------------------------

  /// Cluster-wide queue stats: every shard probed, sums merged. Dead shards
  /// are skipped under tolerate_partial (counted in partial_failures()).
  Result<eqsql::QueueStats> stats();

  /// Of the given global ids, up to n that completed, popped from their
  /// shards' input queues — the cross-shard backbone of as_completed.
  /// Per-shard discovery order is preserved; the gather rotates its
  /// starting shard; ids are deduplicated.
  Result<std::vector<TaskId>> try_query_completed(
      const std::vector<TaskId>& global_ids, int n);

  /// Wait until n of the given global ids complete, returning them in
  /// completion-discovery order. Notify mode blocks on the union of the
  /// owning shards' result channels between probes.
  Result<std::vector<TaskId>> as_completed(
      const std::vector<TaskId>& global_ids, std::size_t n,
      eqsql::WaitSpec wait = {});

  /// Wait for the first completion among `global_ids`, removing and
  /// returning it (the paper's pop_completed, across shards).
  Result<TaskId> pop_completed(std::vector<TaskId>& global_ids,
                               eqsql::WaitSpec wait = {});

  // --- routing telemetry -----------------------------------------------------

  std::uint64_t scatter_ops() const { return scatter_ops_; }
  /// Dead-shard probes skipped by tolerant scatters.
  std::uint64_t partial_failures() const { return partial_failures_; }
  /// Ids dropped by the merge dedupe (seen on two merge paths).
  std::uint64_t merge_duplicates() const { return merge_duplicates_; }
  /// Epoch-fenced writes, summed over the per-shard routers.
  std::uint64_t fenced_writes() const;

  std::uint32_t shard_count() const { return cluster_.shard_count(); }
  const ShardRouterConfig& config() const { return config_; }

 private:
  /// Rotation order over all shards for this scatter: rotation_order from
  /// the rotating cursor.
  std::vector<ShardId> rotation();

  ShardCluster& cluster_;
  ShardRouterConfig config_;
  std::vector<std::unique_ptr<repl::ReplRouter>> routers_;
  std::atomic<std::uint64_t> rr_{0};
  std::atomic<std::uint64_t> scatter_ops_{0};
  std::atomic<std::uint64_t> partial_failures_{0};
  std::atomic<std::uint64_t> merge_duplicates_{0};
};

}  // namespace osprey::shard
