// Multi-tenant front door (ROADMAP item 4, DESIGN.md §5.13).
//
// "Millions of users" means many principals sharing one task database. funcX
// puts identity, quotas, and fair scheduling at the front door of its
// federated FaaS fabric; this registry is OSPREY's equivalent, shared by
// every EQSQL handle (and, per shard, every router) of one service:
//
//  - Identity: a tenant must be registered before it may submit. Submits by
//    an unknown tenant fail kPermissionDenied; the empty tenant is the
//    untenanted legacy principal, admitted unconditionally so single-tenant
//    deployments stay byte-compatible.
//  - Admission control: each tenant has an in-flight quota (queued + running
//    tasks) and a queue-depth bound. A submit that would cross either is
//    rejected at the front door with kResourceExhausted *before* touching
//    the database — backpressure surfaced to the client instead of silent
//    queue collapse. Quotas may shrink below the current depth; existing
//    tasks are untouched and new submits are refused until the drain.
//  - Weighted-fair scheduling: claims draw tasks across tenants by stride
//    scheduling — each tenant carries a virtual pass advanced by
//    stride = kStrideScale / weight per claimed task, and the backlogged
//    tenant with the smallest pass is served next. Over any backlogged
//    window, tenant shares converge to their weights, so one huge campaign
//    cannot starve another. A tenant going idle and returning is capped at
//    the global virtual time, so it gets at most one catch-up claim, not a
//    monopolizing debt.
//  - Accounting: per-tenant admit/reject/claim/complete counters, queue
//    depth gauges, a task-cycle (submit -> complete) latency histogram, and
//    task-runtime cost accumulation — all exported through osprey::obs with
//    a tenant label.
//
// The registry tracks live traffic; it is in-memory state beside the
// database, rebuilt empty on crash recovery (a recovering service re-admits
// its restored backlog via sync_depths).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "osprey/core/error.h"
#include "osprey/core/types.h"
#include "osprey/obs/telemetry.h"

namespace osprey::tenant {

/// "No bound" sentinel for quota fields.
inline constexpr std::uint64_t kUnlimited = ~std::uint64_t{0};

/// Per-tenant admission and scheduling policy.
struct TenantConfig {
  /// Max in-flight (queued + running) tasks; 0 admits nothing.
  std::uint64_t submit_quota = kUnlimited;
  /// Max queued (output-queue) tasks; 0 admits nothing.
  std::uint64_t max_queue_depth = kUnlimited;
  /// Weighted-fair claim share relative to other tenants (must be > 0).
  double weight = 1.0;
};

/// One tenant's accounting snapshot.
struct TenantStats {
  TenantId tenant;
  TenantConfig config;
  std::int64_t queued = 0;     // admitted, not yet claimed
  std::int64_t running = 0;    // claimed, not yet finished
  std::uint64_t admitted = 0;  // tasks past admission control, lifetime
  std::uint64_t rejected = 0;  // submits refused at the front door
  std::uint64_t claimed = 0;   // tasks handed to pools
  std::uint64_t completed = 0; // tasks finished (reported or canceled)
  double cost_task_seconds = 0.0;  // accumulated task runtime (cost unit)

  /// Add another shard's row for the same tenant: counters, depths and cost
  /// sum; the config stays (every shard runs the same per-shard policy).
  void merge(const TenantStats& other) {
    queued += other.queued;
    running += other.running;
    admitted += other.admitted;
    rejected += other.rejected;
    claimed += other.claimed;
    completed += other.completed;
    cost_task_seconds += other.cost_task_seconds;
  }
};

class TenantRegistry {
 public:
  TenantRegistry() = default;
  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  // --- identity --------------------------------------------------------------

  /// Register a tenant principal. kInvalidArgument for an empty id or a
  /// non-positive weight; kConflict if already registered.
  Status register_tenant(const TenantId& tenant, TenantConfig config = {});

  /// Replace a registered tenant's policy. Shrinking a quota below the
  /// current depth is allowed: live tasks are untouched, new submits are
  /// refused until the backlog drains under the new bound.
  Status set_config(const TenantId& tenant, TenantConfig config);

  bool registered(const TenantId& tenant) const;
  Result<TenantConfig> config(const TenantId& tenant) const;

  // --- admission control -----------------------------------------------------

  /// Admit `n` submits for `tenant`, atomically against concurrent claims
  /// and releases: kPermissionDenied for an unknown tenant,
  /// kResourceExhausted when the quota or queue-depth bound would be
  /// crossed; on success the tenant's depth is charged immediately. The
  /// empty tenant is always admitted (legacy single-tenant traffic).
  Status admit(const TenantId& tenant, std::size_t n);

  /// Compensate an admit whose submit transaction failed to commit.
  void unadmit(const TenantId& tenant, std::size_t n);

  // --- lifecycle accounting (queued <-> running <-> done) --------------------

  /// Tasks moved queued -> running by a claim.
  void on_claimed(const TenantId& tenant, std::size_t n);
  /// Tasks moved running -> queued (lease expiry, pool stop).
  void on_requeued(const TenantId& tenant, std::size_t n);
  /// A task left the system: releases its in-flight slot. `from_queue` says
  /// it was canceled while still queued; `cycle_seconds` (>= 0) feeds the
  /// per-tenant task-cycle histogram; `run_seconds` accumulates cost.
  void on_finished(const TenantId& tenant, std::size_t n, bool from_queue,
                   double cycle_seconds, double run_seconds);

  /// Re-seed a tenant's depth counters from restored database state (crash
  /// recovery: the registry is in-memory and restarts empty).
  void sync_depths(const TenantId& tenant, std::int64_t queued,
                   std::int64_t running);

  // --- weighted-fair scheduling ----------------------------------------------

  /// Of the backlogged `candidates`, the tenant to serve next: minimum
  /// virtual pass, ties broken by id. Unknown / untenanted candidates
  /// participate at the default weight. Empty input returns "".
  TenantId pick_next(const std::vector<TenantId>& candidates);

  /// Advance `tenant`'s virtual pass by `n` claimed tasks (stride
  /// scheduling: pass += n * kStrideScale / weight, floored at the global
  /// virtual time so returning-from-idle tenants cannot bank service).
  void charge(const TenantId& tenant, std::size_t n);

  // --- introspection ---------------------------------------------------------

  /// Every registered tenant's snapshot plus, when it carries traffic, the
  /// untenanted principal (id ""), sorted by tenant id.
  std::vector<TenantStats> stats() const;
  Result<TenantStats> stats_for(const TenantId& tenant) const;
  std::size_t tenant_count() const;

 private:
  struct State {
    TenantConfig config;
    bool is_registered = false;
    std::int64_t queued = 0;
    std::int64_t running = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t claimed = 0;
    std::uint64_t completed = 0;
    double cost_task_seconds = 0.0;
    double pass = 0.0;  // stride-scheduling virtual finish time
    // Telemetry handles, acquired once per tenant (obs handles are stable).
    obs::Counter* obs_admitted = nullptr;
    obs::Counter* obs_rejected = nullptr;
    obs::Counter* obs_claimed = nullptr;
    obs::Counter* obs_completed = nullptr;
    obs::Gauge* obs_queued = nullptr;
    obs::Gauge* obs_running = nullptr;
    obs::Gauge* obs_cost = nullptr;
    obs::Histogram* obs_cycle = nullptr;
  };

  /// Find-or-create (unregistered entries track the untenanted principal
  /// and unknown claim-side tenants at default policy). Caller holds mutex_.
  State& state_locked(const TenantId& tenant);
  TenantStats snapshot_locked(const TenantId& tenant, const State& s) const;

  mutable std::mutex mutex_;
  std::map<TenantId, State> tenants_;
  double vtime_ = 0.0;  // max pass ever served; the returning-tenant floor
};

}  // namespace osprey::tenant
