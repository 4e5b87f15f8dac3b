#include "osprey/eqsql/service.h"

#include <map>
#include <utility>

#include "osprey/db/dump.h"
#include "osprey/db/sql_exec.h"
#include "osprey/eqsql/schema.h"
#include "osprey/storage/manifest.h"

namespace osprey::eqsql {

EmewsService::EmewsService(const Clock& clock) : clock_(clock) {}

EmewsService::~EmewsService() {
  // The database outlives the wal_ and notifier_ members (declaration
  // order), so unwind the observer chain before the managers go away:
  // notifier first (it wraps the WAL), then the WAL.
  if (notifier_) notifier_->detach();
  if (wal_) wal_->detach();
}

Status EmewsService::start() {
  if (running_) {
    return Status(ErrorCode::kConflict, "EMEWS service already running");
  }
  if (!schema_created_) {
    db::sql::Connection conn(db_);
    Status s = create_schema(conn);
    if (!s.is_ok()) return s;
    schema_created_ = true;
  }
  running_ = true;
  return Status::ok();
}

Status EmewsService::stop() {
  if (!running_) {
    return Status(ErrorCode::kConflict, "EMEWS service not running");
  }
  // Flush before flipping the flag: with group commit a stopping service may
  // hold acknowledged-but-unsynced transactions, and a replica bootstrapping
  // from this node's device must see every acknowledged write — a graceful
  // stop must leave no volatile tail behind (crash() may; that's what
  // recovery is for).
  if (wal_) {
    Status flushed = wal_->flush();
    if (!flushed.is_ok()) return flushed;
  }
  running_ = false;
  return Status::ok();
}

Result<std::unique_ptr<EQSQL>> EmewsService::connect(Sleeper sleeper) {
  if (!running_) {
    return Error(ErrorCode::kUnavailable, "EMEWS service not running");
  }
  auto api = std::make_unique<EQSQL>(db_, clock_);
  WaitRouting routing;
  routing.sleeper = std::move(sleeper);
  routing.notifier = notifier_.get();
  api->set_wait_routing(std::move(routing));
  // With tenancy on, even untenanted handles share the registry: their
  // claims go through the fair scheduler and their reports feed the
  // accounting for whichever tenant owns the task.
  if (tenants_) api->set_tenant_context(tenants_.get());
  return api;
}

Result<std::unique_ptr<EQSQL>> EmewsService::connect_as(const TenantId& tenant,
                                                        Sleeper sleeper) {
  if (tenant.empty()) return connect(std::move(sleeper));
  if (!tenants_) {
    return Error(ErrorCode::kUnavailable,
                 "tenancy not enabled on this service");
  }
  if (!tenants_->registered(tenant)) {
    return Error(ErrorCode::kPermissionDenied,
                 "unknown tenant '" + tenant + "'");
  }
  Result<std::unique_ptr<EQSQL>> api = connect(std::move(sleeper));
  if (!api.ok()) return api;
  api.value()->set_tenant_context(tenants_.get(), tenant);
  return api;
}

Status EmewsService::enable_tenants() {
  if (tenants_) return Status::ok();
  tenants_ = std::make_unique<tenant::TenantRegistry>();
  return sync_tenant_depths();
}

Status EmewsService::sync_tenant_depths() {
  if (!tenants_ || !schema_created_) return Status::ok();
  db::sql::Connection conn(db_);
  auto live = conn.execute(
      "SELECT tenant, eq_status FROM eq_tasks "
      "WHERE eq_status IN ('queued', 'running')");
  if (!live.ok()) return live.error();
  std::map<TenantId, std::pair<std::int64_t, std::int64_t>> depths;
  for (const db::Row& row : live.value().rows) {
    auto& [queued, running] =
        depths[row[0].is_null() ? TenantId{} : row[0].as_text()];
    (row[1].as_text() == "queued" ? queued : running) += 1;
  }
  for (const auto& [tenant, d] : depths) {
    tenants_->sync_depths(tenant, d.first, d.second);
  }
  return Status::ok();
}

Status EmewsService::enable_notifications() {
  if (notifier_) return Status::ok();
  notifier_ = std::make_unique<Notifier>();
  notifier_->attach(db_);
  return Status::ok();
}

Result<ServiceStats> EmewsService::stats() {
  if (!running_) {
    return Error(ErrorCode::kUnavailable, "EMEWS service not running");
  }
  // One read transaction (EQSQL::stats), so the counts are one snapshot.
  EQSQL eq(db_, clock_);
  Result<QueueStats> queue = eq.stats();
  if (!queue.ok()) return queue.error();
  const QueueStats& q = queue.value();
  ServiceStats stats;
  stats.tasks_total = q.queued + q.running + q.complete + q.canceled;
  stats.tasks_queued = q.queued;
  stats.tasks_running = q.running;
  stats.tasks_complete = q.complete;
  stats.tasks_canceled = q.canceled;
  stats.output_queue_depth = q.output_queue;
  stats.input_queue_depth = q.input_queue;
  return stats;
}

json::Value EmewsService::checkpoint() const {
  return db::dump_database(db_);
}

Status EmewsService::restore(const json::Value& snapshot) {
  if (schema_created_ || running_) {
    return Status(ErrorCode::kConflict,
                  "restore requires a fresh service instance");
  }
  Status s = (storage_ && storage::is_manifest(snapshot))
                 ? storage_->restore_manifest(db_, snapshot)
                 : db::restore_database(db_, snapshot);
  if (!s.is_ok()) return s;
  if (!schema_exists(db_)) {
    return Status(ErrorCode::kInvalidArgument,
                  "snapshot does not contain an EMEWS schema");
  }
  schema_created_ = true;
  running_ = true;
  {
    db::sql::Connection conn(db_);
    Status upgraded = upgrade_schema(conn);
    if (!upgraded.is_ok()) return upgraded;
  }
  // The snapshot may hold tasks that were running on the old resource; their
  // pools are gone, so put them back in the output queue for the new one.
  EQSQL eq(db_, clock_);
  Result<std::size_t> requeued = eq.requeue_running_tasks();
  if (!requeued.ok()) return requeued.error();
  recovered_requeues_ = requeued.value();
  // Tenancy enabled before the restore: the registry's depths predate the
  // snapshot, so rebuild them from the restored table.
  return sync_tenant_depths();
}

Status EmewsService::enable_storage(db::wal::LogDevice& device,
                                    storage::StorageOptions options,
                                    FaultRegistry* faults) {
  if (storage_) {
    return Status(ErrorCode::kConflict, "storage engine already enabled");
  }
  storage_ = std::make_unique<storage::StorageEngine>(device, options, faults);
  Status attached = storage_->attach(db_);
  if (!attached.is_ok()) {
    storage_.reset();
    return attached;
  }
  // enable_storage and enable_wal compose in either order; whichever comes
  // second completes the checkpoint wiring.
  if (wal_) storage_->install(*wal_);
  return Status::ok();
}

Status EmewsService::enable_wal(db::wal::LogDevice& device,
                                db::wal::WalOptions options) {
  if (wal_) {
    return Status(ErrorCode::kConflict, "WAL already enabled");
  }
  auto manager = std::make_unique<db::wal::WalManager>(device, options);
  Status opened = manager->open();
  if (!opened.is_ok()) return opened;
  // WalManager::attach takes the observer slot unconditionally. If the
  // notification plane is already installed, step it aside and re-wrap it
  // around the WAL afterward, preserving the chain notifier -> wal.
  if (notifier_) notifier_->detach();
  manager->attach(db_);
  if (notifier_) notifier_->attach(db_);
  wal_ = std::move(manager);
  if (storage_) storage_->install(*wal_);
  if (!db_.table_names().empty()) {
    // State created before the log existed (enable_wal on a live campaign):
    // checkpoint it, otherwise recovery would replay onto nothing.
    Result<db::wal::Lsn> ckpt = wal_->checkpoint(db_);
    if (!ckpt.ok()) {
      if (notifier_) notifier_->detach();
      wal_->detach();
      wal_.reset();
      if (notifier_) notifier_->attach(db_);
      return ckpt.error();
    }
  }
  return Status::ok();
}

Result<db::wal::Lsn> EmewsService::checkpoint_durable() {
  if (!wal_) {
    return Error(ErrorCode::kUnavailable, "WAL not enabled on this service");
  }
  return wal_->checkpoint(db_);
}

Result<db::wal::RecoveryInfo> EmewsService::recover_from_wal(
    db::wal::LogDevice& device, db::wal::WalOptions options) {
  if (schema_created_ || running_ || wal_) {
    return Error(ErrorCode::kConflict,
                 "recover_from_wal requires a fresh service instance");
  }
  if (storage_ && &storage_->device() != &device) {
    return Error(ErrorCode::kInvalidArgument,
                 "recover_from_wal: storage engine is bound to a different "
                 "device than the log being recovered");
  }
  Result<db::wal::RecoveryInfo> info =
      storage_ ? storage_->recover(db_) : db::wal::recover(device, db_);
  if (!info.ok()) return info;
  if (!schema_exists(db_)) {
    return Error(ErrorCode::kInvalidArgument,
                 "log does not contain an EMEWS schema");
  }
  auto manager = std::make_unique<db::wal::WalManager>(device, options);
  Status opened = manager->open();
  if (!opened.is_ok()) return opened.error();
  if (notifier_) notifier_->detach();
  manager->attach(db_);
  if (notifier_) notifier_->attach(db_);
  wal_ = std::move(manager);
  if (storage_) storage_->install(*wal_);
  schema_created_ = true;
  running_ = true;
  // A log written by an older schema gains its missing indexes now, as
  // logged DDL, so the next recovery finds them in the log.
  {
    db::sql::Connection conn(db_);
    Status upgraded = upgrade_schema(conn);
    if (!upgraded.is_ok()) return upgraded.error();
  }
  // Requeue after the log is attached: the lease release is itself a
  // committed, durable transaction, so a crash during recovery replays it.
  EQSQL eq(db_, clock_);
  Result<std::size_t> requeued = eq.requeue_running_tasks();
  if (!requeued.ok()) return requeued.error();
  recovered_requeues_ = requeued.value();
  Status synced = sync_tenant_depths();
  if (!synced.is_ok()) return synced.error();
  return info;
}

}  // namespace osprey::eqsql
