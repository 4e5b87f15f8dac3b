#include "osprey/repl/node.h"

#include <algorithm>
#include <utility>

#include "osprey/core/log.h"
#include "osprey/db/dump.h"
#include "osprey/db/sql_exec.h"
#include "osprey/eqsql/schema.h"

namespace osprey::repl {

namespace wal = db::wal;

ReplicaNode::ReplicaNode(std::string id, net::SiteName site, const Clock& clock,
                         FaultRegistry* faults)
    : id_(std::move(id)),
      site_(std::move(site)),
      clock_(clock),
      faults_(faults),
      disk_(std::make_shared<wal::SimDisk>()),
      device_(std::make_unique<wal::SimLogDevice>(disk_, faults)),
      db_(std::make_unique<db::Database>()) {}

ReplicaNode::~ReplicaNode() {
  // The database outlives the wal_ member only by declaration order luck;
  // detach explicitly like EmewsService does.
  if (wal_) wal_->detach();
}

Status ReplicaNode::init_leader(Epoch epoch, wal::WalOptions options) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (bootstrapped_) {
    return Status(ErrorCode::kConflict, "node '" + id_ + "' already initialized");
  }
  log_options_ = options;
  wal_ = std::make_unique<wal::WalManager>(*device_, options);
  Status opened = wal_->open();
  if (!opened.is_ok()) return opened;
  wal_->attach(*db_);
  {
    db::sql::Connection conn(*db_);
    Status schema = eqsql::create_schema(conn);
    if (!schema.is_ok()) return schema;
  }
  Result<wal::Lsn> logged = wal_->log_epoch(epoch);
  if (!logged.ok()) return logged.error();
  role_ = Role::kLeader;
  epoch_ = epoch;
  applied_lsn_ = logged.value();
  bootstrapped_ = true;
  return Status::ok();
}

Status ReplicaNode::bootstrap(const json::Value& snapshot,
                              wal::Lsn snapshot_lsn, Epoch epoch) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!alive_) return Status(ErrorCode::kUnavailable, "node '" + id_ + "' dead");
  if (bootstrapped_) {
    return Status(ErrorCode::kConflict, "node '" + id_ + "' already bootstrapped");
  }
  Status restored = db::restore_database(*db_, snapshot);
  if (!restored.is_ok()) return restored;
  // Persist the snapshot as a checkpoint on the own device, so this node's
  // log alone reconstructs it (recover_from_disk, promotion, chained reads).
  // The leadership epoch rides along as checkpoint metadata: the snapshot is
  // the only place it exists before any kEpoch record is shipped.
  json::Value with_meta = snapshot;
  with_meta["repl_epoch"] = json::Value(static_cast<std::int64_t>(epoch));
  const std::string name = wal::checkpoint_segment_name(snapshot_lsn);
  Status written =
      device_->append(name, wal::encode_checkpoint(snapshot_lsn, with_meta));
  if (written.is_ok()) written = device_->sync(name);
  if (!written.is_ok()) return written;
  epoch_ = epoch;
  applied_lsn_ = snapshot_lsn;
  role_ = Role::kFollower;
  bootstrapped_ = true;
  segment_.clear();
  segment_size_ = 0;
  return Status::ok();
}

Status ReplicaNode::append_frames_locked(const ShipBatch& batch) {
  // Re-encode only the records past applied_lsn_ — a partially duplicated
  // batch must not write already-logged frames twice. applied_lsn_ always
  // sits on a committed-unit boundary, so the filter keeps units whole.
  std::string frames;
  wal::Lsn first_new = 0;
  for (const wal::Record& r : batch.records) {
    if (r.lsn <= applied_lsn_) continue;
    if (first_new == 0) first_new = r.lsn;
    frames += wal::encode_record(r);
  }
  if (frames.empty()) return Status::ok();
  if (segment_.empty() || segment_size_ >= log_options_.segment_bytes) {
    std::string header = wal::wal_segment_header(first_new);
    std::string name = wal::wal_segment_name(first_new);
    Status appended = device_->append(name, header);
    if (!appended.is_ok()) return appended;
    segment_ = name;
    segment_size_ = header.size();
  }
  Status appended = device_->append(segment_, frames);
  if (!appended.is_ok()) return appended;
  segment_size_ += frames.size();
  // One durability barrier per batch: the shipped tail survives follower
  // power loss up to the last acknowledged batch.
  return device_->sync(segment_);
}

Result<wal::Lsn> ReplicaNode::apply_batch(const ShipBatch& batch) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!alive_) return Error(ErrorCode::kUnavailable, "node '" + id_ + "' dead");
  if (!bootstrapped_) {
    return Error(ErrorCode::kUnavailable, "node '" + id_ + "' not bootstrapped");
  }
  if (batch.epoch < epoch_) {
    return Error(ErrorCode::kConflict,
                 "fenced: batch epoch " + std::to_string(batch.epoch) +
                     " < node epoch " + std::to_string(epoch_));
  }
  if (batch.records.empty()) return applied_lsn_;
  if (batch.last_lsn <= applied_lsn_) return applied_lsn_;  // duplicate: no-op
  if (batch.first_lsn > applied_lsn_ + 1) {
    return Error(ErrorCode::kInvalidArgument,
                 "gap: batch starts at " + std::to_string(batch.first_lsn) +
                     ", applied " + std::to_string(applied_lsn_));
  }
  // Make the batch durable on the own log *before* applying, mirroring the
  // leader's write-ahead discipline: an acknowledged batch must survive a
  // follower crash, or a promoted follower could lose acknowledged state.
  Status logged = append_frames_locked(batch);
  if (!logged.is_ok()) return logged.error();
  {
    std::lock_guard<std::recursive_mutex> db_guard(db_->mutex());
    for (const wal::Record& r : batch.records) {
      if (r.lsn <= applied_lsn_) continue;  // duplicated prefix
      Status applied = wal::apply_record(*db_, r);
      if (!applied.is_ok()) return applied.error();
      if (r.type == wal::RecordType::kEpoch && r.epoch > epoch_) {
        epoch_ = r.epoch;  // learn new leadership from the replicated record
      }
    }
  }
  applied_lsn_ = batch.last_lsn;
  return applied_lsn_;
}

Status ReplicaNode::promote(Epoch new_epoch, wal::WalOptions options) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!alive_) return Status(ErrorCode::kUnavailable, "node '" + id_ + "' dead");
  if (!bootstrapped_) {
    return Status(ErrorCode::kUnavailable, "node '" + id_ + "' not bootstrapped");
  }
  if (role_ == Role::kLeader) {
    return Status(ErrorCode::kConflict, "node '" + id_ + "' already leader");
  }
  if (new_epoch <= epoch_) {
    return Status(ErrorCode::kInvalidArgument,
                  "promotion epoch must exceed " + std::to_string(epoch_));
  }
  log_options_ = options;
  wal_ = std::make_unique<wal::WalManager>(*device_, options);
  // open() scans this node's own log (bootstrap checkpoint + applied frames)
  // and positions the writer at applied_lsn_ + 1: the promoted leader
  // continues the same dense LSN sequence the old leader started.
  Status opened = wal_->open();
  if (!opened.is_ok()) {
    wal_.reset();
    return opened;
  }
  wal_->attach(*db_);
  Result<wal::Lsn> logged = wal_->log_epoch(new_epoch);
  if (logged.ok()) {
    // A log an older leader wrote gains the current schema's indexes as
    // logged DDL, which ships to the followers like any other record.
    db::sql::Connection conn(*db_);
    Status upgraded = eqsql::upgrade_schema(conn);
    if (!upgraded.is_ok()) logged = upgraded.error();
  }
  if (!logged.ok()) {
    wal_->detach();
    wal_.reset();
    return logged.error();
  }
  role_ = Role::kLeader;
  epoch_ = new_epoch;
  applied_lsn_ = wal_->next_lsn() - 1;
  OSPREY_LOG(kWarn, "repl") << "follower promoted to leader"
                            << log_field("node", id_)
                            << log_field("epoch", new_epoch)
                            << log_field("lsn", logged.value());
  return Status::ok();
}

Result<wal::RecoveryInfo> ReplicaNode::recover_from_disk() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (alive_ && bootstrapped_) {
    return Error(ErrorCode::kConflict,
                 "recover_from_disk requires a fresh or crashed node");
  }
  if (!alive_) {
    // A restarted node gets a fresh device over the surviving disk.
    device_ = std::make_unique<wal::SimLogDevice>(disk_, faults_);
    alive_ = true;
  }
  // The in-memory database died with the process; rebuild it from the log.
  // (Outstanding EQSQL handles onto the old database are invalidated.)
  db_ = std::make_unique<db::Database>();
  bootstrapped_ = false;
  // The baseline epoch is checkpoint metadata (bootstrap stores it there);
  // epoch bumps shipped since are kEpoch records in the replayed tail.
  Epoch ckpt_epoch = 0;
  Result<wal::RecoveryInfo> info = wal::recover(
      *device_, *db_, [&](db::Database& db, const json::Value& snapshot) {
        if (snapshot.is_null()) return Status::ok();
        ckpt_epoch = static_cast<Epoch>(snapshot["repl_epoch"].get_int(0));
        return db::restore_database(db, snapshot);
      });
  if (!info.ok()) return info;
  applied_lsn_ = info.value().last_lsn;
  epoch_ = std::max(ckpt_epoch, info.value().last_epoch);
  role_ = Role::kFollower;
  bootstrapped_ = true;
  segment_.clear();
  segment_size_ = 0;
  return info;
}

void ReplicaNode::crash() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (wal_) {
    wal_->detach();
    wal_.reset();
  }
  device_->crash();
  alive_ = false;
}

Status ReplicaNode::stop() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!alive_) return Status(ErrorCode::kConflict, "node '" + id_ + "' dead");
  if (wal_) {
    Status flushed = wal_->flush();
    if (!flushed.is_ok()) return flushed;
  } else if (!segment_.empty()) {
    Status synced = device_->sync(segment_);
    if (!synced.is_ok()) return synced;
  }
  alive_ = false;
  return Status::ok();
}

ReplicaNode::Role ReplicaNode::role() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return role_;
}

Epoch ReplicaNode::epoch() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return epoch_;
}

bool ReplicaNode::alive() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return alive_;
}

bool ReplicaNode::bootstrapped() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return bootstrapped_;
}

wal::Lsn ReplicaNode::applied_lsn() const {
  std::lock_guard<std::mutex> guard(mutex_);
  if (role_ == Role::kLeader && wal_) return wal_->next_lsn() - 1;
  return applied_lsn_;
}

Result<std::unique_ptr<eqsql::EQSQL>> ReplicaNode::connect() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (!alive_) return Error(ErrorCode::kUnavailable, "node '" + id_ + "' dead");
  if (!bootstrapped_) {
    return Error(ErrorCode::kUnavailable, "node '" + id_ + "' not bootstrapped");
  }
  return std::make_unique<eqsql::EQSQL>(*db_, clock_);
}

}  // namespace osprey::repl
