#include "osprey/repl/group.h"

#include <algorithm>
#include <utility>

#include "osprey/core/log.h"
#include "osprey/db/dump.h"
#include "osprey/obs/telemetry.h"

namespace osprey::repl {

namespace wal = db::wal;

namespace {

/// Replication-plane telemetry (DESIGN.md §observability): shipping volume,
/// channel misbehavior, lag, and failovers.
struct ReplObs {
  obs::Counter& batches_shipped;
  obs::Counter& records_shipped;
  obs::Counter& drops;
  obs::Counter& duplicates;
  obs::Counter& gap_rejects;
  obs::Counter& fenced;
  obs::Counter& rebootstraps;
  obs::Counter& failovers;
  obs::Gauge& epoch;
  obs::Histogram& batch_records;
  obs::Histogram& batch_bytes;
  obs::Histogram& ship_latency;
  obs::Histogram& failover_duration;
  obs::Histogram& bootstrap_bytes;
};

ReplObs& repl_obs() {
  auto& m = obs::telemetry().metrics;
  static ReplObs o{
      m.counter("osprey_repl_batches_shipped_total"),
      m.counter("osprey_repl_records_shipped_total"),
      m.counter("osprey_repl_ship_drops_total"),
      m.counter("osprey_repl_ship_duplicates_total"),
      m.counter("osprey_repl_gap_rejects_total"),
      m.counter("osprey_repl_fenced_batches_total"),
      m.counter("osprey_repl_rebootstraps_total"),
      m.counter("osprey_repl_failovers_total"),
      m.gauge("osprey_repl_epoch"),
      m.histogram("osprey_repl_ship_batch_records", {}, obs::count_buckets()),
      m.histogram("osprey_repl_ship_batch_bytes", {}, obs::bytes_buckets()),
      m.histogram("osprey_repl_ship_latency_seconds"),
      m.histogram("osprey_repl_failover_duration_seconds"),
      m.histogram("osprey_repl_bootstrap_bytes", {}, obs::bytes_buckets()),
  };
  return o;
}

/// Per-replica lag gauges, labeled like the pool metrics are.
obs::Gauge& lag_lsns_gauge(const std::string& replica) {
  return obs::telemetry().metrics.gauge("osprey_repl_lag_lsns",
                                        {{"replica", replica}});
}
obs::Gauge& lag_seconds_gauge(const std::string& replica) {
  return obs::telemetry().metrics.gauge("osprey_repl_lag_seconds",
                                        {{"replica", replica}});
}

}  // namespace

ReplicationGroup::ReplicationGroup(const Clock& clock, net::Network& network,
                                   ReplConfig config)
    : clock_(clock), network_(network), config_(std::move(config)) {}

void ReplicationGroup::set_fault_registry(FaultRegistry* faults) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  faults_ = faults;
}

Result<ReplicaNode*> ReplicationGroup::create_leader(const std::string& id,
                                                     const net::SiteName& site) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (leader_) {
    return Error(ErrorCode::kConflict, "group already has a leader");
  }
  auto node = std::make_unique<ReplicaNode>(id, site, clock_, faults_);
  Status init = node->init_leader(1, config_.wal);
  if (!init.is_ok()) return init.error();
  epoch_ = 1;
  if (obs::enabled()) repl_obs().epoch.set(1.0);
  leader_ = std::move(node);
  OSPREY_LOG(kInfo, "repl") << "leader created" << log_field("node", id)
                            << log_field("site", site)
                            << log_field("epoch", epoch_);
  return leader_.get();
}

Result<json::Value> ReplicationGroup::leader_snapshot_locked(
    wal::Lsn* snapshot_lsn) {
  if (!leader_ || !leader_->alive()) {
    return Error(ErrorCode::kUnavailable, "no live leader to snapshot");
  }
  wal::WalManager* wal_mgr = leader_->wal();
  if (!wal_mgr) {
    return Error(ErrorCode::kInternal, "leader has no wal manager");
  }
  // The database lock keeps commits out (every commit logs under it), and
  // the flush makes everything logged so far durable, so the dump is
  // consistent exactly as of the durable LSN: a follower never holds a
  // commit the leader could still lose.
  std::lock_guard<std::recursive_mutex> db_guard(leader_->database().mutex());
  Status flushed = wal_mgr->flush();
  if (!flushed.is_ok()) return flushed.error();
  *snapshot_lsn = wal_mgr->durable_lsn();
  return db::dump_database(leader_->database());
}

Status ReplicationGroup::bootstrap_follower_locked(ReplicaNode& follower) {
  wal::Lsn snapshot_lsn = 0;
  Result<json::Value> snapshot = leader_snapshot_locked(&snapshot_lsn);
  if (!snapshot.ok()) return snapshot.error();
  Status bs = follower.bootstrap(snapshot.value(), snapshot_lsn, epoch_);
  if (!bs.is_ok()) return bs;
  // The snapshot stages across the wide area like a checkpoint would
  // (§IV-E): account the modeled cost, don't sleep it.
  const Bytes bytes = snapshot.value().dump().size();
  last_bootstrap_duration_ =
      network_.transfer_duration(leader_->site(), follower.site(), bytes);
  if (obs::enabled()) {
    repl_obs().bootstrap_bytes.observe(static_cast<double>(bytes));
  }
  caught_up_at_[follower.node_id()] = clock_.now();
  OSPREY_LOG(kInfo, "repl") << "follower bootstrapped"
                            << log_field("node", follower.node_id())
                            << log_field("snapshot_lsn", snapshot_lsn)
                            << log_field("bytes", bytes);
  return Status::ok();
}

Result<ReplicaNode*> ReplicationGroup::add_follower(const std::string& id,
                                                    const net::SiteName& site) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (followers_.count(id) || (leader_ && leader_->node_id() == id)) {
    return Error(ErrorCode::kConflict, "node '" + id + "' already in group");
  }
  auto node = std::make_unique<ReplicaNode>(id, site, clock_, faults_);
  Status bs = bootstrap_follower_locked(*node);
  if (!bs.is_ok()) return bs.error();
  ReplicaNode* out = node.get();
  followers_.emplace(id, std::move(node));
  return out;
}

Status ReplicationGroup::remove_follower(const std::string& id) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  auto it = followers_.find(id);
  if (it == followers_.end()) {
    return Status(ErrorCode::kNotFound, "no follower '" + id + "'");
  }
  followers_.erase(it);
  caught_up_at_.erase(id);
  return Status::ok();
}

Status ReplicationGroup::kill(const std::string& id) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (leader_ && leader_->node_id() == id) {
    leader_->crash();
    OSPREY_LOG(kWarn, "repl") << "leader crashed" << log_field("node", id)
                              << log_field("epoch", epoch_);
    return Status::ok();
  }
  auto it = followers_.find(id);
  if (it == followers_.end()) {
    return Status(ErrorCode::kNotFound, "no node '" + id + "'");
  }
  it->second->crash();
  OSPREY_LOG(kWarn, "repl") << "follower crashed" << log_field("node", id);
  return Status::ok();
}

Status ReplicationGroup::deliver_locked(ReplicaNode& follower,
                                        const ShipBatch& batch,
                                        PumpStats* stats) {
  RetryState retry(config_.ship_retry, config_.seed + ship_seq_++, "repl");
  while (true) {
    if (faults_ && faults_->should_fire(fault_point::repl_ship_drop())) {
      ++stats->drops;
      if (obs::enabled()) repl_obs().drops.inc();
      Duration delay = 0.0;
      if (retry.next_delay(&delay)) continue;  // immediate re-send
      return Status(ErrorCode::kUnavailable,
                    "ship batch dropped; retries exhausted");
    }
    if (faults_ && faults_->should_fire(fault_point::repl_ship_reorder())) {
      // Deliver the *next* batch first: the follower must reject the LSN gap
      // so in-order redelivery below converges.
      wal::WalCursor peek(leader_->device(), batch.last_lsn + 1);
      Result<wal::CursorBatch> later =
          peek.next(config_.max_batch_records, leader_->applied_lsn());
      if (later.ok() && !later.value().empty()) {
        ShipBatch early;
        early.epoch = batch.epoch;
        early.first_lsn = later.value().first_lsn;
        early.last_lsn = later.value().last_lsn;
        early.transactions = later.value().transactions;
        early.records = std::move(later.value().records);
        early.frames = std::move(later.value().frames);
        Result<wal::Lsn> out_of_order = follower.apply_batch(early);
        if (!out_of_order.ok() &&
            out_of_order.code() == ErrorCode::kInvalidArgument) {
          ++stats->gap_rejects;
          if (obs::enabled()) repl_obs().gap_rejects.inc();
        }
      }
    }
    Result<wal::Lsn> applied = follower.apply_batch(batch);
    if (applied.ok()) {
      ++stats->batches_shipped;
      stats->records_shipped += batch.records.size();
      if (obs::enabled()) {
        ReplObs& o = repl_obs();
        o.batches_shipped.inc();
        o.records_shipped.inc(batch.records.size());
        o.batch_records.observe(static_cast<double>(batch.records.size()));
        o.batch_bytes.observe(static_cast<double>(batch.frames.size()));
        // Modeled wide-area latency of this batch, not wall time: the sim
        // network is the clock that matters for lag curves.
        o.ship_latency.observe(network_.transfer_duration(
            leader_->site(), follower.site(), batch.frames.size()));
      }
      if (faults_ && faults_->should_fire(fault_point::repl_ship_duplicate())) {
        ++stats->duplicates_delivered;
        if (obs::enabled()) repl_obs().duplicates.inc();
        follower.apply_batch(batch);  // must no-op by LSN; result ignored
      }
      return Status::ok();
    }
    if (applied.code() == ErrorCode::kInvalidArgument) {
      // LSN gap: the pump loop resyncs its cursor from applied_lsn + 1.
      ++stats->gap_rejects;
      if (obs::enabled()) repl_obs().gap_rejects.inc();
      return applied.error();
    }
    if (applied.code() == ErrorCode::kConflict) {
      ++stats->fenced;
      if (obs::enabled()) repl_obs().fenced.inc();
      return applied.error();
    }
    return applied.error();  // dead follower etc.: give up
  }
}

Status ReplicationGroup::ship_to_follower_locked(ReplicaNode& follower,
                                                 PumpStats* stats) {
  for (std::size_t i = 0; i < config_.max_batches_per_pump; ++i) {
    // Ship only what the leader has made durable: a unit appended but not
    // yet synced could still be lost with the leader.
    wal::WalCursor cursor(leader_->device(), follower.applied_lsn() + 1);
    Result<wal::CursorBatch> next =
        cursor.next(config_.max_batch_records, leader_->applied_lsn());
    if (!next.ok()) return next.error();
    if (next.value().empty()) {
      caught_up_at_[follower.node_id()] = clock_.now();
      break;
    }
    ShipBatch batch;
    batch.epoch = epoch_;
    batch.first_lsn = next.value().first_lsn;
    batch.last_lsn = next.value().last_lsn;
    batch.transactions = next.value().transactions;
    batch.records = std::move(next.value().records);
    batch.frames = std::move(next.value().frames);
    Status delivered = deliver_locked(follower, batch, stats);
    if (delivered.code() == ErrorCode::kInvalidArgument) continue;  // resync
    if (!delivered.is_ok()) return delivered;
  }
  return Status::ok();
}

Result<PumpStats> ReplicationGroup::pump() {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  PumpStats stats;
  if (!leader_ || !leader_->alive()) {
    return Error(ErrorCode::kUnavailable, "no live leader");
  }
  const wal::Lsn head = leader_->applied_lsn();
  for (auto& [id, follower] : followers_) {
    if (!follower->alive() || !follower->bootstrapped()) continue;
    if (network_.partitioned(leader_->site(), follower->site())) {
      ++stats.partitioned_followers;
    } else {
      Status shipped = ship_to_follower_locked(*follower, &stats);
      if (shipped.code() == ErrorCode::kNotFound) {
        // The leader checkpoint truncated past this follower's tail: only a
        // fresh bootstrap can resync it. Replace the node in place.
        auto fresh = std::make_unique<ReplicaNode>(id, follower->site(),
                                                   clock_, faults_);
        Status bs = bootstrap_follower_locked(*fresh);
        if (bs.is_ok()) {
          follower = std::move(fresh);
          ++stats.rebootstraps;
          if (obs::enabled()) repl_obs().rebootstraps.inc();
        } else {
          OSPREY_LOG(kWarn, "repl")
              << "re-bootstrap failed" << log_field("node", id)
              << log_field("error", bs.to_string());
        }
      } else if (shipped.code() == ErrorCode::kConflict) {
        // A follower at a higher epoch fenced us: this group handle belongs
        // to a deposed leader. Stop shipping entirely.
        return stats;
      }
    }
    if (obs::enabled()) {
      const wal::Lsn applied = follower->applied_lsn();
      const double lag = head > applied ? static_cast<double>(head - applied) : 0.0;
      lag_lsns_gauge(id).set(lag);
      auto it = caught_up_at_.find(id);
      const double lag_s =
          (lag == 0.0 || it == caught_up_at_.end())
              ? 0.0
              : std::max(0.0, clock_.now() - it->second);
      lag_seconds_gauge(id).set(lag_s);
    }
  }
  return stats;
}

Result<std::string> ReplicationGroup::promote() {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  obs::Stopwatch latency;
  const TimePoint started = clock_.now();
  ReplicaNode* best = nullptr;
  for (auto& [id, follower] : followers_) {
    if (!follower->alive() || !follower->bootstrapped()) continue;
    // Most-caught-up wins; the map's id order breaks ties deterministically
    // (strict > keeps the first, i.e. lowest, id on equal LSNs).
    if (!best || follower->applied_lsn() > best->applied_lsn()) {
      best = follower.get();
    }
  }
  if (!best) {
    return Error(ErrorCode::kUnavailable, "no promotable follower");
  }
  const Epoch new_epoch = epoch_ + 1;
  Status promoted = best->promote(new_epoch, config_.wal);
  if (!promoted.is_ok()) return promoted.error();
  const std::string id = best->node_id();
  epoch_ = new_epoch;
  if (leader_) retired_.push_back(std::move(leader_));
  leader_ = std::move(followers_[id]);
  followers_.erase(id);
  caught_up_at_.erase(id);
  last_failover_duration_ = clock_.now() - started;
  if (obs::enabled()) {
    ReplObs& o = repl_obs();
    o.failovers.inc();
    o.epoch.set(static_cast<double>(new_epoch));
    obs::observe_latency(o.failover_duration, latency);
    lag_lsns_gauge(id).set(0.0);
    lag_seconds_gauge(id).set(0.0);
  }
  OSPREY_LOG(kWarn, "repl") << "epoch transition: leader failover"
                            << log_field("new_leader", id)
                            << log_field("epoch", new_epoch)
                            << log_field("lsn", leader_->applied_lsn());
  return id;
}

ReplicaNode* ReplicationGroup::leader() {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  return leader_.get();
}

ReplicaNode* ReplicationGroup::node(const std::string& id) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (leader_ && leader_->node_id() == id) return leader_.get();
  auto it = followers_.find(id);
  return it == followers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ReplicationGroup::follower_ids() const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  std::vector<std::string> ids;
  ids.reserve(followers_.size());
  for (const auto& [id, _] : followers_) ids.push_back(id);
  return ids;
}

Epoch ReplicationGroup::epoch() const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  return epoch_;
}

bool ReplicationGroup::leader_alive() {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  return leader_ && leader_->alive();
}

db::wal::Lsn ReplicationGroup::leader_lsn() {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (!leader_ || !leader_->alive()) return 0;
  return leader_->applied_lsn();
}

Duration ReplicationGroup::last_failover_duration() const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  return last_failover_duration_;
}

Duration ReplicationGroup::last_bootstrap_duration() const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  return last_bootstrap_duration_;
}

ReplicaNode* ReplicationGroup::replica_for_read(db::wal::Lsn min_lsn) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  std::vector<ReplicaNode*> eligible;
  for (auto& [id, follower] : followers_) {
    if (!follower->alive() || !follower->bootstrapped()) continue;
    if (follower->applied_lsn() < min_lsn) continue;
    eligible.push_back(follower.get());
  }
  if (eligible.empty()) return nullptr;
  return eligible[read_rr_++ % eligible.size()];
}

json::Value ReplicationGroup::status() {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  json::Value out;
  out["epoch"] = json::Value(static_cast<std::int64_t>(epoch_));
  if (leader_) {
    json::Value l;
    l["id"] = json::Value(leader_->node_id());
    l["site"] = json::Value(leader_->site());
    l["alive"] = json::Value(leader_->alive());
    l["lsn"] = json::Value(static_cast<std::int64_t>(leader_->applied_lsn()));
    out["leader"] = std::move(l);
  }
  const wal::Lsn head = leader_ && leader_->alive() ? leader_->applied_lsn() : 0;
  json::Array followers;
  for (auto& [id, follower] : followers_) {
    json::Value f;
    f["id"] = json::Value(id);
    f["site"] = json::Value(follower->site());
    f["alive"] = json::Value(follower->alive());
    const wal::Lsn applied = follower->applied_lsn();
    f["applied_lsn"] = json::Value(static_cast<std::int64_t>(applied));
    f["lag_lsns"] = json::Value(
        static_cast<std::int64_t>(head > applied ? head - applied : 0));
    followers.push_back(std::move(f));
  }
  out["followers"] = json::Value(std::move(followers));
  return out;
}

}  // namespace osprey::repl
