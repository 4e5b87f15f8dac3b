// A replica of the EMEWS task database: one member of a ReplicationGroup.
//
// The paper's EMEWS service (§IV-C) is a single resource-local process; a
// ReplicaNode is that process made replaceable. Every node owns its own
// database, its own simulated log device, and a role:
//
//  - The *leader* runs a WalManager attached to its database, so every
//    committed transaction lands in its log; the group's shipper tails that
//    log with a WalCursor and fans batches out to the followers.
//  - A *follower* holds no WalManager. It bootstraps from a leader snapshot
//    (writing the snapshot to its own device as a checkpoint segment) and
//    then redo-applies shipped batches via apply_batch(), appending the raw
//    frames to its own device as it goes. The follower's device is therefore
//    always a self-sufficient log: recover() rebuilds the follower state,
//    and promote() opens a WalManager on it to continue the *same* log as
//    the new leader — LSNs stay dense across a failover.
//
// Epoch fencing: each node tracks the highest leadership epoch it has seen
// (from bootstrap, promote(), or replicated kEpoch records). apply_batch()
// rejects batches stamped with an older epoch with kConflict, which is how a
// deposed leader's straggler batches die.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/db/database.h"
#include "osprey/db/wal.h"
#include "osprey/eqsql/db_api.h"
#include "osprey/json/json.h"
#include "osprey/net/network.h"

namespace osprey::repl {

using Epoch = std::uint64_t;

/// One LSN-ordered batch of committed WAL records in flight from the leader
/// to a follower. `records` / `frames` come straight from a CursorBatch;
/// `epoch` is stamped by the shipper at send time so a deposed leader's
/// stragglers carry their stale epoch with them.
struct ShipBatch {
  Epoch epoch = 0;
  db::wal::Lsn first_lsn = 0;
  db::wal::Lsn last_lsn = 0;
  std::size_t transactions = 0;
  std::vector<db::wal::Record> records;
  std::string frames;
};

class ReplicaNode {
 public:
  enum class Role { kLeader, kFollower };

  /// A node at `site` with a fresh empty database and log device. `faults`
  /// (optional) is threaded into the device so WAL fault points also apply
  /// to replica storage.
  ReplicaNode(std::string id, net::SiteName site, const Clock& clock,
              FaultRegistry* faults = nullptr);
  ~ReplicaNode();

  // --- lifecycle -------------------------------------------------------------

  /// Become the founding leader at `epoch`: open a WAL on the device, attach
  /// it, create the EMEWS schema (logged), and log the epoch.
  Status init_leader(Epoch epoch, db::wal::WalOptions options = {});

  /// Bootstrap as a follower from a leader snapshot consistent as of
  /// `snapshot_lsn`: restore the database, persist the snapshot to the own
  /// device as a checkpoint segment, and start accepting batches from
  /// `snapshot_lsn + 1`.
  Status bootstrap(const json::Value& snapshot, db::wal::Lsn snapshot_lsn,
                   Epoch epoch);

  /// Redo-apply a shipped batch. Returns the node's applied LSN afterwards.
  ///  - kUnavailable: node dead or not bootstrapped.
  ///  - kConflict: batch epoch older than the node's (fenced straggler).
  ///  - kInvalidArgument: LSN gap (batch starts past applied+1); the shipper
  ///    must resync its cursor. Duplicate batches (last_lsn <= applied) are
  ///    acknowledged as no-ops — idempotency by LSN.
  Result<db::wal::Lsn> apply_batch(const ShipBatch& batch);

  /// Failover: continue this node's own log as the new leader under
  /// `new_epoch`. Opens a WalManager positioned after applied_lsn, attaches
  /// it, and durably logs the epoch record that fences the old leader.
  Status promote(Epoch new_epoch, db::wal::WalOptions options = {});

  /// Rebuild a fresh or crashed node from its own device — the follower
  /// restart path, proving the follower log is self-sufficient. Replaces the
  /// in-memory database (outstanding EQSQL handles are invalidated), restores
  /// the checkpoint + committed tail in one read of the log, and re-learns
  /// the epoch: the checkpoint's bootstrap epoch, raised by any replicated
  /// kEpoch record in the tail (RecoveryInfo::last_epoch).
  Result<db::wal::RecoveryInfo> recover_from_disk();

  /// Power loss: volatile device cache is lost, node stops serving.
  void crash();
  /// Graceful stop: flush the log (leader) / sync the device (follower) so
  /// a subsequent bootstrap or recovery sees every acknowledged write.
  Status stop();

  // --- accessors -------------------------------------------------------------

  const std::string& node_id() const { return id_; }
  const net::SiteName& site() const { return site_; }
  Role role() const;
  Epoch epoch() const;
  bool alive() const;
  bool bootstrapped() const;
  /// Highest LSN reflected in the database (followers: last applied; the
  /// leader reports its durable LSN, the last commit a crash cannot take
  /// back).
  db::wal::Lsn applied_lsn() const;

  db::Database& database() { return *db_; }
  db::wal::LogDevice& device() { return *device_; }
  db::wal::SimLogDevice& sim_device() { return *device_; }
  std::shared_ptr<db::wal::SimDisk> disk() { return disk_; }
  db::wal::WalManager* wal() { return wal_.get(); }

  /// A fresh EQSQL handle onto this node's database. Each concurrent caller
  /// needs its own handle (they share the database but not statement state).
  /// Route a custom sleeper or notifier in via EQSQL::set_wait_routing.
  Result<std::unique_ptr<eqsql::EQSQL>> connect();

 private:
  Status append_frames_locked(const ShipBatch& batch);

  const std::string id_;
  const net::SiteName site_;
  const Clock& clock_;
  FaultRegistry* faults_;

  mutable std::mutex mutex_;
  std::shared_ptr<db::wal::SimDisk> disk_;
  std::unique_ptr<db::wal::SimLogDevice> device_;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<db::wal::WalManager> wal_;  // leader only
  Role role_ = Role::kFollower;
  Epoch epoch_ = 0;
  db::wal::Lsn applied_lsn_ = 0;
  bool alive_ = true;
  bool bootstrapped_ = false;

  // Follower-side log geometry: the segment shipped frames append to.
  std::string segment_;
  std::uint64_t segment_size_ = 0;
  db::wal::WalOptions log_options_;
};

}  // namespace osprey::repl
