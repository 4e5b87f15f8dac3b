// The replication control plane: one leader, N followers, and the shipper
// that moves committed WAL records between them.
//
// Shipping is pull-style and synchronous: pump() tails the leader's log with
// a WalCursor per follower and delivers LSN-ordered ShipBatches, modelling
// the wide-area channel through net::Network (latency is recorded, not
// slept) and the fault plane (fault_point::repl_ship_* drop, duplicate, or
// reorder batches; fault_point::partition makes a follower unreachable).
// Delivery failures retry under the configured RetryPolicy; LSN gaps resync
// the cursor; a cursor invalidated by a leader checkpoint triggers an
// automatic re-bootstrap of that follower.
//
// Failover is deterministic: promote() picks the most-caught-up live
// follower (ties broken by lowest id), bumps the group epoch, and the
// promoted node logs the new epoch durably before serving. The deposed
// leader's stragglers — late ship batches or epoch-stamped writes routed
// through ReplRouter — are fenced by epoch comparison (kConflict).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/fault.h"
#include "osprey/core/retry.h"
#include "osprey/db/wal.h"
#include "osprey/json/json.h"
#include "osprey/net/network.h"
#include "osprey/repl/node.h"

namespace osprey::repl {

struct ReplConfig {
  /// Records per ship batch (a committed unit is never split, so a batch
  /// may exceed this by one transaction).
  std::size_t max_batch_records = 128;
  /// Batches delivered to one follower per pump() call; bounds how much a
  /// single pump catches up (tests set 1 to freeze a follower mid-catch-up).
  std::size_t max_batches_per_pump = 8;
  /// Retry policy on the shipping channel (drops, transient failures).
  /// Immediate retries: pump() is synchronous and sim-driven, so backoff
  /// time belongs to the caller's pump cadence, not to sleeps.
  RetryPolicy ship_retry = RetryPolicy::immediate(3);
  /// Log options for every node (leader WAL and follower shipped-frame log).
  db::wal::WalOptions wal;
  /// Seed for the shipping channel's retry jitter (determinism).
  std::uint64_t seed = 0;
};

/// What one pump() call did (per-call; cumulative counts live in obs).
struct PumpStats {
  std::size_t batches_shipped = 0;
  std::size_t records_shipped = 0;
  std::size_t duplicates_delivered = 0;
  std::size_t gap_rejects = 0;
  std::size_t drops = 0;
  std::size_t fenced = 0;
  std::size_t rebootstraps = 0;
  std::size_t partitioned_followers = 0;
};

class ReplicationGroup {
 public:
  ReplicationGroup(const Clock& clock, net::Network& network,
                   ReplConfig config = {});

  /// Attach the fault plane (ship faults + partitions + device faults for
  /// nodes created afterwards).
  void set_fault_registry(FaultRegistry* faults);

  // --- membership ------------------------------------------------------------

  /// Create the founding leader at epoch 1.
  Result<ReplicaNode*> create_leader(const std::string& id,
                                     const net::SiteName& site);

  /// Create a follower and bootstrap it synchronously from the leader's
  /// current snapshot (consistent dump + LSN under the leader's db lock);
  /// the modeled wide-area staging cost is recorded in obs and returned via
  /// last_bootstrap_duration().
  Result<ReplicaNode*> add_follower(const std::string& id,
                                    const net::SiteName& site);

  Status remove_follower(const std::string& id);

  /// Crash a node (leader or follower) in place.
  Status kill(const std::string& id);

  // --- shipping --------------------------------------------------------------

  /// Ship the leader's committed tail to every reachable follower (bounded
  /// by max_batches_per_pump each). Safe to call from a dedicated shipper
  /// thread concurrently with writers on the leader.
  Result<PumpStats> pump();

  // --- failover --------------------------------------------------------------

  /// Promote the most-caught-up live follower (ties: lowest id) under
  /// epoch + 1. Returns the new leader's id. The old leader, if still
  /// registered, is retired; its epoch-stamped stragglers will be fenced.
  Result<std::string> promote();

  // --- introspection ---------------------------------------------------------

  ReplicaNode* leader();
  ReplicaNode* node(const std::string& id);
  std::vector<std::string> follower_ids() const;
  Epoch epoch() const;
  bool leader_alive();
  /// The leader's last durable LSN (0 when there is no live leader).
  db::wal::Lsn leader_lsn();
  Duration last_failover_duration() const;
  Duration last_bootstrap_duration() const;

  /// A live follower whose applied LSN is at least `min_lsn`, round-robin
  /// across eligible followers; nullptr when none qualifies (the caller
  /// redirects the read to the leader).
  ReplicaNode* replica_for_read(db::wal::Lsn min_lsn);

  /// Group state as JSON (the repl_status remote function's payload).
  json::Value status();

  const ReplConfig& config() const { return config_; }

 private:
  Status bootstrap_follower_locked(ReplicaNode& follower);
  Result<json::Value> leader_snapshot_locked(db::wal::Lsn* snapshot_lsn);
  Status ship_to_follower_locked(ReplicaNode& follower, PumpStats* stats);
  Status deliver_locked(ReplicaNode& follower, const ShipBatch& batch,
                        PumpStats* stats);

  const Clock& clock_;
  net::Network& network_;
  ReplConfig config_;
  FaultRegistry* faults_ = nullptr;

  mutable std::recursive_mutex mutex_;
  std::unique_ptr<ReplicaNode> leader_;
  std::map<std::string, std::unique_ptr<ReplicaNode>> followers_;
  std::vector<std::unique_ptr<ReplicaNode>> retired_;  // deposed leaders
  Epoch epoch_ = 0;
  std::map<std::string, TimePoint> caught_up_at_;  // follower -> last in-sync
  std::size_t read_rr_ = 0;  // replica_for_read round-robin position
  Duration last_failover_duration_ = 0.0;
  Duration last_bootstrap_duration_ = 0.0;
  std::uint64_t ship_seq_ = 0;  // per-send retry seed derivation
};

}  // namespace osprey::repl
