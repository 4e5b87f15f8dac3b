// Shard keys and the global task-id encoding (DESIGN.md §5.11).
//
// The paper's multi-pool design (§IV-D) already partitions a campaign by
// work type — each worker pool consumes exactly one type — which makes the
// work type the natural shard key: every single-key operation a pool issues
// (claim, report) lands on one shard, and only the ME-side collection
// operations (as_completed, stats) ever fan out. Experiment-id keying is the
// alternative for deployments that colocate a whole campaign per shard.
//
// Task ids stay unique across shards without coordination: each shard's
// database allocates dense local ids from its own sequence row, and the
// router folds the owning shard into the id's high bits. Shard 0 encodes to
// the identity, so a 1-shard deployment emits byte-identical ids to the
// unsharded service.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "osprey/core/types.h"

namespace osprey::shard {

/// Index of a shard within a cluster (dense, 0-based).
using ShardId = std::uint32_t;

/// Which task attribute the shard key is derived from.
enum class ShardKeyKind {
  /// Work type (§IV-D): a pool's whole claim/report traffic hits one shard.
  kWorkType,
  /// Experiment id: a campaign's tasks colocate on one shard.
  kExpId,
};

/// How the key maps to a shard.
enum class ShardScheme {
  /// FNV-1a hash of the key, mod shard_count. Spreads any key set evenly.
  kHash,
  /// Contiguous ranges: shard = (key / range_width) % shard_count. Keeps
  /// adjacent work types together (operators number related types densely).
  kRange,
};

const char* shard_key_kind_name(ShardKeyKind kind);
const char* shard_scheme_name(ShardScheme scheme);

/// The sharding configuration: how many shards and how keys map to them.
struct ShardSpec {
  std::uint32_t shard_count = 1;
  ShardKeyKind key = ShardKeyKind::kWorkType;
  ShardScheme scheme = ShardScheme::kHash;
  /// Range-scheme block width (work types per contiguous block). Ignored
  /// under kHash and for kExpId keys (strings always hash).
  std::uint32_t range_width = 16;
};

/// FNV-1a over arbitrary bytes — the deterministic, dependency-free hash
/// behind kHash keying (stable across platforms and runs).
std::uint64_t fnv1a(const void* data, std::size_t size);
std::uint64_t fnv1a(const std::string& s);

/// The shard owning a work type under `spec`.
ShardId shard_of_work_type(const ShardSpec& spec, WorkType eq_type);

/// The shard owning an experiment id under `spec` (always hashed: experiment
/// ids are strings with no meaningful adjacency).
ShardId shard_of_exp(const ShardSpec& spec, const ExpId& exp_id);

/// Dispatch on spec.key: the shard a (work type, experiment) pair routes to.
ShardId shard_for(const ShardSpec& spec, WorkType eq_type, const ExpId& exp_id);

/// The order a scatter probes `count` shards in: shard `start % count`
/// first, then each other shard once, wrapping. Callers advance `start` per
/// scatter, so no shard is always probed first and none starves.
std::vector<ShardId> rotation_order(std::uint64_t start, std::uint32_t count);

// --- global task-id encoding -------------------------------------------------
//
// global = local | (shard << kShardIdShift). Local ids are dense per-shard
// sequence values (< 2^48); the shard index occupies 10 bits well below the
// sign bit. Shard 0 is the identity encoding, so single-shard deployments
// and unsharded services agree on every id.

inline constexpr int kShardIdShift = 48;
inline constexpr int kShardIdBits = 10;
inline constexpr std::uint32_t kMaxShards = 1u << kShardIdBits;  // 1024

/// Fold `shard` into a shard-local task id.
constexpr TaskId global_task_id(TaskId local, ShardId shard) {
  return local | (static_cast<TaskId>(shard) << kShardIdShift);
}

/// The shard index encoded in a global task id (0 for unsharded ids).
constexpr ShardId shard_of_task(TaskId global) {
  return static_cast<ShardId>((global >> kShardIdShift) &
                              ((TaskId{1} << kShardIdBits) - 1));
}

/// Strip the shard bits: the id the owning shard's database knows.
constexpr TaskId local_task_id(TaskId global) {
  return global & ((TaskId{1} << kShardIdShift) - 1);
}

/// Merge per-shard completed-id streams into one result stream: round-robin
/// across shards (so no shard starves the merge) preserving each shard's
/// discovery order, deduplicating ids — a result that surfaces on two
/// shards' merge paths (a retried scatter overlapping a slow first reply)
/// is delivered exactly once. At most `limit` ids are returned (0 = all).
std::vector<TaskId> merge_completed(
    const std::vector<std::vector<TaskId>>& per_shard, std::size_t limit);

}  // namespace osprey::shard
