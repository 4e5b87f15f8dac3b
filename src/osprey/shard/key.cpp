#include "osprey/shard/key.h"

#include <unordered_set>

namespace osprey::shard {

const char* shard_key_kind_name(ShardKeyKind kind) {
  switch (kind) {
    case ShardKeyKind::kWorkType: return "work_type";
    case ShardKeyKind::kExpId: return "exp_id";
  }
  return "unknown";
}

const char* shard_scheme_name(ShardScheme scheme) {
  switch (scheme) {
    case ShardScheme::kHash: return "hash";
    case ShardScheme::kRange: return "range";
  }
  return "unknown";
}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t fnv1a(const std::string& s) { return fnv1a(s.data(), s.size()); }

ShardId shard_of_work_type(const ShardSpec& spec, WorkType eq_type) {
  if (spec.shard_count <= 1) return 0;
  if (spec.scheme == ShardScheme::kRange) {
    const std::uint32_t width = spec.range_width > 0 ? spec.range_width : 1;
    const auto block = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(eq_type) / width);
    return static_cast<ShardId>(block % spec.shard_count);
  }
  const std::int64_t key = eq_type;
  return static_cast<ShardId>(fnv1a(&key, sizeof(key)) % spec.shard_count);
}

ShardId shard_of_exp(const ShardSpec& spec, const ExpId& exp_id) {
  if (spec.shard_count <= 1) return 0;
  return static_cast<ShardId>(fnv1a(exp_id) % spec.shard_count);
}

ShardId shard_for(const ShardSpec& spec, WorkType eq_type,
                  const ExpId& exp_id) {
  return spec.key == ShardKeyKind::kExpId ? shard_of_exp(spec, exp_id)
                                          : shard_of_work_type(spec, eq_type);
}

std::vector<ShardId> rotation_order(std::uint64_t start, std::uint32_t count) {
  std::vector<ShardId> order(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    order[i] = static_cast<ShardId>((start + i) % count);
  }
  return order;
}

std::vector<TaskId> merge_completed(
    const std::vector<std::vector<TaskId>>& per_shard, std::size_t limit) {
  std::vector<TaskId> merged;
  std::unordered_set<TaskId> seen;
  std::vector<std::size_t> cursor(per_shard.size(), 0);
  bool advanced = true;
  while (advanced && (limit == 0 || merged.size() < limit)) {
    advanced = false;
    for (std::size_t s = 0; s < per_shard.size(); ++s) {
      if (cursor[s] >= per_shard[s].size()) continue;
      advanced = true;
      const TaskId id = per_shard[s][cursor[s]++];
      if (!seen.insert(id).second) continue;  // duplicate across streams
      merged.push_back(id);
      if (limit != 0 && merged.size() >= limit) break;
    }
  }
  return merged;
}

}  // namespace osprey::shard
