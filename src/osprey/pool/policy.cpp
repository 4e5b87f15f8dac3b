#include "osprey/pool/policy.h"

#include "osprey/core/retry.h"

namespace osprey::pool {

Duration next_poll_delay(const PoolConfig& config, int empty_polls) {
  if (config.poll_backoff <= 1.0) return config.poll_interval;
  RetryPolicy policy;
  policy.initial_backoff = config.poll_interval;
  policy.multiplier = config.poll_backoff;
  policy.max_backoff = config.poll_max_interval;
  return policy.backoff(empty_polls);
}

}  // namespace osprey::pool
