// The batch/threshold query policy of §IV-D — the logic behind Fig. 3.
//
// "These queries allow a worker pool to request up to n number of tasks (a
// query batch size) to consume at a time, while accounting for the number of
// tasks a worker pool already has obtained but have not completed. So, for
// example, if a worker pool is configured to possess 33 tasks at a time, if
// it owns 30 uncompleted tasks when querying the output queue, it will only
// obtain 3 additional tasks. This can be tweaked using a threshold value
// that specifies how large the deficit between requested tasks and owned
// tasks must be before more tasks are obtained."
//
// The same policy object drives both the discrete-event pool and the
// threaded pool, so the unit tests here cover exactly the logic the figure
// benches run.
#pragma once

#include <string>

#include "osprey/core/error.h"
#include "osprey/core/types.h"

namespace osprey::pool {

class QueryPolicy {
 public:
  /// batch_size: maximum tasks the pool may own (running + cached).
  /// threshold: minimum deficit before a new query is issued.
  QueryPolicy(int batch_size, int threshold)
      : batch_size_(batch_size), threshold_(threshold) {}

  /// How many tasks to request given the number currently owned
  /// (uncompleted). Zero when the deficit is below the threshold.
  int tasks_to_request(int owned) const {
    int deficit = batch_size_ - owned;
    return deficit >= threshold_ ? deficit : 0;
  }

  int batch_size() const { return batch_size_; }
  int threshold() const { return threshold_; }

  /// Sanity-check a configuration.
  static Status validate(int batch_size, int threshold, int num_workers) {
    if (batch_size <= 0) {
      return Status(ErrorCode::kInvalidArgument, "batch_size must be positive");
    }
    if (threshold <= 0 || threshold > batch_size) {
      return Status(ErrorCode::kInvalidArgument,
                    "threshold must be in [1, batch_size]");
    }
    if (num_workers <= 0) {
      return Status(ErrorCode::kInvalidArgument, "num_workers must be positive");
    }
    return Status::ok();
  }

 private:
  int batch_size_;
  int threshold_;
};

/// Full worker-pool configuration shared by the sim and threaded drivers.
struct PoolConfig {
  PoolId name = "default";
  WorkType work_type = 0;
  int num_workers = 33;   // the paper's pools use 33 workers on 36-core nodes
  int batch_size = 33;
  int threshold = 1;
  /// How long to wait between queries when the output queue is empty.
  Duration poll_interval = 0.5;
  /// Per-consecutive-empty-poll growth factor for the poll interval (shared
  /// RetryPolicy semantics; 1.0 = fixed interval). An idle pool backs off
  /// instead of hammering the EMEWS DB; the first claimed task resets it.
  double poll_backoff = 1.0;
  /// Cap on the grown poll interval; 0 = uncapped.
  Duration poll_max_interval = 0.0;
  /// Shut the pool down after this long with nothing owned and an empty
  /// queue (pilot jobs exit when the work dries up). <=0 disables.
  Duration idle_shutdown = 0.0;
  /// Notification mode only (the pool's API has a Notifier): how often an
  /// idle pool issues a safety-net probe in case a commit wakeup was lost.
  /// 0 disables fallback probing entirely — the pool trusts wakeups and an
  /// idle pool issues no DB queries at all. Ignored in poll mode, where
  /// poll_interval governs as before.
  Duration notify_fallback = 5.0;
};

/// Poll mode: how long an idle pool waits before its next query, after
/// `empty_polls` consecutive queries that claimed nothing (0 = none yet).
/// The poll_interval grows by poll_backoff per empty poll under the shared
/// RetryPolicy schedule, capped at poll_max_interval; poll_backoff = 1.0
/// keeps the paper's fixed interval. Both pool drivers wait by this, and
/// both reset `empty_polls` when a query claims work.
Duration next_poll_delay(const PoolConfig& config, int empty_polls);

}  // namespace osprey::pool
