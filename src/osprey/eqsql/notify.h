// The commit-driven notification plane (DESIGN.md §5.10).
//
// Every blocking wait in the EQSQL surface used to be a (delay, timeout)
// poll loop, flooring task-cycle latency at the poll delay and hammering the
// database with no-op claims at idle. The Notifier removes the floor at the
// source: it chains onto the database's CommitObserver — the same hook the
// WAL uses for durability — and scans each committed journal for the three
// events waiters care about:
//
//   - an insert into eq_output_queue (submit_task / requeue): work arrived
//     for that row's work type → bump that type's work channel;
//   - an insert into eq_input_queue (report_task): a result arrived → bump
//     the result channel and remember the task id;
//   - an eq_tasks update whose post-state is 'canceled' (cancel_tasks): a
//     result waiter must give up → also a result-channel event.
//
// Each channel is a monotonically increasing version counter. Waiters sample
// the version, probe the database, and only then block on "version changed"
// — so a wakeup between probe and block is never lost. Blocking comes in two
// flavors matching the two runtimes:
//
//   - wait_past: a condition-variable wait for threaded callers, reached
//     through NotifierChannel by the shared wait loop (wait.h);
//   - on_work / on_result listeners: synchronous callbacks fired from the
//     commit path, which the simulation turns into zero-delay scheduled
//     events so chaos and replay runs stay bit-deterministic.
//
// Locking (kept acyclic — see the commit-path order below): channels_mutex_
// guards the channel map only; wait_mutex_ guards nothing but the cv sleep
// (versions are atomics); listener_mutex_ serializes listener invocation so
// remove_listener() returning guarantees no callback is in flight. The
// commit path runs under the database mutex and takes, in order:
// channels_mutex_ (briefly), wait_mutex_ (briefly), listener_mutex_ (for
// the callbacks, which may take a pool mutex). Waiters take only
// wait_mutex_; pools therefore must not hold their own mutex while calling
// Notifier registration methods or any database operation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "osprey/db/database.h"
#include "osprey/eqsql/wait.h"
#include "osprey/obs/telemetry.h"

namespace osprey::eqsql {

class Notifier : public db::CommitObserver {
 public:
  using ListenerId = std::uint64_t;

  Notifier();
  ~Notifier() override;

  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  /// Install onto `db`, wrapping any observer already there (the WAL): the
  /// inner observer keeps its veto — it runs first, and a veto suppresses
  /// both the commit and the notifications. Re-attach after swapping the
  /// inner observer (EmewsService does this when WAL is enabled later).
  void attach(db::Database& db);

  /// Restore the wrapped observer. Safe to call when not attached; a no-op
  /// if someone else replaced us (they own the slot now).
  void detach();

  bool attached() const { return db_ != nullptr; }

  // --- channels --------------------------------------------------------------

  /// The version counter for a work type's "tasks queued" channel. The
  /// returned reference is stable for the Notifier's lifetime (channels are
  /// never removed), so pools may cache it and read it lock-free while
  /// holding their own locks.
  const std::atomic<std::uint64_t>& work_channel(WorkType eq_type);

  /// The version counter for the global "result or cancellation landed"
  /// channel.
  const std::atomic<std::uint64_t>& result_channel() const {
    return result_version_;
  }

  std::uint64_t work_version(WorkType eq_type) {
    return work_channel(eq_type).load(std::memory_order_acquire);
  }

  std::uint64_t result_version() const {
    return result_version_.load(std::memory_order_acquire);
  }

  // --- blocking waits (threaded runtime) -------------------------------------

  /// Block until `channel` — one of this notifier's work or result channel
  /// counters — moves past `seen` or `timeout` (real time) elapses. Returns
  /// true when the version moved. Protocol: sample the version, probe the
  /// database, then wait — the version predicate makes a signal between
  /// probe and wait a fast return, never a lost wakeup.
  bool wait_past(const std::atomic<std::uint64_t>& channel, std::uint64_t seen,
                 Duration timeout);

  // --- listeners (simulation runtime and pools) ------------------------------

  /// Register a callback fired whenever work of `eq_type` is committed. The
  /// callback runs on the committing thread, under the database mutex and
  /// listener_mutex_: keep it O(1) — set a flag, notify a cv, or schedule a
  /// simulation event; never call back into the database.
  ListenerId on_work(WorkType eq_type, std::function<void()> fn);

  /// Register a callback fired once per committed result or cancellation,
  /// with the task id. Same execution context and rules as on_work.
  ListenerId on_result(std::function<void(TaskId)> fn);

  /// Unregister. On return the callback is not running and never will again
  /// (invocation is serialized under the same lock).
  void remove_listener(ListenerId id);

  // --- introspection ---------------------------------------------------------

  std::uint64_t commits_seen() const {
    return commits_seen_.load(std::memory_order_relaxed);
  }
  std::uint64_t work_signals() const {
    return work_signals_.load(std::memory_order_relaxed);
  }
  std::uint64_t result_signals() const {
    return result_signals_.load(std::memory_order_relaxed);
  }

  // --- CommitObserver --------------------------------------------------------

  Status on_commit(db::Database& db,
                   const std::vector<db::UndoRecord>& journal) override;
  Status on_create_table(const db::Table& table) override;
  Status on_drop_table(const std::string& name) override;
  Status on_create_index(const std::string& table,
                         const std::string& spec) override;

 private:
  struct WorkChannel {
    std::atomic<std::uint64_t> version{0};
  };

  struct Listener {
    WorkType eq_type = 0;                // valid when work is set
    std::function<void()> work;          // exactly one of work/result is set
    std::function<void(TaskId)> result;
  };

  WorkChannel& channel(WorkType eq_type);

  db::Database* db_ = nullptr;
  db::CommitObserver* inner_ = nullptr;  // wrapped observer (the WAL), may be null

  mutable std::mutex channels_mutex_;
  std::unordered_map<WorkType, std::unique_ptr<WorkChannel>> channels_;
  std::atomic<std::uint64_t> result_version_{0};

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;

  std::mutex listener_mutex_;
  std::map<ListenerId, Listener> listeners_;  // ordered => deterministic firing
  ListenerId next_listener_id_ = 1;

  std::atomic<std::uint64_t> commits_seen_{0};
  std::atomic<std::uint64_t> work_signals_{0};
  std::atomic<std::uint64_t> result_signals_{0};

  obs::Counter& obs_commits_;
  obs::Counter& obs_work_signals_;
  obs::Counter& obs_result_signals_;
};

}  // namespace osprey::eqsql
