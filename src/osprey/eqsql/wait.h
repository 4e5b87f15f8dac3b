// The unified wait API: one WaitSpec for every blocking EQSQL call.
//
// The paper's Listing-1 API threads a (delay, timeout) pair through every
// blocking call, and the first four PRs grew three overlapping knobs around
// it — a poll-cadence struct, a loose Sleeper constructor parameter, and a
// ResultPeeker setter. WaitSpec and WaitRouting collapse those into one
// surface:
//
//   - WaitSpec says *how long* to wait and *how* — commit-driven
//     notifications (see notify.h) with a poll fallback, or pure polling,
//     which preserves the paper's (delay, timeout) contract as the degraded
//     mode for remote and replica paths that have no commit hook.
//   - WaitRouting says *where* the waiting machinery plugs in: the sleeper
//     used by poll-mode waits, the replica-servable result probe, and the
//     Notifier whose commit wakeups end the wait early.
//   - wait_until is the one blocking loop behind every one of those calls:
//     EQSQL::query_task / query_result, eqsql::as_completed (and so
//     pop_completed), ShardRouter::query_task / as_completed, and the C
//     API's claim. Each caller supplies only a probe and, in notify mode, a
//     WaitChannel to block on.
//
// The positional WaitSpec(delay, timeout) constructor keeps the paper's
// `query_result(id, {delay, timeout})` call shape compiling with its exact
// polling behavior.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "osprey/core/clock.h"
#include "osprey/core/error.h"
#include "osprey/core/types.h"
#include "osprey/eqsql/task.h"

namespace osprey::eqsql {

class Notifier;

/// How blocking queries wait between probes (deprecated alias home: this
/// used to live in db_api.h; it is now part of the wait surface).
using Sleeper = std::function<void(Duration)>;

/// Read-only completion probe used by result waits when read routing is
/// configured (see WaitRouting::peeker): returns the result payload if the
/// task is complete, kNotFound ("task not complete") while it is not, and
/// kCanceled for canceled tasks — the same contract as EQSQL::peek_result,
/// but the probe may be served by a read replica.
using ResultPeeker = std::function<Result<std::string>(TaskId)>;

/// How a blocking call should wait.
enum class WaitStrategy {
  /// Notify when the API has a Notifier attached, else poll. The default:
  /// call sites get commit-driven wakeups the moment the notification plane
  /// is enabled, with zero code changes.
  kAuto,
  /// Block on commit-driven wakeups (requires an attached Notifier), with
  /// the poll cadence as a fallback re-check so a missed wakeup degrades to
  /// the old polling latency instead of hanging.
  kNotify,
  /// Pure (delay, timeout) polling — the paper's Listing-1 behavior and the
  /// degraded mode for remote/replica paths with no commit hook.
  kPoll,
};

const char* wait_strategy_name(WaitStrategy s);

/// The one wait knob: strategy + deadline + poll-fallback cadence. Braced
/// `{delay, timeout}` call sites get strategy kPoll via the positional
/// constructor and behave exactly like the paper's polling loop.
struct WaitSpec {
  WaitStrategy strategy = WaitStrategy::kAuto;
  /// Overall deadline; kTimeout on expiry, matching the paper's
  /// {'type':'status','payload':'TIMEOUT'} protocol.
  Duration timeout = 2.0;
  /// Poll cadence: the delay between probes in kPoll mode, and the fallback
  /// re-check slice in kNotify mode (a lost wakeup costs one slice).
  Duration poll_delay = 0.5;
  /// Per-empty-probe delay growth factor (1.0 = fixed delay).
  double poll_backoff = 1.0;
  /// Cap on grown delays; 0 = uncapped (the timeout still bounds waiting).
  Duration poll_max_delay = 0.0;

  WaitSpec() = default;

  /// Positional (delay, timeout[, backoff[, max_delay]]) — the paper's
  /// argument order, so braced `{delay, timeout}` call sites keep compiling
  /// and keep their exact polling behavior.
  WaitSpec(Duration delay, Duration deadline, double backoff = 1.0,
           Duration max_delay = 0.0)
      : strategy(WaitStrategy::kPoll),
        timeout(deadline),
        poll_delay(delay),
        poll_backoff(backoff),
        poll_max_delay(max_delay) {}

  static WaitSpec notify(Duration timeout) {
    WaitSpec spec;
    spec.strategy = WaitStrategy::kNotify;
    spec.timeout = timeout;
    return spec;
  }

  static WaitSpec poll(Duration delay, Duration timeout) {
    WaitSpec spec;
    spec.strategy = WaitStrategy::kPoll;
    spec.poll_delay = delay;
    spec.timeout = timeout;
    return spec;
  }

  /// The strategy this spec resolves to against a (possibly null) notifier:
  /// kAuto picks kNotify when a notifier is attached, else kPoll.
  WaitStrategy resolve(const Notifier* notifier) const {
    if (strategy == WaitStrategy::kPoll) return WaitStrategy::kPoll;
    if (notifier != nullptr) return WaitStrategy::kNotify;
    return WaitStrategy::kPoll;
  }
};

/// Where the waiting machinery plugs in. This replaced the loose Sleeper
/// constructor parameter and the EQSQL::set_result_peeker knob; route all
/// three pieces through EQSQL::set_wait_routing.
struct WaitRouting {
  /// How poll-mode waits sleep. Defaults to a real sleep; the simulation
  /// injects a virtual-time sleeper; tests inject clock-advancing fakes.
  Sleeper sleeper;
  /// Remote/replica-servable result probe for result waits; unset = every
  /// probe runs against the local database (single-node behavior).
  ResultPeeker peeker;
  /// Commit-driven wakeups; nullptr = poll-only (kNotify resolves to kPoll
  /// via WaitSpec::resolve). The notifier must outlive the EQSQL handle.
  Notifier* notifier = nullptr;
};

/// A wakeup source for wait_until: a version counter that moves whenever a
/// commit may have changed a probe's answer. Sample version() before the
/// probe and wait past it after, so a commit landing between the two makes
/// the wait return at once instead of being lost.
class WaitChannel {
 public:
  WaitChannel() = default;
  WaitChannel(const WaitChannel&) = delete;
  WaitChannel& operator=(const WaitChannel&) = delete;
  virtual ~WaitChannel() = default;

  virtual std::uint64_t version() const = 0;

  /// Block until the version moves past `seen` or `timeout` (real time)
  /// elapses; true when the version moved.
  virtual bool wait_past(std::uint64_t seen, Duration timeout) = 0;
};

/// One Notifier channel as a WaitChannel: a work type's "tasks queued"
/// channel, or (no type given) the "result or cancellation landed" channel.
/// The notifier must outlive the channel.
class NotifierChannel final : public WaitChannel {
 public:
  NotifierChannel(Notifier& notifier, WorkType eq_type);
  explicit NotifierChannel(Notifier& notifier);

  std::uint64_t version() const override {
    return version_.load(std::memory_order_acquire);
  }
  bool wait_past(std::uint64_t seen, Duration timeout) override;

 private:
  Notifier& notifier_;
  const std::atomic<std::uint64_t>& version_;
};

/// What one probe of a blocking wait found (a failure is the Result's error).
enum class ProbeOutcome { kDone, kNotYet };

using WaitProbe = std::function<Result<ProbeOutcome>()>;

/// Builds a timed-out wait's error message from the caller's state then.
using TimeoutMessage = std::function<std::string()>;

/// The blocking-wait loop every blocking call shares. Each round samples the
/// channel's version, runs `probe`, and only then blocks: on `channel` for
/// at most one poll slice (notify mode), or without one on `sleeper` for the
/// poll delay. Delays grow by poll_backoff per empty probe, capped at
/// poll_max_delay. Returns OK on kDone, the probe's error as soon as it
/// fails, and kTimeout with `timeout_message()` once `wait.timeout` (on
/// `clock`) runs out. Records the osprey_eqsql_wait_* telemetry.
Status wait_until(const WaitSpec& wait, const Clock& clock,
                  const Sleeper& sleeper, WaitChannel* channel,
                  const WaitProbe& probe,
                  const TimeoutMessage& timeout_message);

}  // namespace osprey::eqsql
