#include "osprey/eqsql/wait.h"

#include <algorithm>
#include <limits>

#include "osprey/core/retry.h"
#include "osprey/eqsql/notify.h"
#include "osprey/obs/telemetry.h"

namespace osprey::eqsql {

namespace {

/// Wait-plane instrumentation (DESIGN.md §5.10): how blocking calls end
/// their waits — a commit notification, a fallback re-probe, a timeout —
/// and how often a notification wakeup found nothing (lost the claim race).
/// Resolved once; every blocking call records through these handles.
struct WaitObs {
  obs::Counter& notify_wakeups;
  obs::Counter& spurious_wakeups;
  obs::Counter& poll_fallbacks;
  obs::Counter& wait_timeouts;
  obs::Histogram& wait_latency;

  WaitObs()
      : notify_wakeups(obs::telemetry().metrics.counter(
            "osprey_eqsql_notify_wakeups_total")),
        spurious_wakeups(obs::telemetry().metrics.counter(
            "osprey_eqsql_spurious_wakeups_total")),
        poll_fallbacks(obs::telemetry().metrics.counter(
            "osprey_eqsql_poll_fallbacks_total")),
        wait_timeouts(obs::telemetry().metrics.counter(
            "osprey_eqsql_wait_timeouts_total")),
        wait_latency(obs::telemetry().metrics.histogram(
            "osprey_eqsql_wait_latency_seconds")) {}
};

}  // namespace

const char* wait_strategy_name(WaitStrategy s) {
  switch (s) {
    case WaitStrategy::kAuto: return "auto";
    case WaitStrategy::kNotify: return "notify";
    case WaitStrategy::kPoll: return "poll";
  }
  return "?";
}

NotifierChannel::NotifierChannel(Notifier& notifier, WorkType eq_type)
    : notifier_(notifier), version_(notifier.work_channel(eq_type)) {}

NotifierChannel::NotifierChannel(Notifier& notifier)
    : notifier_(notifier), version_(notifier.result_channel()) {}

bool NotifierChannel::wait_past(std::uint64_t seen, Duration timeout) {
  return notifier_.wait_past(version_, seen, timeout);
}

Status wait_until(const WaitSpec& wait, const Clock& clock,
                  const Sleeper& sleeper, WaitChannel* channel,
                  const WaitProbe& probe,
                  const TimeoutMessage& timeout_message) {
  static WaitObs o;
  // Poll delays as a RetryState over the shared RetryPolicy: the k-th empty
  // probe waits delay * backoff^(k-1), capped at max_delay. Attempts are
  // unbounded — the deadline is what ends the loop. In notify mode the same
  // sequence paces the fallback re-probes.
  RetryPolicy policy;
  policy.max_attempts = std::numeric_limits<int>::max();
  policy.initial_backoff = wait.poll_delay;
  policy.multiplier = wait.poll_backoff;
  policy.max_backoff = wait.poll_max_delay;
  policy.jitter = 0.0;
  policy.budget = 0.0;
  RetryState delays(policy, 0, "eqsql.poll");
  const TimePoint deadline = clock.now() + wait.timeout;
  obs::Stopwatch waited;
  bool woke_by_notify = false;
  while (true) {
    // Version before the probe: a commit landing between probe and wait
    // moves the channel past `seen`, so the wait returns immediately — the
    // probe/block race can cost a fast re-probe, never a lost wakeup.
    const std::uint64_t seen = channel ? channel->version() : 0;
    Result<ProbeOutcome> outcome = probe();
    if (!outcome.ok()) return outcome.error();
    if (outcome.value() == ProbeOutcome::kDone) {
      if (obs::enabled()) obs::observe_latency(o.wait_latency, waited);
      return Status::ok();
    }
    if (obs::enabled() && woke_by_notify) {
      o.spurious_wakeups.inc();  // signaled, but the probe still came up empty
    }
    Duration delay = wait.poll_delay;
    delays.next_delay(&delay);
    // Notify mode re-probes up to the deadline; poll mode never sleeps past it.
    const TimePoint now = clock.now();
    if (channel ? now >= deadline : now + delay > deadline) {
      if (obs::enabled()) o.wait_timeouts.inc();
      return Status(ErrorCode::kTimeout, timeout_message());
    }
    if (!channel) {
      sleeper(delay);
      continue;
    }
    const Duration remaining = deadline - now;
    woke_by_notify = channel->wait_past(
        seen, delay > 0.0 ? std::min(delay, remaining) : remaining);
    if (obs::enabled()) {
      (woke_by_notify ? o.notify_wakeups : o.poll_fallbacks).inc();
    }
  }
}

}  // namespace osprey::eqsql
