#include "osprey/eqsql/future.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "osprey/eqsql/notify.h"

namespace osprey::eqsql {

TaskFuture::TaskFuture(EQSQL& api, TaskId task_id, WorkType eq_type)
    : state_(std::make_shared<State>()) {
  state_->api = &api;
  state_->task_id = task_id;
  state_->eq_type = eq_type;
}

Result<TaskStatus> TaskFuture::status() const {
  if (!state_) return Error(ErrorCode::kInvalidArgument, "invalid future");
  if (state_->cached_result) return TaskStatus::kComplete;
  if (state_->canceled) return TaskStatus::kCanceled;
  return state_->api->task_status(state_->task_id);
}

bool TaskFuture::done() const {
  if (!state_) return false;
  if (state_->cached_result) return true;
  Result<TaskStatus> s = status();
  return s.ok() && s.value() == TaskStatus::kComplete;
}

Result<std::string> TaskFuture::try_result() {
  if (!state_) return Error(ErrorCode::kInvalidArgument, "invalid future");
  if (state_->cached_result) return *state_->cached_result;
  if (state_->canceled) {
    return Error(ErrorCode::kCanceled,
                 "task " + std::to_string(state_->task_id) + " canceled");
  }
  Result<std::string> r = state_->api->try_query_result(state_->task_id);
  if (r.ok()) state_->cached_result = r.value();
  return r;
}

Result<std::string> TaskFuture::result(WaitSpec wait) {
  if (!state_) return Error(ErrorCode::kInvalidArgument, "invalid future");
  if (state_->cached_result) return *state_->cached_result;
  if (state_->canceled) {
    return Error(ErrorCode::kCanceled,
                 "task " + std::to_string(state_->task_id) + " canceled");
  }
  Result<std::string> r = state_->api->query_result(state_->task_id, wait);
  if (r.ok()) state_->cached_result = r.value();
  return r;
}

Result<bool> TaskFuture::cancel() {
  if (!state_) return Error(ErrorCode::kInvalidArgument, "invalid future");
  if (state_->cached_result) return false;  // already resolved
  Result<std::size_t> n = state_->api->cancel_tasks({state_->task_id});
  if (!n.ok()) return n.error();
  if (n.value() > 0) state_->canceled = true;
  return n.value() > 0;
}

Result<Priority> TaskFuture::priority() const {
  if (!state_) return Error(ErrorCode::kInvalidArgument, "invalid future");
  return state_->api->task_priority(state_->task_id);
}

Status TaskFuture::set_priority(Priority priority) {
  if (!state_) return Status(ErrorCode::kInvalidArgument, "invalid future");
  Result<std::size_t> n =
      state_->api->update_priorities({state_->task_id}, {priority});
  if (!n.ok()) return n.error();
  return Status::ok();
}

Result<std::vector<std::size_t>> as_completed(std::vector<TaskFuture>& futures,
                                              std::size_t n, WaitSpec wait) {
  if (n == 0) return std::vector<std::size_t>{};
  if (futures.empty()) {
    return Error(ErrorCode::kInvalidArgument, "as_completed on no futures");
  }
  EQSQL* api = nullptr;
  std::vector<std::size_t> ready;
  std::vector<TaskId> pending_ids;
  std::unordered_map<TaskId, std::size_t> index_of;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    TaskFuture& f = futures[i];
    if (!f.valid()) continue;
    api = f.state_->api;
    if (f.state_->cached_result) {
      ready.push_back(i);  // already resolved futures count immediately
      if (ready.size() >= n) return ready;
      continue;
    }
    if (f.state_->canceled) continue;  // will never complete
    pending_ids.push_back(f.task_id());
    index_of.emplace(f.task_id(), i);
  }
  if (!api) {
    return Error(ErrorCode::kInvalidArgument, "as_completed on invalid futures");
  }

  Notifier* notifier = api->notifier();
  std::optional<NotifierChannel> channel;
  if (wait.resolve(notifier) == WaitStrategy::kNotify) channel.emplace(*notifier);
  Status waited = wait_until(
      wait, api->clock(), [api](Duration d) { api->sleep(d); },
      channel ? &*channel : nullptr,
      [&]() -> Result<ProbeOutcome> {
        if (pending_ids.empty()) {
          return Error(ErrorCode::kTimeout, "no more futures can complete");
        }
        // One batch probe for every pending future.
        Result<std::vector<TaskId>> completed = api->try_query_completed(
            pending_ids, static_cast<int>(n - ready.size()));
        if (!completed.ok()) return completed.error();
        for (TaskId id : completed.value()) {
          std::size_t idx = index_of.at(id);
          // Resolve the future's result now: the input-queue entry is
          // popped, so the cached copy is the only remaining handle to it.
          Result<std::string> r = futures[idx].try_result();
          if (!r.ok() && r.code() != ErrorCode::kCanceled) return r.error();
          ready.push_back(idx);
          pending_ids.erase(
              std::remove(pending_ids.begin(), pending_ids.end(), id),
              pending_ids.end());
        }
        return ready.size() >= n ? ProbeOutcome::kDone : ProbeOutcome::kNotYet;
      },
      [&] {
        return "only " + std::to_string(ready.size()) + " of " +
               std::to_string(n) + " futures completed in time";
      });
  if (!waited.is_ok()) return waited.error();
  return ready;
}

Result<std::vector<std::size_t>> as_completed(std::vector<TaskFuture>& futures,
                                              std::size_t n,
                                              std::optional<Duration> timeout) {
  WaitSpec wait;  // kAuto: notify when the API has a notifier, else poll
  wait.timeout =
      timeout ? *timeout : std::numeric_limits<Duration>::infinity();
  return as_completed(futures, n, wait);
}

Result<TaskFuture> pop_completed(std::vector<TaskFuture>& futures,
                                 WaitSpec wait) {
  Result<std::vector<std::size_t>> first = as_completed(futures, 1, wait);
  if (!first.ok()) return first.error();
  std::size_t idx = first.value().front();
  TaskFuture popped = futures[idx];
  futures.erase(futures.begin() + static_cast<std::ptrdiff_t>(idx));
  return popped;
}

Result<TaskFuture> pop_completed(std::vector<TaskFuture>& futures,
                                 std::optional<Duration> timeout) {
  WaitSpec wait;
  wait.timeout =
      timeout ? *timeout : std::numeric_limits<Duration>::infinity();
  return pop_completed(futures, wait);
}

Result<std::size_t> update_priority(std::vector<TaskFuture>& futures,
                                    const std::vector<Priority>& priorities) {
  if (futures.empty()) return std::size_t{0};
  std::vector<TaskId> ids;
  ids.reserve(futures.size());
  for (const TaskFuture& f : futures) {
    if (!f.valid()) {
      return Error(ErrorCode::kInvalidArgument, "invalid future in batch");
    }
    ids.push_back(f.task_id());
  }
  return futures.front().api()->update_priorities(ids, priorities);
}

Result<std::size_t> cancel(std::vector<TaskFuture>& futures) {
  if (futures.empty()) return std::size_t{0};
  std::vector<TaskId> ids;
  ids.reserve(futures.size());
  for (const TaskFuture& f : futures) {
    if (!f.valid()) {
      return Error(ErrorCode::kInvalidArgument, "invalid future in batch");
    }
    ids.push_back(f.task_id());
  }
  return futures.front().api()->cancel_tasks(ids);
}

Result<TaskFuture> submit_task_future(EQSQL& api, const ExpId& exp_id,
                                      WorkType eq_type,
                                      const std::string& payload,
                                      Priority priority,
                                      const std::string& tag) {
  Result<TaskId> id = api.submit_task(exp_id, eq_type, payload, priority, tag);
  if (!id.ok()) return id.error();
  return TaskFuture(api, id.value(), eq_type);
}

Result<std::vector<TaskFuture>> submit_task_futures(
    EQSQL& api, const ExpId& exp_id, WorkType eq_type,
    const std::vector<std::string>& payloads, Priority priority,
    const std::string& tag) {
  Result<std::vector<TaskId>> ids =
      api.submit_tasks(exp_id, eq_type, payloads, priority, tag);
  if (!ids.ok()) return ids.error();
  std::vector<TaskFuture> futures;
  futures.reserve(ids.value().size());
  for (TaskId id : ids.value()) {
    futures.emplace_back(api, id, eq_type);
  }
  return futures;
}

}  // namespace osprey::eqsql
