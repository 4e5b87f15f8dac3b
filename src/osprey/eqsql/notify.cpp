#include "osprey/eqsql/notify.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "osprey/eqsql/schema.h"

namespace osprey::eqsql {

Notifier::Notifier()
    : obs_commits_(
          obs::telemetry().metrics.counter("osprey_notify_commits_total")),
      obs_work_signals_(obs::telemetry().metrics.counter(
          "osprey_notify_work_signals_total")),
      obs_result_signals_(obs::telemetry().metrics.counter(
          "osprey_notify_result_signals_total")) {}

Notifier::~Notifier() { detach(); }

void Notifier::attach(db::Database& db) {
  if (db_ == &db && db.commit_observer() == this) return;
  detach();
  db_ = &db;
  inner_ = db.commit_observer();
  db.set_commit_observer(this);
}

void Notifier::detach() {
  if (db_ == nullptr) return;
  if (db_->commit_observer() == this) db_->set_commit_observer(inner_);
  db_ = nullptr;
  inner_ = nullptr;
}

Notifier::WorkChannel& Notifier::channel(WorkType eq_type) {
  std::lock_guard<std::mutex> lock(channels_mutex_);
  std::unique_ptr<WorkChannel>& slot = channels_[eq_type];
  if (!slot) slot = std::make_unique<WorkChannel>();
  return *slot;
}

const std::atomic<std::uint64_t>& Notifier::work_channel(WorkType eq_type) {
  return channel(eq_type).version;
}

bool Notifier::wait_past(const std::atomic<std::uint64_t>& channel,
                         std::uint64_t seen, Duration timeout) {
  if (channel.load(std::memory_order_acquire) != seen) return true;
  if (timeout <= 0.0) return false;
  std::unique_lock<std::mutex> lock(wait_mutex_);
  return wait_cv_.wait_for(lock, std::chrono::duration<double>(timeout), [&] {
    return channel.load(std::memory_order_acquire) != seen;
  });
}

Notifier::ListenerId Notifier::on_work(WorkType eq_type,
                                       std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  ListenerId id = next_listener_id_++;
  Listener listener;
  listener.eq_type = eq_type;
  listener.work = std::move(fn);
  listeners_.emplace(id, std::move(listener));
  return id;
}

Notifier::ListenerId Notifier::on_result(std::function<void(TaskId)> fn) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  ListenerId id = next_listener_id_++;
  Listener listener;
  listener.result = std::move(fn);
  listeners_.emplace(id, std::move(listener));
  return id;
}

void Notifier::remove_listener(ListenerId id) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listeners_.erase(id);
}

Status Notifier::on_commit(db::Database& db,
                           const std::vector<db::UndoRecord>& journal) {
  // Logging first: the wrapped observer (the WAL) sees the journal and
  // keeps its veto. A vetoed commit rolls back and must notify no one. The
  // commit is appended, not yet durable; whoever the signals below wake
  // waits for its sync before returning anything it reads.
  if (inner_ != nullptr) {
    Status inner = inner_->on_commit(db, journal);
    if (!inner.is_ok()) return inner;
  }

  // Scan the journal for waiter-relevant events. Post-state rows are still
  // in place (on_commit runs before the transaction releases them), so the
  // row read below sees what the commit is publishing. A row inserted and
  // deleted within the same transaction has no post-state and signals no one.
  std::vector<WorkType> work_types;
  std::vector<TaskId> result_ids;
  for (const db::UndoRecord& rec : journal) {
    if (rec.kind == db::UndoRecord::Kind::kInsert &&
        rec.table == kOutputQueueTable) {
      const db::Table* table = db.table(kOutputQueueTable);
      if (table == nullptr) continue;
      std::optional<db::Row> row = table->get(rec.row_id);
      if (!row) continue;
      WorkType eq_type = static_cast<WorkType>((*row)[1].as_int());
      if (std::find(work_types.begin(), work_types.end(), eq_type) ==
          work_types.end()) {
        work_types.push_back(eq_type);
      }
    } else if (rec.kind == db::UndoRecord::Kind::kInsert &&
               rec.table == kInputQueueTable) {
      const db::Table* table = db.table(kInputQueueTable);
      if (table == nullptr) continue;
      std::optional<db::Row> row = table->get(rec.row_id);
      if (!row) continue;
      result_ids.push_back((*row)[0].as_int());
    } else if (rec.kind == db::UndoRecord::Kind::kUpdate &&
               rec.table == kTasksTable) {
      // Cancellation is a result-channel event: a waiter blocked on the
      // task must wake to observe kCanceled instead of sleeping to timeout.
      const db::Table* table = db.table(kTasksTable);
      if (table == nullptr) continue;
      std::optional<db::Row> row = table->get(rec.row_id);
      if (!row) continue;
      if ((*row)[2].as_text() == "canceled" &&
          rec.old_row[2].as_text() != "canceled") {
        result_ids.push_back((*row)[0].as_int());
      }
    }
  }

  commits_seen_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs_commits_.inc();
  if (work_types.empty() && result_ids.empty()) return Status::ok();

  // Publish versions, then wake. Bumping before taking wait_mutex_ would let
  // a waiter that already re-checked slip back to sleep between our bump and
  // notify; holding the lock across both closes that window. The fallback
  // slice in the wait loops bounds the damage of any future regression here.
  {
    std::lock_guard<std::mutex> lock(wait_mutex_);
    for (WorkType eq_type : work_types) {
      channel(eq_type).version.fetch_add(1, std::memory_order_acq_rel);
    }
    if (!result_ids.empty()) {
      result_version_.fetch_add(1, std::memory_order_acq_rel);
    }
    wait_cv_.notify_all();
  }

  work_signals_.fetch_add(work_types.size(), std::memory_order_relaxed);
  result_signals_.fetch_add(result_ids.size(), std::memory_order_relaxed);
  if (obs::enabled()) {
    if (!work_types.empty()) obs_work_signals_.inc(work_types.size());
    if (!result_ids.empty()) obs_result_signals_.inc(result_ids.size());
  }

  // Listener callbacks last, serialized so remove_listener() can guarantee
  // "never runs again". Listeners fire in registration order — in the
  // simulation that makes the schedule_in(0) events land in a deterministic
  // sequence per committing event.
  {
    std::lock_guard<std::mutex> lock(listener_mutex_);
    for (const auto& [id, listener] : listeners_) {
      (void)id;
      if (listener.work) {
        if (std::find(work_types.begin(), work_types.end(),
                      listener.eq_type) != work_types.end()) {
          listener.work();
        }
      } else if (listener.result) {
        for (TaskId task_id : result_ids) listener.result(task_id);
      }
    }
  }
  return Status::ok();
}

Status Notifier::on_create_table(const db::Table& table) {
  if (inner_ != nullptr) return inner_->on_create_table(table);
  return Status::ok();
}

Status Notifier::on_drop_table(const std::string& name) {
  if (inner_ != nullptr) return inner_->on_drop_table(name);
  return Status::ok();
}

Status Notifier::on_create_index(const std::string& table,
                                 const std::string& spec) {
  if (inner_ != nullptr) return inner_->on_create_index(table, spec);
  return Status::ok();
}

}  // namespace osprey::eqsql
