#include "osprey/db/database.h"

#include <cassert>

namespace osprey::db {

Transaction::Transaction(Database& db) : db_(db), lock_(db.mutex()) {
  db_.attach_journal(&journal_);
}

Transaction::~Transaction() {
  if (!finished_) rollback();
}

Status Transaction::commit() {
  assert(!finished_ && "commit on finished transaction");
  if (finished_) {
    return Status(ErrorCode::kConflict, "commit on finished transaction");
  }
  if (db_.observer_ && !journal_.empty()) {
    // Durability gate: the observer (WAL) must persist the mutations before
    // they are acknowledged. On failure the transaction rolls back so memory
    // never gets ahead of the log.
    Status logged = db_.observer_->on_commit(db_, journal_);
    if (!logged.is_ok()) {
      rollback();
      return logged;
    }
  }
  db_.detach_journal();
  journal_.clear();
  committed_ = true;
  finished_ = true;
  return Status::ok();
}

void Transaction::rollback() {
  if (finished_) return;
  db_.detach_journal();
  db_.apply_undo(journal_);
  journal_.clear();
  finished_ = true;
}

Result<Table*> Database::create_table(const std::string& name, Schema schema) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  if (tables_.count(name)) {
    return Error(ErrorCode::kConflict, "table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(
      name, std::move(schema), store_factory_ ? store_factory_(name) : nullptr);
  if (observer_) {
    Status logged = observer_->on_create_table(*table);
    if (!logged.is_ok()) return logged.error();
  }
  // Index creations on this table report back here so the observer sees
  // them (the implicit primary-key index is part of create_table itself).
  table->set_index_hook([this, name](const std::string& spec) {
    return observer_ ? observer_->on_create_index(name, spec) : Status::ok();
  });
  Table* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

Status Database::drop_table(const std::string& name) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status(ErrorCode::kNotFound, "no table '" + name + "'");
  }
  if (observer_) {
    Status logged = observer_->on_drop_table(name);
    if (!logged.is_ok()) return logged;
  }
  tables_.erase(it);
  return Status::ok();
}

void Database::set_commit_observer(CommitObserver* observer) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  observer_ = observer;
}

void Database::set_store_factory(StoreFactory factory) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  store_factory_ = std::move(factory);
}

bool Database::in_transaction() const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  return journal_attached_;
}

Table* Database::table(const std::string& name) {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(const std::string& name) const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::table_names() const {
  std::lock_guard<std::recursive_mutex> guard(mutex_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

void Database::attach_journal(std::vector<UndoRecord>* journal) {
  for (auto& [_, table] : tables_) table->attach_journal(journal);
  journal_attached_ = true;
}

void Database::detach_journal() {
  for (auto& [_, table] : tables_) table->detach_journal();
  journal_attached_ = false;
}

void Database::apply_undo(const std::vector<UndoRecord>& journal) {
  // Reverse order: later mutations are undone first.
  for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
    Table* t = table(it->table);
    assert(t && "journaled table disappeared");
    if (!t) continue;
    switch (it->kind) {
      case UndoRecord::Kind::kInsert:
        t->erase_row(it->row_id);
        t->release_row_id(it->row_id);
        break;
      case UndoRecord::Kind::kUpdate: {
        Status s = t->update_row(it->row_id, it->old_row);
        assert(s.is_ok());
        (void)s;
        break;
      }
      case UndoRecord::Kind::kDelete: {
        Status s = t->restore_row(it->row_id, it->old_row);
        assert(s.is_ok());
        (void)s;
        break;
      }
    }
  }
}

}  // namespace osprey::db
