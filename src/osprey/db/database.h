// The embedded database: a named collection of tables with coarse-grained
// thread safety and journaled transactions.
//
// This is the stand-in for the PostgreSQL instance the paper runs on the HPC
// login node (§IV-C). The fault-tolerance story of the EMEWS DB rests on all
// task state living here — not in the ME process — so multi-table operations
// (e.g. "pop output queue + mark task running") must be atomic. Transaction
// provides that atomicity via an undo journal under a single database mutex,
// the moral equivalent of Postgres's serialized transactions at our scale.
// Like Postgres, it lets concurrent commits share one log flush: a commit
// is logged under the mutex but waits for durability after releasing it
// (group commit, DESIGN.md §5.7).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "osprey/db/table.h"

namespace osprey::db {

class Database;

/// Observer of committed mutations and DDL, installed via
/// Database::set_commit_observer. The write-ahead log (db/wal) implements
/// this to log committed state before it is acknowledged.
///
/// Every callback runs under the database mutex. on_commit is invoked from
/// Transaction::commit() while the transaction's mutations are still in
/// place (so the observer can read the post-state of every touched row) and
/// may veto the commit by returning an error, in which case the transaction
/// rolls back and commit() reports the error instead. A commit that passes
/// on_commit is logged, not yet durable: the log's DurabilityGate makes the
/// committer wait for that after it has released the mutex.
class CommitObserver {
 public:
  virtual ~CommitObserver() = default;

  /// A transaction with at least one mutation is about to commit. `journal`
  /// lists the mutations in execution order.
  virtual Status on_commit(Database& db,
                           const std::vector<UndoRecord>& journal) = 0;

  /// DDL notifications. These fire before the change takes effect; a non-OK
  /// return aborts the DDL operation. DDL is not transactional (as in most
  /// SQL engines), so these are logged immediately rather than at commit.
  virtual Status on_create_table(const Table& table) = 0;
  virtual Status on_drop_table(const std::string& name) = 0;
  /// `spec` is the index's canonical spec (db::index_spec_string).
  virtual Status on_create_index(const std::string& table,
                                 const std::string& spec) = 0;
};

/// The durability half of a commit, installed by the write-ahead log
/// (db/wal) via Database::set_durability_gate. Commits are logged under the
/// database mutex but synced after it: whoever releases its last hold on
/// the mutex after logging or reading a commit that is not yet durable
/// waits here, and one sync covers every commit logged before it began.
class DurabilityGate {
 public:
  virtual ~DurabilityGate() = default;

  /// The highest LSN logged but not yet known durable; 0 when there is
  /// none, or when the log's policy acknowledges commits before they sync.
  /// Called under the database mutex.
  virtual std::uint64_t unsynced_lsn() const = 0;
  /// unsynced_lsn(), registering a waiter when it is non-zero: the caller
  /// must then call await_durable() once, after it unlocks. Called under the
  /// database mutex, so a log detaching under that mutex can drain every
  /// waiter before it goes away.
  virtual std::uint64_t begin_wait() = 0;
  /// Block until `lsn` is durable, then end the wait begin_wait()
  /// registered. kUnavailable when the sync that was to cover it failed.
  virtual Status await_durable(std::uint64_t lsn) = 0;
  virtual std::uint64_t durable_lsn() const = 0;
  /// True once a sync has failed: the log refuses every later write until
  /// it is reopened, and the database rolls back what never became durable.
  virtual bool failed() const = 0;
  /// The error a failed sync closed the log with (ok while it is open).
  virtual Status failure() const = 0;
};

/// A hold on the database mutex that knows whether it is its thread's
/// outermost one. Transaction and sql::Connection::execute hold the mutex
/// through this, and call await_durable() before returning what they did
/// under it, so no call returns data a crash could take back.
class DatabaseLock {
 public:
  explicit DatabaseLock(Database& db);
  /// Unlocks without waiting: a caller that fails returns nothing it read.
  ~DatabaseLock();

  DatabaseLock(const DatabaseLock&) = delete;
  DatabaseLock& operator=(const DatabaseLock&) = delete;

  /// Make sure everything this hold saw is durable. When this is the
  /// outermost hold and commits are logged but not durable, unlock, then
  /// wait for the highest LSN logged at that moment; kUnavailable after a
  /// failed sync, with everything not durable rolled back. Otherwise (an
  /// inner hold, no DurabilityGate, nothing pending) keep holding, and the
  /// destructor unlocks as before.
  Status await_durable();

 private:
  void unlock();

  Database& db_;
  bool held_ = true;
};

/// RAII transaction guard. Holds the database lock until destruction, or
/// until commit() must wait for durability; commit() keeps the mutations,
/// destruction without commit rolls them back.
class Transaction {
 public:
  explicit Transaction(Database& db);
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Keep all mutations made during this transaction. When a CommitObserver
  /// is installed it sees the journal first and may veto: on veto the
  /// mutations are rolled back and the observer's error is returned. A
  /// logged commit not yet durable makes commit() release the lock and
  /// wait for the sync (DatabaseLock::await_durable); a failed sync rolls it
  /// back and returns kUnavailable, so a write that cannot be made durable
  /// is never acknowledged. Nested in an outer hold (execute's "COMMIT",
  /// say), the outer hold waits instead. Code after commit() must not rely
  /// on still holding the lock.
  Status commit();

  /// Undo all mutations made so far (also done on destruction if not
  /// committed).
  void rollback();

  bool committed() const { return committed_; }

 private:
  Database& db_;
  DatabaseLock lock_;
  std::vector<UndoRecord> journal_;
  bool committed_ = false;
  bool finished_ = false;
};

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Create a table. Fails with kConflict when the name is taken.
  Result<Table*> create_table(const std::string& name, Schema schema);

  /// Drop a table (kNotFound when absent). Not journaled: DDL is not
  /// transactional, as in most SQL engines.
  Status drop_table(const std::string& name);

  /// Look up a table; nullptr when absent.
  Table* table(const std::string& name);
  const Table* table(const std::string& name) const;

  std::vector<std::string> table_names() const;

  /// Install (or with nullptr remove) the commit/DDL observer — the hook the
  /// write-ahead log uses to see every committed mutation. The observer must
  /// outlive the database or be detached first.
  void set_commit_observer(CommitObserver* observer);
  CommitObserver* commit_observer() const { return observer_; }

  /// Install (or with nullptr remove) the write-ahead log's durability
  /// gate. Removing it drops the journals kept for commits not yet durable.
  void set_durability_gate(DurabilityGate* gate);
  DurabilityGate* durability_gate() const { return gate_; }

  /// Row-store factory applied to tables created from here on (the storage
  /// engine seam, DESIGN.md §5.12). Returning nullptr from the factory — or
  /// never installing one — selects the default in-memory MemStore. The
  /// factory's backing engine must outlive every table it built a store for.
  using StoreFactory =
      std::function<std::unique_ptr<storage::RowStore>(const std::string&)>;
  void set_store_factory(StoreFactory factory);

  /// True while a Transaction is open (its undo journal is attached). Used
  /// by the SQL layer to decide whether a standalone DML statement must wrap
  /// itself in an implicit transaction.
  bool in_transaction() const;

  /// The database-wide lock. Public so code outside Transaction and
  /// execute() can serialize itself; such a hold is not a DatabaseLock, so
  /// releasing it waits for nothing.
  std::recursive_mutex& mutex() const { return mutex_; }

 private:
  friend class DatabaseLock;
  friend class Transaction;

  /// A committed transaction's journal, kept until the log covering it is
  /// durable: a failed sync undoes it.
  struct Unsynced {
    std::uint64_t lsn;
    std::vector<UndoRecord> journal;
  };

  void attach_journal(std::vector<UndoRecord>* journal);
  void detach_journal();
  void apply_undo(const std::vector<UndoRecord>& journal);
  /// Keep a just-logged transaction's journal while the gate has commits
  /// that are not durable, dropping those kept journals that now are.
  void keep_unsynced_locked(std::vector<UndoRecord>& journal);
  /// After a failed sync: undo every kept journal past the durable LSN,
  /// newest first. Returns whether it undid anything.
  bool roll_back_unsynced_locked();

  std::map<std::string, std::unique_ptr<Table>> tables_;
  mutable std::recursive_mutex mutex_;
  CommitObserver* observer_ = nullptr;
  DurabilityGate* gate_ = nullptr;
  StoreFactory store_factory_;
  bool journal_attached_ = false;
  int holds_ = 0;  // nesting depth of the owning thread's DatabaseLocks
  std::deque<Unsynced> unsynced_;  // in LSN order
};

}  // namespace osprey::db
