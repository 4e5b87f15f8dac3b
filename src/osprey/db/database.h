// The embedded database: a named collection of tables with coarse-grained
// thread safety and journaled transactions.
//
// This is the stand-in for the PostgreSQL instance the paper runs on the HPC
// login node (§IV-C). The fault-tolerance story of the EMEWS DB rests on all
// task state living here — not in the ME process — so multi-table operations
// (e.g. "pop output queue + mark task running") must be atomic. Transaction
// provides that atomicity via an undo journal under a single database mutex,
// the moral equivalent of Postgres's serialized transactions at our scale.
#pragma once

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
/// this to make committed state durable before it is acknowledged.
///
/// Every callback runs under the database mutex. on_commit is invoked from
/// Transaction::commit() while the transaction's mutations are still in
/// place (so the observer can read the post-state of every touched row) and
/// may veto the commit by returning an error, in which case the transaction
/// rolls back and commit() reports the error instead.
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

/// RAII transaction guard. Holds the database lock for its lifetime; commit()
/// keeps the mutations, destruction without commit rolls them back.
class Transaction {
 public:
  explicit Transaction(Database& db);
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Keep all mutations made during this transaction. When a CommitObserver
  /// is installed it sees the journal first and may veto: on veto the
  /// mutations are rolled back and the observer's error is returned, so a
  /// write that cannot be made durable is never acknowledged.
  Status commit();

  /// Undo all mutations made so far (also done on destruction if not
  /// committed).
  void rollback();

  bool committed() const { return committed_; }

 private:
  Database& db_;
  std::unique_lock<std::recursive_mutex> lock_;
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

  /// The database-wide lock. Public so single statements outside an explicit
  /// Transaction can serialize themselves (execute() does this).
  std::recursive_mutex& mutex() const { return mutex_; }

 private:
  friend class Transaction;

  void attach_journal(std::vector<UndoRecord>* journal);
  void detach_journal();
  void apply_undo(const std::vector<UndoRecord>& journal);

  std::map<std::string, std::unique_ptr<Table>> tables_;
  mutable std::recursive_mutex mutex_;
  CommitObserver* observer_ = nullptr;
  StoreFactory store_factory_;
  bool journal_attached_ = false;
};

}  // namespace osprey::db
