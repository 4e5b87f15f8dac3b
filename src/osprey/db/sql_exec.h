// SQL execution against a Database: the "connection" layer the EQSQL API
// speaks, standing in for the paper's Postgres client library.
//
// Connection::execute parses, plans, and runs one statement under the
// database lock. Statements may carry '?' bind parameters. Parsed statements
// are cached by SQL text, so the hot EMEWS queries (§IV-C) parse once. The
// cache never evicts: a caller that builds statement text per call (say, an
// IN list per list length) grows it without bound.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "osprey/db/database.h"
#include "osprey/db/sql_ast.h"

namespace osprey::db::sql {

/// Result of executing one statement.
struct ExecResult {
  /// SELECT: selected rows (projected columns in query order).
  std::vector<Row> rows;
  /// SELECT: names of the projected columns.
  std::vector<std::string> column_names;
  /// INSERT / UPDATE / DELETE: number of rows affected.
  std::size_t affected = 0;
  /// INSERT: engine row id of the inserted row.
  RowId last_insert_id = 0;
};

class Connection {
 public:
  explicit Connection(Database& db) : db_(db) {}

  /// Execute one SQL statement with optional bind parameters.
  /// When a Transaction created via begin() is open, statements join it;
  /// otherwise each statement is atomic on its own.
  Result<ExecResult> execute(const std::string& sql,
                             const std::vector<Value>& params = {});

  /// Open an explicit transaction (equivalent to executing "BEGIN").
  Status begin();
  /// Commit / roll back the open transaction.
  Status commit();
  Status rollback();
  bool in_transaction() const { return txn_ != nullptr; }

  Database& database() { return db_; }

  /// Number of distinct statement texts parsed and cached so far.
  std::size_t cached_statements() const;

 private:
  Result<ExecResult> run(const Statement& stmt, const std::vector<Value>& params);
  Result<ExecResult> run_select(const SelectStmt& stmt,
                                const std::vector<Value>& params);

  const Statement* cached_parse(const std::string& sql, Error* error);

  Database& db_;
  std::unique_ptr<Transaction> txn_;
  std::unordered_map<std::string, Statement> statement_cache_;
  mutable std::mutex cache_mutex_;
};

}  // namespace osprey::db::sql
