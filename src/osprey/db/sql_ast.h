// AST for the mini-SQL dialect.
//
// Supported statements (enough to express every EMEWS DB operation in §IV-C):
//   CREATE TABLE t (col TYPE [PRIMARY KEY] [NOT NULL], ...)
//   CREATE INDEX ON t (col [ASC|DESC], ...)
//   DROP TABLE t
//   INSERT INTO t (cols...) VALUES (exprs...)
//   SELECT * | cols... | COUNT(*) FROM t [WHERE e] [ORDER BY c [ASC|DESC],...]
//     [LIMIT n]
//   UPDATE t SET c = e, ... [WHERE e]
//   DELETE FROM t [WHERE e]
//   BEGIN / COMMIT / ROLLBACK
// Expressions: literals, columns, ?, comparison, AND/OR/NOT, IS [NOT] NULL,
// IN (...), + - * /.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "osprey/db/expr.h"
#include "osprey/db/table.h"

namespace osprey::db::sql {

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
};

struct CreateIndexStmt {
  std::string table;
  std::vector<OrderTerm> columns;  // key columns in order, with directions
};

struct DropTableStmt {
  std::string table;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty => positional full row
  std::vector<ExprPtr> values;
};

enum class Aggregate { kNone, kCount, kMin, kMax, kSum, kAvg };

struct SelectStmt {
  std::string table;
  bool star = false;
  bool count = false;                 // SELECT COUNT(*)
  Aggregate aggregate = Aggregate::kNone;  // SELECT MIN(col) / MAX / SUM / AVG
  std::string aggregate_column;
  std::vector<std::string> columns;   // when !star && !count && no aggregate
  ExprPtr where;                      // may be null
  std::vector<OrderTerm> order_by;
  std::optional<std::int64_t> limit;  // literal or bound param resolved later
  bool limit_is_param = false;
  int limit_param_index = -1;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct BeginStmt {};
struct CommitStmt {};
struct RollbackStmt {};

using Statement =
    std::variant<CreateTableStmt, CreateIndexStmt, DropTableStmt, InsertStmt,
                 SelectStmt, UpdateStmt, DeleteStmt, BeginStmt, CommitStmt,
                 RollbackStmt>;

}  // namespace osprey::db::sql
