#include "osprey/db/sql_exec.h"

#include <cassert>

#include "osprey/db/sql_parser.h"

namespace osprey::db::sql {

const Statement* Connection::cached_parse(const std::string& sql, Error* error) {
  std::lock_guard<std::mutex> guard(cache_mutex_);
  auto it = statement_cache_.find(sql);
  if (it != statement_cache_.end()) return &it->second;
  Result<Statement> parsed = parse_statement(sql);
  if (!parsed.ok()) {
    *error = parsed.error();
    return nullptr;
  }
  auto [inserted, _] = statement_cache_.emplace(sql, std::move(parsed).take());
  return &inserted->second;
}

std::size_t Connection::cached_statements() const {
  std::lock_guard<std::mutex> guard(cache_mutex_);
  return statement_cache_.size();
}

namespace {

bool statement_mutates(const Statement& stmt) {
  return std::holds_alternative<InsertStmt>(stmt) ||
         std::holds_alternative<UpdateStmt>(stmt) ||
         std::holds_alternative<DeleteStmt>(stmt);
}

}  // namespace

Result<ExecResult> Connection::execute(const std::string& sql,
                                       const std::vector<Value>& params) {
  Error parse_error;
  const Statement* stmt = cached_parse(sql, &parse_error);
  if (!stmt) return parse_error;
  // Serialize with any concurrent connections; recursive so statements
  // inside our own open transaction (which holds the lock) still run.
  std::lock_guard<std::recursive_mutex> guard(db_.mutex());
  if (statement_mutates(*stmt) && !db_.in_transaction()) {
    // Standalone DML auto-commits as its own transaction, so a multi-row
    // statement is atomic and the commit observer (WAL) sees the mutation.
    Transaction auto_txn(db_);
    Result<ExecResult> result = run(*stmt, params);
    if (!result.ok()) return result;
    Status committed = auto_txn.commit();
    if (!committed.is_ok()) return committed.error();
    return result;
  }
  return run(*stmt, params);
}

Status Connection::begin() {
  if (txn_) {
    return Status(ErrorCode::kConflict, "transaction already open");
  }
  txn_ = std::make_unique<Transaction>(db_);
  return Status::ok();
}

Status Connection::commit() {
  if (!txn_) return Status(ErrorCode::kConflict, "no open transaction");
  Status committed = txn_->commit();
  txn_.reset();
  return committed;
}

Status Connection::rollback() {
  if (!txn_) return Status(ErrorCode::kConflict, "no open transaction");
  txn_->rollback();
  txn_.reset();
  return Status::ok();
}

Result<ExecResult> Connection::run(const Statement& stmt,
                                   const std::vector<Value>& params) {
  ExecResult result;
  return std::visit(
      [&](const auto& s) -> Result<ExecResult> {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateTableStmt>) {
          Result<Table*> t = db_.create_table(s.table, Schema(s.columns));
          if (!t.ok()) return t.error();
          return result;
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          Table* t = db_.table(s.table);
          if (!t) return Error(ErrorCode::kNotFound, "no table '" + s.table + "'");
          Status st = t->create_index(index_spec_string(s.columns));
          if (!st.is_ok()) return st.error();
          return result;
        } else if constexpr (std::is_same_v<T, DropTableStmt>) {
          Status st = db_.drop_table(s.table);
          if (!st.is_ok()) return st.error();
          return result;
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          Table* t = db_.table(s.table);
          if (!t) return Error(ErrorCode::kNotFound, "no table '" + s.table + "'");
          const Schema& schema = t->schema();
          Row row(schema.size(), Value(nullptr));
          if (s.columns.empty()) {
            if (s.values.size() != schema.size()) {
              return Error(ErrorCode::kInvalidArgument,
                           "INSERT arity mismatch");
            }
            for (std::size_t i = 0; i < s.values.size(); ++i) {
              Result<Value> v = eval(*s.values[i], schema, row, params);
              if (!v.ok()) return v.error();
              row[i] = std::move(v).take();
            }
          } else {
            if (s.values.size() != s.columns.size()) {
              return Error(ErrorCode::kInvalidArgument,
                           "INSERT column/value count mismatch");
            }
            for (std::size_t i = 0; i < s.columns.size(); ++i) {
              int idx = schema.index_of(s.columns[i]);
              if (idx < 0) {
                return Error(ErrorCode::kInvalidArgument,
                             "INSERT unknown column '" + s.columns[i] + "'");
              }
              Result<Value> v = eval(*s.values[i], schema, row, params);
              if (!v.ok()) return v.error();
              row[static_cast<std::size_t>(idx)] = std::move(v).take();
            }
          }
          Result<RowId> id = t->insert(std::move(row));
          if (!id.ok()) return id.error();
          result.affected = 1;
          result.last_insert_id = id.value();
          return result;
        } else if constexpr (std::is_same_v<T, SelectStmt>) {
          return run_select(s, params);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          Table* t = db_.table(s.table);
          if (!t) return Error(ErrorCode::kNotFound, "no table '" + s.table + "'");
          ScanOptions options;
          options.where = s.where;
          options.params = params;
          Result<std::size_t> n = t->update(options, s.assignments);
          if (!n.ok()) return n.error();
          result.affected = n.value();
          return result;
        } else if constexpr (std::is_same_v<T, DeleteStmt>) {
          Table* t = db_.table(s.table);
          if (!t) return Error(ErrorCode::kNotFound, "no table '" + s.table + "'");
          ScanOptions options;
          options.where = s.where;
          options.params = params;
          Result<std::size_t> n = t->erase(options);
          if (!n.ok()) return n.error();
          result.affected = n.value();
          return result;
        } else if constexpr (std::is_same_v<T, BeginStmt>) {
          Status st = begin();
          if (!st.is_ok()) return st.error();
          return result;
        } else if constexpr (std::is_same_v<T, CommitStmt>) {
          Status st = commit();
          if (!st.is_ok()) return st.error();
          return result;
        } else {
          static_assert(std::is_same_v<T, RollbackStmt>);
          Status st = rollback();
          if (!st.is_ok()) return st.error();
          return result;
        }
      },
      stmt);
}

Result<ExecResult> Connection::run_select(const SelectStmt& stmt,
                                          const std::vector<Value>& params) {
  Table* t = db_.table(stmt.table);
  if (!t) return Error(ErrorCode::kNotFound, "no table '" + stmt.table + "'");
  const Schema& schema = t->schema();

  ScanOptions options;
  options.where = stmt.where;
  options.params = params;
  options.order_by = stmt.order_by;
  if (stmt.limit_is_param) {
    if (stmt.limit_param_index < 0 ||
        static_cast<std::size_t>(stmt.limit_param_index) >= params.size()) {
      return Error(ErrorCode::kInvalidArgument, "LIMIT parameter not supplied");
    }
    const Value& v = params[static_cast<std::size_t>(stmt.limit_param_index)];
    if (!v.is_int()) {
      return Error(ErrorCode::kInvalidArgument, "LIMIT parameter must be int");
    }
    options.limit = v.as_int();
  } else if (stmt.limit) {
    options.limit = *stmt.limit;
  }

  Result<std::vector<RowId>> ids = t->select(options);
  if (!ids.ok()) return ids.error();

  ExecResult result;
  if (stmt.count) {
    result.column_names = {"count"};
    result.rows.push_back({Value(static_cast<std::int64_t>(ids.value().size()))});
    return result;
  }
  if (stmt.aggregate != Aggregate::kNone) {
    int column = schema.index_of(stmt.aggregate_column);
    if (column < 0) {
      return Error(ErrorCode::kInvalidArgument,
                   "aggregate over unknown column '" + stmt.aggregate_column +
                       "'");
    }
    const auto ci = static_cast<std::size_t>(column);
    // SQL semantics: NULLs are skipped; empty input yields NULL.
    Value acc(nullptr);
    double sum = 0;
    std::int64_t non_null = 0;
    bool all_int = true;
    for (RowId id : ids.value()) {
      std::optional<Row> row = t->get(id);
      const Value& cell = (*row)[ci];
      if (cell.is_null()) continue;
      ++non_null;
      switch (stmt.aggregate) {
        case Aggregate::kMin:
          if (acc.is_null() || cell < acc) acc = cell;
          break;
        case Aggregate::kMax:
          if (acc.is_null() || cell > acc) acc = cell;
          break;
        case Aggregate::kSum:
        case Aggregate::kAvg:
          if (!cell.is_number()) {
            return Error(ErrorCode::kInvalidArgument,
                         "SUM/AVG over non-numeric column");
          }
          sum += cell.as_real();
          if (!cell.is_int()) all_int = false;
          break;
        default:
          break;
      }
    }
    result.column_names = {std::string(stmt.aggregate == Aggregate::kMin
                                           ? "min"
                                           : stmt.aggregate == Aggregate::kMax
                                                 ? "max"
                                                 : stmt.aggregate ==
                                                           Aggregate::kSum
                                                       ? "sum"
                                                       : "avg")};
    if (non_null == 0) {
      result.rows.push_back({Value(nullptr)});
    } else if (stmt.aggregate == Aggregate::kSum) {
      result.rows.push_back(
          {all_int ? Value(static_cast<std::int64_t>(sum)) : Value(sum)});
    } else if (stmt.aggregate == Aggregate::kAvg) {
      result.rows.push_back({Value(sum / static_cast<double>(non_null))});
    } else {
      result.rows.push_back({acc});
    }
    return result;
  }

  std::vector<int> projection;
  if (stmt.star) {
    for (std::size_t i = 0; i < schema.size(); ++i) {
      projection.push_back(static_cast<int>(i));
      result.column_names.push_back(schema.column(i).name);
    }
  } else {
    for (const std::string& name : stmt.columns) {
      int idx = schema.index_of(name);
      if (idx < 0) {
        return Error(ErrorCode::kInvalidArgument,
                     "SELECT unknown column '" + name + "'");
      }
      projection.push_back(idx);
      result.column_names.push_back(name);
    }
  }

  result.rows.reserve(ids.value().size());
  for (RowId id : ids.value()) {
    std::optional<Row> row = t->get(id);
    assert(row);
    Row out;
    out.reserve(projection.size());
    for (int idx : projection) {
      out.push_back((*row)[static_cast<std::size_t>(idx)]);
    }
    result.rows.push_back(std::move(out));
  }
  return result;
}

}  // namespace osprey::db::sql
