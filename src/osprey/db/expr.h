// Row-predicate / scalar expression tree, shared by the programmatic table
// API and the SQL front end. An Expr evaluates against (schema, row) to a
// Value; WHERE clauses evaluate to a truthy value (nonzero number).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "osprey/db/value.h"

namespace osprey::db {

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,  // comparisons -> 0/1 int
  kAnd, kOr,                     // logical -> 0/1 int
  kAdd, kSub, kMul, kDiv,        // arithmetic (numeric operands)
};

enum class ExprKind { kLiteral, kColumn, kParam, kBinary, kNot, kIsNull, kIn };

/// Immutable expression node. Build with the factory functions below.
struct Expr {
  ExprKind kind;
  // kLiteral
  Value literal;
  // kColumn
  std::string column;
  // kParam: 0-based index into the bind-parameter list ("?" in SQL)
  int param_index = -1;
  // kBinary / kNot / kIsNull
  BinOp op = BinOp::kEq;
  std::shared_ptr<const Expr> lhs;
  std::shared_ptr<const Expr> rhs;
  // kIn: lhs IN (items...)
  std::vector<std::shared_ptr<const Expr>> items;
};

using ExprPtr = std::shared_ptr<const Expr>;

ExprPtr lit(Value v);
ExprPtr col(std::string name);
ExprPtr param(int index);
ExprPtr bin(BinOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr not_(ExprPtr e);
ExprPtr is_null(ExprPtr e);
ExprPtr in_list(ExprPtr lhs, std::vector<ExprPtr> items);

// Sugar for the common col-vs-literal comparisons.
inline ExprPtr eq(std::string c, Value v) { return bin(BinOp::kEq, col(std::move(c)), lit(std::move(v))); }
inline ExprPtr ne(std::string c, Value v) { return bin(BinOp::kNe, col(std::move(c)), lit(std::move(v))); }
inline ExprPtr lt(std::string c, Value v) { return bin(BinOp::kLt, col(std::move(c)), lit(std::move(v))); }
inline ExprPtr le(std::string c, Value v) { return bin(BinOp::kLe, col(std::move(c)), lit(std::move(v))); }
inline ExprPtr gt(std::string c, Value v) { return bin(BinOp::kGt, col(std::move(c)), lit(std::move(v))); }
inline ExprPtr ge(std::string c, Value v) { return bin(BinOp::kGe, col(std::move(c)), lit(std::move(v))); }
inline ExprPtr and_(ExprPtr a, ExprPtr b) { return bin(BinOp::kAnd, std::move(a), std::move(b)); }
inline ExprPtr or_(ExprPtr a, ExprPtr b) { return bin(BinOp::kOr, std::move(a), std::move(b)); }

/// Evaluate an expression against a row. `params` supplies values for kParam
/// nodes. Errors: unknown column, type mismatch in arithmetic, param range.
Result<Value> eval(const Expr& e, const Schema& schema, const Row& row,
                   const std::vector<Value>& params = {});

/// Evaluate as a WHERE predicate: NULL and errors are false; numbers are
/// truthy when nonzero. `error_out`, when non-null, receives eval errors.
bool eval_predicate(const Expr& e, const Schema& schema, const Row& row,
                    const std::vector<Value>& params = {},
                    Error* error_out = nullptr);

/// A column pinned to one value, e.g. the leading columns of an index seek.
struct EqConstraint {
  std::string column;
  Value value;
};

/// A column pinned to any of a set of values.
struct InConstraint {
  std::string column;
  std::vector<Value> values;
};

/// The top-level AND conjuncts of a WHERE expression, left to right (the
/// expression itself when it is not an AND).
std::vector<const Expr*> conjuncts(const Expr& e);

/// If `conjunct` is `column = v`, `v = column`, `column IN (v, ...)` or
/// `column IS NULL`, each v a literal or a bound parameter: the column and
/// the values that satisfy it. The conjunct is true for exactly the rows
/// whose cell compares equal to one of the values — NULL items of = and IN
/// never match and are dropped, IS NULL yields the one value NULL — so the
/// table planner answers it with index seeks and never re-evaluates it.
std::optional<InConstraint> index_probe(const Expr& conjunct,
                                        const std::vector<Value>& params);

}  // namespace osprey::db
