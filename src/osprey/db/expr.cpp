#include "osprey/db/expr.h"

#include <utility>

namespace osprey::db {

namespace {
std::shared_ptr<Expr> make(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}
}  // namespace

ExprPtr lit(Value v) {
  auto e = make(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

ExprPtr col(std::string name) {
  auto e = make(ExprKind::kColumn);
  e->column = std::move(name);
  return e;
}

ExprPtr param(int index) {
  auto e = make(ExprKind::kParam);
  e->param_index = index;
  return e;
}

ExprPtr bin(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = make(ExprKind::kBinary);
  e->op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr not_(ExprPtr inner) {
  auto e = make(ExprKind::kNot);
  e->lhs = std::move(inner);
  return e;
}

ExprPtr is_null(ExprPtr inner) {
  auto e = make(ExprKind::kIsNull);
  e->lhs = std::move(inner);
  return e;
}

ExprPtr in_list(ExprPtr lhs, std::vector<ExprPtr> items) {
  auto e = make(ExprKind::kIn);
  e->lhs = std::move(lhs);
  e->items = std::move(items);
  return e;
}

namespace {

bool truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int()) return v.as_int() != 0;
  if (v.is_real()) return v.as_real() != 0.0;
  return !v.as_text().empty();
}

Result<Value> eval_binary(const Expr& e, const Schema& schema, const Row& row,
                          const std::vector<Value>& params) {
  // Short-circuit logical operators.
  if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
    Result<Value> a = eval(*e.lhs, schema, row, params);
    if (!a.ok()) return a;
    bool av = truthy(a.value());
    if (e.op == BinOp::kAnd && !av) return Value(std::int64_t{0});
    if (e.op == BinOp::kOr && av) return Value(std::int64_t{1});
    Result<Value> b = eval(*e.rhs, schema, row, params);
    if (!b.ok()) return b;
    return Value(std::int64_t{truthy(b.value()) ? 1 : 0});
  }

  Result<Value> a = eval(*e.lhs, schema, row, params);
  if (!a.ok()) return a;
  Result<Value> b = eval(*e.rhs, schema, row, params);
  if (!b.ok()) return b;
  const Value& av = a.value();
  const Value& bv = b.value();

  switch (e.op) {
    case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
    case BinOp::kLe: case BinOp::kGt: case BinOp::kGe: {
      // SQL three-valued logic, simplified: comparisons with NULL are false
      // (never true), matching the way the EMEWS queries use them.
      if (av.is_null() || bv.is_null()) {
        return Value(std::int64_t{e.op == BinOp::kNe &&
                                  !(av.is_null() && bv.is_null())
                                      ? 1
                                      : 0});
      }
      int c = av.compare(bv);
      bool r = false;
      switch (e.op) {
        case BinOp::kEq: r = c == 0; break;
        case BinOp::kNe: r = c != 0; break;
        case BinOp::kLt: r = c < 0; break;
        case BinOp::kLe: r = c <= 0; break;
        case BinOp::kGt: r = c > 0; break;
        case BinOp::kGe: r = c >= 0; break;
        default: break;
      }
      return Value(std::int64_t{r ? 1 : 0});
    }
    case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul: case BinOp::kDiv: {
      if (av.is_null() || bv.is_null()) return Value(nullptr);
      if (!av.is_number() || !bv.is_number()) {
        return Error(ErrorCode::kInvalidArgument,
                     "arithmetic on non-numeric value");
      }
      if (av.is_int() && bv.is_int() && e.op != BinOp::kDiv) {
        std::int64_t x = av.as_int();
        std::int64_t y = bv.as_int();
        switch (e.op) {
          case BinOp::kAdd: return Value(x + y);
          case BinOp::kSub: return Value(x - y);
          case BinOp::kMul: return Value(x * y);
          default: break;
        }
      }
      double x = av.as_real();
      double y = bv.as_real();
      switch (e.op) {
        case BinOp::kAdd: return Value(x + y);
        case BinOp::kSub: return Value(x - y);
        case BinOp::kMul: return Value(x * y);
        case BinOp::kDiv:
          if (y == 0.0) {
            return Error(ErrorCode::kInvalidArgument, "division by zero");
          }
          return Value(x / y);
        default: break;
      }
      break;
    }
    default: break;
  }
  return Error(ErrorCode::kInternal, "unhandled binary operator");
}

}  // namespace

Result<Value> eval(const Expr& e, const Schema& schema, const Row& row,
                   const std::vector<Value>& params) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumn: {
      int idx = schema.index_of(e.column);
      if (idx < 0) {
        return Error(ErrorCode::kInvalidArgument,
                     "unknown column '" + e.column + "'");
      }
      return row[static_cast<std::size_t>(idx)];
    }
    case ExprKind::kParam: {
      if (e.param_index < 0 ||
          static_cast<std::size_t>(e.param_index) >= params.size()) {
        return Error(ErrorCode::kInvalidArgument,
                     "bind parameter " + std::to_string(e.param_index + 1) +
                         " not supplied");
      }
      return params[static_cast<std::size_t>(e.param_index)];
    }
    case ExprKind::kBinary:
      return eval_binary(e, schema, row, params);
    case ExprKind::kNot: {
      Result<Value> inner = eval(*e.lhs, schema, row, params);
      if (!inner.ok()) return inner;
      return Value(std::int64_t{truthy(inner.value()) ? 0 : 1});
    }
    case ExprKind::kIsNull: {
      Result<Value> inner = eval(*e.lhs, schema, row, params);
      if (!inner.ok()) return inner;
      return Value(std::int64_t{inner.value().is_null() ? 1 : 0});
    }
    case ExprKind::kIn: {
      Result<Value> lhs = eval(*e.lhs, schema, row, params);
      if (!lhs.ok()) return lhs;
      if (lhs.value().is_null()) return Value(std::int64_t{0});
      for (const ExprPtr& item : e.items) {
        Result<Value> iv = eval(*item, schema, row, params);
        if (!iv.ok()) return iv;
        if (!iv.value().is_null() && lhs.value().compare(iv.value()) == 0) {
          return Value(std::int64_t{1});
        }
      }
      return Value(std::int64_t{0});
    }
  }
  return Error(ErrorCode::kInternal, "unhandled expression kind");
}

bool eval_predicate(const Expr& e, const Schema& schema, const Row& row,
                    const std::vector<Value>& params, Error* error_out) {
  Result<Value> r = eval(e, schema, row, params);
  if (!r.ok()) {
    if (error_out) *error_out = r.error();
    return false;
  }
  return truthy(r.value());
}

namespace {
// A value-yielding leaf usable for index probing: literal or bound param.
const Value* probe_value(const Expr& e, const std::vector<Value>& params) {
  if (e.kind == ExprKind::kLiteral) return &e.literal;
  if (e.kind == ExprKind::kParam && e.param_index >= 0 &&
      static_cast<std::size_t>(e.param_index) < params.size()) {
    return &params[static_cast<std::size_t>(e.param_index)];
  }
  return nullptr;
}

void collect_conjuncts(const Expr& e, std::vector<const Expr*>& out) {
  if (e.kind == ExprKind::kBinary && e.op == BinOp::kAnd) {
    collect_conjuncts(*e.lhs, out);
    collect_conjuncts(*e.rhs, out);
    return;
  }
  out.push_back(&e);
}
}  // namespace

std::vector<const Expr*> conjuncts(const Expr& e) {
  std::vector<const Expr*> out;
  collect_conjuncts(e, out);
  return out;
}

std::optional<InConstraint> index_probe(const Expr& e,
                                        const std::vector<Value>& params) {
  if (e.kind == ExprKind::kIsNull && e.lhs->kind == ExprKind::kColumn) {
    return InConstraint{e.lhs->column, {Value(nullptr)}};
  }
  if (e.kind == ExprKind::kBinary && e.op == BinOp::kEq) {
    const Expr* column_side = e.lhs.get();
    const Expr* value_side = e.rhs.get();
    if (column_side->kind != ExprKind::kColumn) {
      std::swap(column_side, value_side);
    }
    if (column_side->kind != ExprKind::kColumn) return std::nullopt;
    const Value* v = probe_value(*value_side, params);
    if (!v) return std::nullopt;
    InConstraint probe{column_side->column, {}};
    if (!v->is_null()) probe.values.push_back(*v);
    return probe;
  }
  if (e.kind == ExprKind::kIn && e.lhs->kind == ExprKind::kColumn) {
    InConstraint probe{e.lhs->column, {}};
    probe.values.reserve(e.items.size());
    for (const ExprPtr& item : e.items) {
      const Value* v = probe_value(*item, params);
      if (!v) return std::nullopt;  // non-constant item: cannot use the index
      if (!v->is_null()) probe.values.push_back(*v);
    }
    return probe;
  }
  return std::nullopt;
}

}  // namespace osprey::db
