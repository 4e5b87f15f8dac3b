#include "osprey/db/value.h"

#include <cassert>
#include <cmath>

namespace osprey::db {

const char* column_type_name(ColumnType t) {
  switch (t) {
    case ColumnType::kInt: return "INTEGER";
    case ColumnType::kReal: return "REAL";
    case ColumnType::kText: return "TEXT";
  }
  return "?";
}

std::int64_t Value::as_int() const {
  if (is_real()) return static_cast<std::int64_t>(std::get<double>(data_));
  return std::get<std::int64_t>(data_);
}

double Value::as_real() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  return std::get<double>(data_);
}

const std::string& Value::as_text() const { return std::get<std::string>(data_); }

namespace {
// Type rank for the total order: NULL(0) < number(1) < text(2).
int rank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_number()) return 1;
  return 2;
}
}  // namespace

int Value::compare(const Value& other) const {
  // Equal alternatives (every cell pair of one index column) skip the rank
  // and cross-type numeric paths.
  if (data_.index() == other.data_.index()) {
    if (const auto* a = std::get_if<std::int64_t>(&data_)) {
      const std::int64_t b = *std::get_if<std::int64_t>(&other.data_);
      return *a < b ? -1 : (*a > b ? 1 : 0);
    }
    if (is_null()) return 0;
  }
  int ra = rank(*this);
  int rb = rank(other);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      if (is_int() && other.is_int()) {
        std::int64_t a = as_int();
        std::int64_t b = other.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      double a = as_real();
      double b = other.as_real();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const std::string& a = as_text();
      const std::string& b = other.as_text();
      int c = a.compare(b);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

bool Value::conforms_to(ColumnType t) const {
  if (is_null()) return true;
  switch (t) {
    case ColumnType::kInt:
      return is_int();
    case ColumnType::kReal:
      // Ints widen to real. Non-finite doubles are rejected: NaN breaks the
      // strict weak ordering the indexes and ORDER BY rely on.
      return is_int() || (is_real() && std::isfinite(std::get<double>(data_)));
    case ColumnType::kText:
      return is_text();
  }
  return false;
}

std::string Value::to_sql() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(as_int());
  if (is_real()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", as_real());
    return buf;
  }
  std::string out = "'";
  for (char c : as_text()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string Value::to_display() const {
  if (is_null()) return "NULL";
  if (is_text()) return as_text();
  return to_sql();
}

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns)) {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].primary_key) {
      assert(pk_index_ == -1 && "multiple primary keys");
      pk_index_ = static_cast<int>(i);
      columns_[i].nullable = false;
    }
  }
}

int Schema::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::validate(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "row has " + std::to_string(row.size()) + " values, schema has " +
                      std::to_string(columns_.size()) + " columns");
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = columns_[i];
    if (row[i].is_null() && !col.nullable) {
      return Status(ErrorCode::kInvalidArgument,
                    "NULL in non-nullable column '" + col.name + "'");
    }
    if (!row[i].conforms_to(col.type)) {
      return Status(ErrorCode::kInvalidArgument,
                    "type mismatch in column '" + col.name + "' (expected " +
                        column_type_name(col.type) + ")");
    }
  }
  return Status::ok();
}

}  // namespace osprey::db
