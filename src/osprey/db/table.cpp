#include "osprey/db/table.h"

#include <algorithm>
#include <cassert>

namespace osprey::db {

Table::Table(std::string name, Schema schema,
             std::unique_ptr<storage::RowStore> store)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      store_(store ? std::move(store)
                   : std::make_unique<storage::MemStore>()) {
  // The primary key is always indexed: task-id lookups are the hot path of
  // the EMEWS DB (§IV-C).
  if (schema_.primary_key_index() >= 0) {
    indexes_.emplace(
        schema_.column(static_cast<std::size_t>(schema_.primary_key_index()))
            .name,
        IndexMap{});
  }
}

const Row* Table::fetch_row(RowId id, Row* scratch) const {
  if (const Row* resident = store_->get_ref(id)) return resident;
  std::optional<Row> row = store_->get(id);
  if (!row) return nullptr;  // spilled row unreadable (dead device)
  *scratch = std::move(*row);
  return scratch;
}

Status Table::row_unavailable(RowId id) const {
  return Status(ErrorCode::kUnavailable,
                "row " + std::to_string(id) + " of table '" + name_ +
                    "' unreadable (storage read error)");
}

Status Table::create_index(const std::string& column) {
  int idx = schema_.index_of(column);
  if (idx < 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "no column '" + column + "' in table '" + name_ + "'");
  }
  if (indexes_.count(column)) return Status::ok();  // idempotent
  // Backfill before the hook logs the DDL: a failed scan must leave neither
  // a partial index nor a WAL record claiming the index exists.
  IndexMap index;
  Status scanned = store_->scan([&](RowId id, const Row& row) {
    index.emplace(row[static_cast<std::size_t>(idx)], id);
    return Status::ok();
  });
  if (!scanned.is_ok()) return scanned;
  if (index_hook_) {
    Status logged = index_hook_(column);
    if (!logged.is_ok()) return logged;
  }
  indexes_.emplace(column, std::move(index));
  return Status::ok();
}

bool Table::has_index(const std::string& column) const {
  return indexes_.count(column) > 0;
}

std::vector<std::string> Table::indexed_columns() const {
  std::vector<std::string> names;
  names.reserve(indexes_.size());
  for (const auto& [column, _] : indexes_) names.push_back(column);
  return names;
}

void Table::for_each_index_entry(
    const std::string& column,
    const std::function<void(const Value&, RowId)>& fn) const {
  auto it = indexes_.find(column);
  if (it == indexes_.end()) return;
  for (const auto& [value, id] : it->second) fn(value, id);
}

Status Table::restore_index_entry(const std::string& column, const Value& value,
                                  RowId id) {
  auto it = indexes_.find(column);
  if (it == indexes_.end()) {
    return Status(ErrorCode::kInvalidArgument,
                  "no index on '" + column + "' in table '" + name_ + "'");
  }
  it->second.emplace(value, id);
  if (id >= next_row_id_) next_row_id_ = id + 1;
  return Status::ok();
}

void Table::index_insert(const Row& row, RowId id) {
  for (auto& [column, index] : indexes_) {
    int idx = schema_.index_of(column);
    index.emplace(row[static_cast<std::size_t>(idx)], id);
  }
}

void Table::index_erase(const Row& row, RowId id) {
  for (auto& [column, index] : indexes_) {
    int idx = schema_.index_of(column);
    auto range = index.equal_range(row[static_cast<std::size_t>(idx)]);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        index.erase(it);
        break;
      }
    }
  }
}

Status Table::check_pk_unique(const Row& row,
                              std::optional<RowId> ignore) const {
  int pk = schema_.primary_key_index();
  if (pk < 0) return Status::ok();
  const Value& key = row[static_cast<std::size_t>(pk)];
  const std::string& pk_name = schema_.column(static_cast<std::size_t>(pk)).name;
  auto it = indexes_.find(pk_name);
  assert(it != indexes_.end());
  auto range = it->second.equal_range(key);
  for (auto i = range.first; i != range.second; ++i) {
    if (!ignore || i->second != *ignore) {
      return Status(ErrorCode::kConflict,
                    "duplicate primary key " + key.to_sql() + " in table '" +
                        name_ + "'");
    }
  }
  return Status::ok();
}

Result<RowId> Table::insert(Row row) {
  Status valid = schema_.validate(row);
  if (!valid.is_ok()) return valid.error();
  Status unique = check_pk_unique(row, std::nullopt);
  if (!unique.is_ok()) return unique.error();
  RowId id = next_row_id_++;
  index_insert(row, id);
  store_->put(id, std::move(row));
  if (journal_) {
    journal_->push_back({UndoRecord::Kind::kInsert, name_, id, Row{}});
  }
  return id;
}

std::optional<Row> Table::get(RowId id) const { return store_->get(id); }

std::optional<RowId> Table::find_pk(const Value& key) const {
  int pk = schema_.primary_key_index();
  if (pk < 0) return std::nullopt;
  const std::string& pk_name = schema_.column(static_cast<std::size_t>(pk)).name;
  auto it = indexes_.find(pk_name);
  if (it == indexes_.end()) return std::nullopt;
  ++index_lookups_;
  auto range = it->second.equal_range(key);
  if (range.first == range.second) return std::nullopt;
  return range.first->second;
}

Result<std::vector<RowId>> Table::candidates(const ScanOptions& options) const {
  // Planner: if WHERE contains `column = value` or `column IN (values)` on
  // an indexed column, probe the index and filter the (usually small)
  // candidate set; otherwise full scan. The first indexed constraint in
  // WHERE order is probed, so EQSQL's single-id statements lead with
  // `eq_task_id = ?`: a point probe, not a walk of the eq_status index.
  if (options.where) {
    for (const InConstraint& c :
         extract_index_probes(*options.where, options.params)) {
      auto it = indexes_.find(c.column);
      if (it == indexes_.end()) continue;
      ++index_lookups_;
      std::vector<RowId> ids;
      for (const Value& v : c.values) {
        auto range = it->second.equal_range(v);
        for (auto i = range.first; i != range.second; ++i) {
          ids.push_back(i->second);
        }
      }
      std::sort(ids.begin(), ids.end());  // deterministic base order
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      return ids;
    }
  }
  ++full_scans_;
  return all_row_ids();
}

Result<std::vector<RowId>> Table::select_ordered_via_index(
    const ScanOptions& options, const IndexMap& index) const {
  ++index_lookups_;
  const bool ascending = options.order_by.front().ascending;
  const std::size_t limit = static_cast<std::size_t>(options.limit);
  std::vector<OrderTerm> tail_terms(options.order_by.begin() + 1,
                                    options.order_by.end());
  std::vector<RowId> out;
  Error row_err{ErrorCode::kOk, ""};

  // Walk the index one equal-key group at a time in the requested direction;
  // rows within a group are ordered by the remaining terms (then row id, the
  // same tie rule as the sort-based path).
  auto emit_group = [&](IndexMap::const_iterator begin,
                        IndexMap::const_iterator end) -> Status {
    std::vector<RowId> group;
    Row scratch;
    for (auto it = begin; it != end; ++it) {
      if (options.where) {
        const Row* row = fetch_row(it->second, &scratch);
        if (!row) return row_unavailable(it->second);
        bool match =
            eval_predicate(*options.where, schema_, *row, options.params,
                           &row_err);
        if (row_err.code != ErrorCode::kOk) return Status(row_err);
        if (!match) continue;
      }
      group.push_back(it->second);
    }
    std::sort(group.begin(), group.end());
    if (!tail_terms.empty()) {
      Status ordered = order_rows(group, tail_terms);
      if (!ordered.is_ok()) return ordered;
    }
    for (RowId id : group) {
      if (out.size() >= limit) break;
      out.push_back(id);
    }
    return Status::ok();
  };

  if (ascending) {
    auto it = index.begin();
    while (it != index.end() && out.size() < limit) {
      auto group_end = index.upper_bound(it->first);
      if (Status s = emit_group(it, group_end); !s.is_ok()) return s.error();
      it = group_end;
    }
  } else {
    auto it = index.end();
    while (it != index.begin() && out.size() < limit) {
      auto group_end = it;
      it = index.lower_bound(std::prev(it)->first);
      if (Status s = emit_group(it, group_end); !s.is_ok()) return s.error();
    }
  }
  return out;
}

Result<std::vector<RowId>> Table::select(const ScanOptions& options) const {
  // Top-N plan: ORDER BY <indexed column> ... LIMIT n walks the index and
  // stops early — the shape of the §IV-C output-queue pop.
  if (!options.order_by.empty() && options.limit >= 0) {
    // Validate the remaining ORDER BY columns up front (the sort-based path
    // would reject unknown columns; this path must too).
    for (const OrderTerm& term : options.order_by) {
      if (schema_.index_of(term.column) < 0) {
        return Error(ErrorCode::kInvalidArgument,
                     "ORDER BY unknown column '" + term.column + "'");
      }
    }
    auto it = indexes_.find(options.order_by.front().column);
    if (it != indexes_.end()) {
      return select_ordered_via_index(options, it->second);
    }
  }
  Result<std::vector<RowId>> cand = candidates(options);
  if (!cand.ok()) return cand;
  std::vector<RowId> ids;
  ids.reserve(cand.value().size());
  Row scratch;
  for (RowId id : cand.value()) {
    if (options.where) {
      const Row* row = fetch_row(id, &scratch);
      if (!row) return row_unavailable(id).error();
      // Eval errors (bad column, missing param) are real errors, not "false".
      Error row_err{ErrorCode::kOk, ""};
      bool match = eval_predicate(*options.where, schema_, *row, options.params,
                                  &row_err);
      if (row_err.code != ErrorCode::kOk) return row_err;
      if (!match) continue;
    }
    ids.push_back(id);
  }
  Status ordered = order_rows(ids, options.order_by);
  if (!ordered.is_ok()) return ordered.error();
  if (options.limit >= 0 &&
      ids.size() > static_cast<std::size_t>(options.limit)) {
    ids.resize(static_cast<std::size_t>(options.limit));
  }
  return ids;
}

Result<std::optional<RowId>> Table::select_one(const ScanOptions& options) const {
  ScanOptions limited = options;
  limited.limit = 1;
  Result<std::vector<RowId>> r = select(limited);
  if (!r.ok()) return r.error();
  if (r.value().empty()) return std::optional<RowId>{};
  return std::optional<RowId>{r.value().front()};
}

Status Table::order_rows(std::vector<RowId>& ids,
                         const std::vector<OrderTerm>& order_by) const {
  if (order_by.empty()) return Status::ok();
  std::vector<int> col_indexes;
  col_indexes.reserve(order_by.size());
  for (const OrderTerm& term : order_by) {
    int idx = schema_.index_of(term.column);
    if (idx < 0) {
      return Status(ErrorCode::kInvalidArgument,
                    "ORDER BY unknown column '" + term.column + "'");
    }
    col_indexes.push_back(idx);
  }
  // Pin each spilled row once, up front: a run is read a single time (not
  // once per comparison) and a read failure surfaces here as kUnavailable
  // instead of feeding the comparator a garbage row.
  std::map<RowId, Row> pinned;
  for (RowId id : ids) {
    if (store_->get_ref(id) || pinned.count(id)) continue;
    std::optional<Row> row = store_->get(id);
    if (!row) return row_unavailable(id);
    pinned.emplace(id, std::move(*row));
  }
  auto row_of = [&](RowId id) -> const Row& {
    if (const Row* resident = store_->get_ref(id)) return *resident;
    return pinned.find(id)->second;
  };
  std::stable_sort(ids.begin(), ids.end(), [&](RowId a, RowId b) {
    const Row& ra = row_of(a);
    const Row& rb = row_of(b);
    for (std::size_t t = 0; t < order_by.size(); ++t) {
      std::size_t ci = static_cast<std::size_t>(col_indexes[t]);
      int c = ra[ci].compare(rb[ci]);
      if (c != 0) return order_by[t].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return Status::ok();
}

Result<std::size_t> Table::update(
    const ScanOptions& options,
    const std::vector<std::pair<std::string, ExprPtr>>& assignments) {
  // Resolve assignment target columns once.
  std::vector<int> targets;
  targets.reserve(assignments.size());
  for (const auto& [column, _] : assignments) {
    int idx = schema_.index_of(column);
    if (idx < 0) {
      return Error(ErrorCode::kInvalidArgument,
                   "UPDATE unknown column '" + column + "'");
    }
    targets.push_back(idx);
  }
  Result<std::vector<RowId>> matches = select(options);
  if (!matches.ok()) return matches.error();

  std::size_t updated = 0;
  for (RowId id : matches.value()) {
    std::optional<Row> fetched = store_->get(id);
    if (!fetched) return row_unavailable(id).error();
    Row old_row = std::move(*fetched);
    Row new_row = old_row;
    for (std::size_t a = 0; a < assignments.size(); ++a) {
      Result<Value> v =
          eval(*assignments[a].second, schema_, old_row, options.params);
      if (!v.ok()) return v.error();
      new_row[static_cast<std::size_t>(targets[a])] = std::move(v).take();
    }
    Status valid = schema_.validate(new_row);
    if (!valid.is_ok()) return valid.error();
    Status unique = check_pk_unique(new_row, id);
    if (!unique.is_ok()) return unique.error();
    index_erase(old_row, id);
    index_insert(new_row, id);
    store_->put(id, std::move(new_row));
    if (journal_) {
      journal_->push_back(
          {UndoRecord::Kind::kUpdate, name_, id, std::move(old_row)});
    }
    ++updated;
  }
  return updated;
}

Status Table::update_row(RowId id, Row row) {
  std::optional<Row> old_row = store_->get(id);
  if (!old_row) {
    return Status(ErrorCode::kNotFound,
                  "row " + std::to_string(id) + " not in table '" + name_ + "'");
  }
  Status valid = schema_.validate(row);
  if (!valid.is_ok()) return valid;
  Status unique = check_pk_unique(row, id);
  if (!unique.is_ok()) return unique;
  index_erase(*old_row, id);
  index_insert(row, id);
  store_->put(id, std::move(row));
  if (journal_) {
    journal_->push_back(
        {UndoRecord::Kind::kUpdate, name_, id, std::move(*old_row)});
  }
  return Status::ok();
}

Result<std::size_t> Table::erase(const ScanOptions& options) {
  Result<std::vector<RowId>> matches = select(options);
  if (!matches.ok()) return matches.error();
  std::size_t erased = 0;
  for (RowId id : matches.value()) {
    if (erase_row(id)) {
      ++erased;
    } else if (store_->contains(id)) {
      // Live but unreadable (erase_row could not fetch the old row for the
      // undo journal): report it rather than under-counting silently.
      return row_unavailable(id).error();
    }
  }
  return erased;
}

bool Table::erase_row(RowId id) {
  std::optional<Row> old_row = store_->get(id);
  if (!old_row) return false;
  index_erase(*old_row, id);
  if (journal_) {
    journal_->push_back(
        {UndoRecord::Kind::kDelete, name_, id, std::move(*old_row)});
  }
  store_->erase(id);
  return true;
}

Status Table::clear() {
  if (journal_) {
    // Journal every row before wiping anything: if a spilled row cannot be
    // read, abort with the journal rewound so a rollback of the enclosing
    // transaction does not resurrect rows that were never deleted.
    const std::size_t mark = journal_->size();
    Status scanned = store_->scan([&](RowId id, const Row& row) {
      journal_->push_back({UndoRecord::Kind::kDelete, name_, id, row});
      return Status::ok();
    });
    if (!scanned.is_ok()) {
      journal_->resize(mark);
      return scanned;
    }
  }
  store_->clear();
  for (auto& [column, index] : indexes_) {
    index.clear();
  }
  return Status::ok();
}

std::vector<RowId> Table::all_row_ids() const { return store_->ids(); }

Status Table::restore_row(RowId id, Row row) {
  if (store_->contains(id)) {
    return Status(ErrorCode::kConflict,
                  "restore_row: id " + std::to_string(id) + " already present");
  }
  Status valid = schema_.validate(row);
  if (!valid.is_ok()) return valid;
  index_insert(row, id);
  store_->put(id, std::move(row));
  if (id >= next_row_id_) next_row_id_ = id + 1;
  return Status::ok();
}

}  // namespace osprey::db
