#include "osprey/db/table.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <limits>
#include <sstream>
#include <tuple>

namespace osprey::db {

namespace {

constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

// One cell as an index sees it: equal under the total order and of the same
// type, so an index never keeps an int key for a cell that became real.
bool same_cell(const Value& a, const Value& b) {
  return a.compare(b) == 0 && a.is_int() == b.is_int();
}

std::string upper(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return s;
}

// The canonical spelling of `spec`, or "" when it is malformed.
std::string canonical_spec(const std::string& spec) {
  Result<std::vector<OrderTerm>> terms = parse_index_spec(spec);
  return terms.ok() ? index_spec_string(terms.value()) : std::string();
}

}  // namespace

std::string index_spec_string(const std::vector<OrderTerm>& columns) {
  std::string out;
  for (const OrderTerm& term : columns) {
    if (!out.empty()) out += ", ";
    out += term.column;
    if (!term.ascending) out += " DESC";
  }
  return out;
}

Result<std::vector<OrderTerm>> parse_index_spec(const std::string& spec) {
  std::vector<OrderTerm> terms;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = spec.find(',', start);
    std::istringstream words(spec.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start));
    std::string column, direction, extra;
    words >> column >> direction >> extra;
    const std::string dir = upper(direction);
    if (column.empty() || !extra.empty() ||
        (!dir.empty() && dir != "ASC" && dir != "DESC")) {
      return Error(ErrorCode::kInvalidArgument,
                   "malformed index spec '" + spec + "'");
    }
    for (const OrderTerm& term : terms) {
      if (term.column == column) {
        return Error(ErrorCode::kInvalidArgument,
                     "column '" + column + "' repeated in index spec '" +
                         spec + "'");
      }
    }
    terms.push_back({column, dir != "DESC"});
    if (comma == std::string::npos) return terms;
    start = comma + 1;
  }
}

// --- index keys -------------------------------------------------------------

std::vector<Value> Table::IndexKey::cells() const {
  std::vector<Value> out;
  out.reserve(1 + rest.size());
  out.push_back(first);
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

int Table::IndexLess::compare_cells(const IndexKey& a, const IndexKey& b,
                                    std::size_t n) const {
  for (std::size_t i = 0; i < n; ++i) {
    const int c = a.cell(i).compare(b.cell(i));
    if (c != 0) return descending_[i] ? -c : c;
  }
  return 0;
}

int Table::IndexLess::compare_prefix(const IndexKey& a,
                                     const std::vector<Value>& b) const {
  for (std::size_t i = 0; i < b.size(); ++i) {
    const int c = a.cell(i).compare(b[i]);
    if (c != 0) return descending_[i] ? -c : c;
  }
  return 0;
}

bool Table::IndexLess::operator()(const IndexKey& a, const IndexKey& b) const {
  const int c = compare_cells(a, b, descending_.size());
  return c != 0 ? c < 0 : a.id < b.id;
}

bool Table::IndexLess::operator()(const IndexKey& a,
                                  const IndexBound& b) const {
  const int c = compare_prefix(a, *b.prefix);
  return c != 0 ? c < 0 : b.after;
}

bool Table::IndexLess::operator()(const IndexBound& a,
                                  const IndexKey& b) const {
  const int c = compare_prefix(b, *a.prefix);
  return c != 0 ? c > 0 : !a.after;
}

Table::Range Table::seek(const Index& index, const std::vector<Value>& prefix) {
  return {index.entries.lower_bound(IndexBound{&prefix, false}),
          index.entries.lower_bound(IndexBound{&prefix, true})};
}

Table::IndexKey Table::key_of(const Index& index, const Row& row,
                              RowId id) const {
  IndexKey key{row[index.columns.front()], {}, id};
  key.rest.reserve(index.columns.size() - 1);
  for (std::size_t j = 1; j < index.columns.size(); ++j) {
    key.rest.push_back(row[index.columns[j]]);
  }
  return key;
}

// --- table ------------------------------------------------------------------

Table::Table(std::string name, Schema schema,
             std::unique_ptr<storage::RowStore> store)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      store_(store ? std::move(store)
                   : std::make_unique<storage::MemStore>()) {
  // The primary key is always indexed: task-id lookups are the hot path of
  // the EMEWS DB (§IV-C).
  if (schema_.primary_key_index() >= 0) {
    Status created = create_index(
        schema_.column(static_cast<std::size_t>(schema_.primary_key_index()))
            .name);
    assert(created.is_ok());
    (void)created;
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

Status Table::create_index(const std::string& spec) {
  Result<std::vector<OrderTerm>> terms = parse_index_spec(spec);
  if (!terms.ok()) return terms.error();
  std::vector<std::size_t> columns;
  std::vector<bool> descending;
  for (const OrderTerm& term : terms.value()) {
    int idx = schema_.index_of(term.column);
    if (idx < 0) {
      return Status(ErrorCode::kInvalidArgument, "no column '" + term.column +
                                                     "' in table '" + name_ +
                                                     "'");
    }
    columns.push_back(static_cast<std::size_t>(idx));
    descending.push_back(!term.ascending);
  }
  const std::string canonical = index_spec_string(terms.value());
  if (indexes_.count(canonical)) return Status::ok();  // idempotent
  Index index{std::move(terms).take(), std::move(columns),
              IndexMap(IndexLess(std::move(descending)))};
  // Backfill before the hook logs the DDL: a failed scan must leave neither
  // a partial index nor a WAL record claiming the index exists.
  Status scanned = store_->scan([&](RowId id, const Row& row) {
    index.entries.insert(key_of(index, row, id));
    return Status::ok();
  });
  if (!scanned.is_ok()) return scanned;
  if (index_hook_) {
    Status logged = index_hook_(canonical);
    if (!logged.is_ok()) return logged;
  }
  indexes_.emplace(canonical, std::move(index));
  return Status::ok();
}

const Table::Index* Table::find_index(const std::string& spec) const {
  auto it = indexes_.find(spec);  // canonical spellings hit directly
  if (it == indexes_.end()) it = indexes_.find(canonical_spec(spec));
  return it == indexes_.end() ? nullptr : &it->second;
}

const Table::Index* Table::pk_index() const {
  const int pk = schema_.primary_key_index();
  if (pk < 0) return nullptr;
  // A one-column ascending spec is the column's name.
  auto it = indexes_.find(schema_.column(static_cast<std::size_t>(pk)).name);
  return it == indexes_.end() ? nullptr : &it->second;
}

bool Table::has_index(const std::string& spec) const {
  return find_index(spec) != nullptr;
}

std::vector<std::string> Table::index_specs() const {
  std::vector<std::string> specs;
  specs.reserve(indexes_.size());
  for (const auto& [spec, _] : indexes_) specs.push_back(spec);
  return specs;
}

void Table::for_each_index_entry(
    const std::string& spec,
    const std::function<void(const std::vector<Value>&, RowId)>& fn) const {
  const Index* index = find_index(spec);
  if (!index) return;
  for (const IndexKey& key : index->entries) fn(key.cells(), key.id);
}

Status Table::restore_index_entry(const std::string& spec,
                                  std::vector<Value> values, RowId id) {
  auto it = indexes_.find(spec);
  if (it == indexes_.end()) it = indexes_.find(canonical_spec(spec));
  if (it == indexes_.end()) {
    return Status(ErrorCode::kInvalidArgument,
                  "no index (" + spec + ") in table '" + name_ + "'");
  }
  Index& index = it->second;
  if (values.size() != index.columns.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "index (" + spec + ") entry has " +
                      std::to_string(values.size()) + " values, the index " +
                      std::to_string(index.columns.size()) + " columns");
  }
  IndexKey key{std::move(values.front()), {}, id};
  key.rest.assign(std::make_move_iterator(values.begin() + 1),
                  std::make_move_iterator(values.end()));
  index.entries.insert(std::move(key));
  if (id >= next_row_id_) next_row_id_ = id + 1;
  return Status::ok();
}

void Table::index_insert(const Row& row, RowId id) {
  for (auto& [spec, index] : indexes_) {
    index.entries.insert(key_of(index, row, id));
  }
}

void Table::index_erase(const Row& row, RowId id) {
  for (auto& [spec, index] : indexes_) {
    auto it = index.entries.find(key_of(index, row, id));
    if (it != index.entries.end()) index.entries.erase(it);
  }
}

void Table::index_update(const Row& old_row, const Row& new_row, RowId id) {
  for (auto& [spec, index] : indexes_) {
    bool changed = false;
    for (std::size_t column : index.columns) {
      if (!same_cell(old_row[column], new_row[column])) changed = true;
    }
    if (!changed) continue;
    auto it = index.entries.find(key_of(index, old_row, id));
    if (it != index.entries.end()) index.entries.erase(it);
    index.entries.insert(key_of(index, new_row, id));
  }
}

Status Table::check_pk_unique(const Row& row, const Row* old_row,
                              std::optional<RowId> ignore) const {
  const Index* pk = pk_index();
  if (!pk) return Status::ok();
  const std::size_t column = pk->columns.front();
  if (old_row && same_cell((*old_row)[column], row[column])) {
    return Status::ok();  // the row keeps its own key
  }
  const std::vector<Value> key{row[column]};
  auto [it, end] = seek(*pk, key);
  for (; it != end; ++it) {
    if (!ignore || it->id != *ignore) {
      return Status(ErrorCode::kConflict,
                    "duplicate primary key " + key.front().to_sql() +
                        " in table '" + name_ + "'");
    }
  }
  return Status::ok();
}

Result<RowId> Table::insert(Row row) {
  Status valid = schema_.validate(row);
  if (!valid.is_ok()) return valid.error();
  Status unique = check_pk_unique(row, nullptr, std::nullopt);
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
  const Index* pk = pk_index();
  if (!pk) return std::nullopt;
  ++index_lookups_;
  auto [it, end] = seek(*pk, {key});
  if (it == end) return std::nullopt;
  return it->id;
}

// --- planner and walk -------------------------------------------------------

Table::Plan Table::plan(const ScanOptions& options) const {
  // Rule (DESIGN.md §5.3): for each index, the seek prefix is its longest
  // run of leading columns that WHERE conjuncts pin by equality (an IN list
  // may pin the last one, expanding to one seek per value). The walk yields
  // the requested order when the index columns after the prefix, less the
  // pinned ones, are the ORDER BY terms (less the pinned ones) in the same
  // directions — or all reversed, walked backward. The plan with the
  // primary-key point probe wins, then the longest prefix, then an ordered
  // walk, then the earliest conjunct in WHERE order. An index with no
  // prefix is used only for an ordered walk under LIMIT.
  Plan best;
  std::vector<const Expr*> where;
  if (options.where) where = conjuncts(*options.where);
  std::vector<std::optional<InConstraint>> probes;
  probes.reserve(where.size());
  for (const Expr* conjunct : where) {
    probes.push_back(index_probe(*conjunct, options.params));
  }
  auto probe_on = [&](const std::string& column) {
    return std::find_if(probes.begin(), probes.end(), [&](const auto& p) {
      return p && p->column == column;
    });
  };
  // Columns every matching row holds one value in: they only tie, in ORDER
  // BY and in the index alike.
  auto pinned = [&](const std::string& column) {
    return std::any_of(probes.begin(), probes.end(), [&](const auto& p) {
      return p && p->column == column && p->values.size() == 1;
    });
  };
  // Do `index`'s columns from `k` on, less the pinned ones, walk in the
  // order of the ORDER BY terms, less the pinned ones (all flipped)?
  auto walks_in_order = [&](const Index& index, std::size_t k, bool flipped) {
    auto term = options.order_by.begin();
    auto next_wanted = [&] {
      while (term != options.order_by.end() && pinned(term->column)) ++term;
    };
    next_wanted();
    for (std::size_t j = k; j < index.terms.size(); ++j) {
      if (pinned(index.terms[j].column)) continue;
      if (term == options.order_by.end() ||
          term->column != index.terms[j].column ||
          (term->ascending != index.terms[j].ascending) != flipped) {
        return false;
      }
      ++term;
      next_wanted();
    }
    return term == options.order_by.end();
  };
  const bool wants_order = std::any_of(
      options.order_by.begin(), options.order_by.end(),
      [&](const OrderTerm& term) { return !pinned(term.column); });

  const Index* pk = pk_index();
  std::tuple<bool, std::size_t, bool, std::ptrdiff_t> best_score{false, 0,
                                                                 false, 0};
  std::size_t best_k = 0;
  for (const auto& [spec, index] : indexes_) {
    std::size_t k = 0;
    bool single = true;
    std::ptrdiff_t first = 0;
    for (; k < index.terms.size() && single; ++k) {
      auto hit = probe_on(index.terms[k].column);
      if (hit == probes.end()) break;
      if (k == 0) first = -(hit - probes.begin());
      single = (*hit)->values.size() == 1;
    }
    const bool forward = single && walks_in_order(index, k, false);
    const bool backward = single && !forward && walks_in_order(index, k, true);
    const bool ordered = forward || backward;
    if (k == 0 && !(ordered && wants_order && options.limit >= 0)) continue;
    const bool point = &index == pk && k == 1 && single;
    const auto score = std::make_tuple(point, k, ordered, first);
    if (best.index && score <= best_score) continue;
    best_score = score;
    best_k = k;
    best.index = &index;
    best.ordered = ordered;
    best.reverse = backward;
  }

  // The chosen seeks, and the conjuncts they leave to evaluate.
  std::vector<bool> covered(where.size(), false);
  if (best.index) {
    best.seeks.assign(1, {});
    for (std::size_t j = 0; j < best_k; ++j) {
      auto hit = probe_on(best.index->terms[j].column);
      covered[static_cast<std::size_t>(hit - probes.begin())] = true;
      const std::vector<Value>& values = (*hit)->values;
      if (values.size() == 1) {
        for (auto& prefix : best.seeks) prefix.push_back(values.front());
        continue;
      }
      // The prefix's last column: one seek per IN value (none for `= NULL`).
      std::vector<std::vector<Value>> expanded;
      for (const Value& v : values) {
        expanded.push_back(best.seeks.front());
        expanded.back().push_back(v);
      }
      best.seeks = std::move(expanded);
    }
  }
  for (std::size_t i = 0; i < where.size(); ++i) {
    if (!covered[i]) best.residual.push_back(where[i]);
  }
  return best;
}

Result<bool> Table::matches(RowId id, const std::vector<const Expr*>& conjuncts,
                            const std::vector<Value>& params,
                            Row* scratch) const {
  const Row* row = fetch_row(id, scratch);
  if (!row) return row_unavailable(id).error();
  for (const Expr* conjunct : conjuncts) {
    // Eval errors (bad column, missing param) are real errors, not "false".
    Error err{ErrorCode::kOk, ""};
    const bool hit = eval_predicate(*conjunct, schema_, *row, params, &err);
    if (err.code != ErrorCode::kOk) return err;
    if (!hit) return false;
  }
  return true;
}

Status Table::walk(const Plan& plan, const ScanOptions& options,
                   std::size_t limit, std::vector<RowId>& out) const {
  ++index_lookups_;
  Row scratch;
  auto emit = [&](const IndexKey& key) -> Status {
    ++index_entries_read_;
    if (!plan.residual.empty()) {
      Result<bool> hit =
          matches(key.id, plan.residual, options.params, &scratch);
      if (!hit.ok()) return hit.error();
      if (!hit.value()) return Status::ok();
    }
    out.push_back(key.id);
    return Status::ok();
  };
  for (const std::vector<Value>& prefix : plan.seeks) {
    auto [begin, end] = seek(*plan.index, prefix);
    if (!plan.reverse) {
      for (auto it = begin; it != end && out.size() < limit; ++it) {
        if (Status s = emit(*it); !s.is_ok()) return s;
      }
      continue;
    }
    // Backward one group of equal cells at a time, each group forward, so
    // ties keep ascending row-id order.
    while (end != begin && out.size() < limit) {
      const std::vector<Value> cells = std::prev(end)->cells();
      auto group = plan.index->entries.lower_bound(IndexBound{&cells, false});
      for (auto it = group; it != end && out.size() < limit; ++it) {
        if (Status s = emit(*it); !s.is_ok()) return s;
      }
      end = group;
    }
  }
  return Status::ok();
}

Result<std::vector<RowId>> Table::select(const ScanOptions& options) const {
  for (const OrderTerm& term : options.order_by) {
    if (schema_.index_of(term.column) < 0) {
      return Error(ErrorCode::kInvalidArgument,
                   "ORDER BY unknown column '" + term.column + "'");
    }
  }
  const std::size_t limit =
      options.limit >= 0 ? static_cast<std::size_t>(options.limit) : kNoLimit;
  const Plan p = plan(options);
  std::vector<RowId> ids;
  if (p.index) {
    Status walked = walk(p, options, p.ordered ? limit : kNoLimit, ids);
    if (!walked.is_ok()) return walked.error();
    if (p.ordered) return ids;
    std::sort(ids.begin(), ids.end());  // deterministic base order
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  } else {
    ++full_scans_;
    Row scratch;
    for (RowId id : all_row_ids()) {
      if (!p.residual.empty()) {
        Result<bool> hit = matches(id, p.residual, options.params, &scratch);
        if (!hit.ok()) return hit.error();
        if (!hit.value()) continue;
      }
      ids.push_back(id);
    }
  }
  Status ordered = order_rows(ids, options.order_by);
  if (!ordered.is_ok()) return ordered.error();
  if (ids.size() > limit) ids.resize(limit);
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

Result<std::vector<Value>> Table::distinct_values(
    const std::vector<EqConstraint>& prefix, const std::string& column) const {
  for (const auto& [spec, index] : indexes_) {
    if (index.terms.size() <= prefix.size() ||
        index.terms[prefix.size()].column != column) {
      continue;
    }
    std::vector<Value> bound;
    for (std::size_t j = 0; j < prefix.size(); ++j) {
      auto pin = std::find_if(prefix.begin(), prefix.end(), [&](const auto& c) {
        return c.column == index.terms[j].column;
      });
      if (pin == prefix.end()) break;
      bound.push_back(pin->value);
    }
    if (bound.size() != prefix.size()) continue;
    ++index_lookups_;
    std::vector<Value> out;
    auto [it, end] = seek(index, bound);
    while (it != end) {
      ++index_entries_read_;
      out.push_back(it->cell(prefix.size()));
      bound.push_back(out.back());
      it = index.entries.lower_bound(IndexBound{&bound, true});
      bound.pop_back();
    }
    if (!index.terms[prefix.size()].ascending) {
      std::reverse(out.begin(), out.end());
    }
    return out;
  }
  return Error(ErrorCode::kInvalidArgument,
               "no index of table '" + name_ + "' leads with the pinned "
               "columns then '" + column + "'");
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
    Status unique = check_pk_unique(new_row, &old_row, id);
    if (!unique.is_ok()) return unique.error();
    index_update(old_row, new_row, id);
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
  Status unique = check_pk_unique(row, &*old_row, id);
  if (!unique.is_ok()) return unique;
  index_update(*old_row, row, id);
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
  for (auto& [spec, index] : indexes_) index.entries.clear();
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
