// A single relational table: typed rows, primary-key uniqueness, secondary
// indexes, predicate scans with ORDER BY / LIMIT, and an undo journal hook
// used by Database transactions.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "osprey/db/expr.h"
#include "osprey/db/value.h"
#include "osprey/storage/row_store.h"

namespace osprey::db {

/// ORDER BY term: column plus direction. Also one key column of an index.
struct OrderTerm {
  std::string column;
  bool ascending = true;
};

/// Canonical text of an index's key columns: the columns joined by ", ",
/// each descending one followed by " DESC" ("a, b DESC, c"). A single
/// ascending column is just its name. This one string names the index in
/// Table::create_index, the WAL's kCreateIndex record, checkpoint manifests
/// and dumps.
std::string index_spec_string(const std::vector<OrderTerm>& columns);

/// Parse an index spec ("a, b DESC, c"; ASC/DESC in any case, ASC optional).
/// kInvalidArgument for an empty spec, an empty or repeated column, or an
/// unknown direction word.
Result<std::vector<OrderTerm>> parse_index_spec(const std::string& spec);

/// Scan options: WHERE + ORDER BY + LIMIT.
struct ScanOptions {
  ExprPtr where;                    // null => all rows
  std::vector<Value> params;        // bind parameters for `where`
  std::vector<OrderTerm> order_by;  // empty => row-id order (deterministic)
  std::int64_t limit = -1;          // -1 => unlimited
};

/// Mutation record for transaction rollback.
struct UndoRecord {
  enum class Kind { kInsert, kUpdate, kDelete } kind;
  std::string table;
  RowId row_id;
  Row old_row;  // valid for kUpdate / kDelete
};

class Table {
 public:
  /// `store` is the row storage engine; nullptr selects the default
  /// all-in-memory MemStore (the historical behaviour). Database installs an
  /// engine-backed store via its store factory (storage/engine.h).
  Table(std::string name, Schema schema,
        std::unique_ptr<storage::RowStore> store = nullptr);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::size_t row_count() const { return store_->size(); }

  /// Create a secondary index. `spec` names its key columns in order, each
  /// ascending or descending ("status", or "type, priority DESC, id"; see
  /// parse_index_spec). Existing rows are indexed. Creating an index that
  /// exists (by canonical spec) is a no-op. When an index hook is installed
  /// (by the owning Database, so DDL reaches its CommitObserver) a hook
  /// failure aborts the creation.
  Status create_index(const std::string& spec);

  /// Installed by Database::create_table to route index DDL to the commit
  /// observer. Standalone tables have no hook. The hook sees the canonical
  /// spec (index_spec_string).
  using IndexHook = std::function<Status(const std::string& spec)>;
  void set_index_hook(IndexHook hook) { index_hook_ = std::move(hook); }
  bool has_index(const std::string& spec) const;
  /// Canonical specs of every index, the primary-key index included, in
  /// spec order.
  std::vector<std::string> index_specs() const;

  /// Insert a row. Enforces schema validation and primary-key uniqueness.
  Result<RowId> insert(Row row);

  /// Fetch a row by id.
  std::optional<Row> get(RowId id) const;

  /// Find row ids matching the scan options, in the requested order (ties,
  /// and an empty ORDER BY, resolve by ascending row id). The planner seeks
  /// the index whose leading columns the WHERE conjuncts pin by equality and
  /// walks it in key order; see plan() for the rule. Otherwise it scans all
  /// rows and sorts.
  Result<std::vector<RowId>> select(const ScanOptions& options) const;

  /// The distinct values of `column` among rows whose `prefix` columns equal
  /// the given values, ascending. A skip scan: it needs an index whose
  /// leading columns are the prefix columns, in any order, then `column`,
  /// and costs one seek per distinct value and no row reads.
  /// kInvalidArgument when no index has that shape.
  Result<std::vector<Value>> distinct_values(
      const std::vector<EqConstraint>& prefix, const std::string& column) const;

  /// Single-row convenience: first match or nullopt.
  Result<std::optional<RowId>> select_one(const ScanOptions& options) const;

  /// Find a row by primary key (requires a PRIMARY KEY column).
  std::optional<RowId> find_pk(const Value& key) const;

  /// Apply `assignments` (column -> expression) to all rows matching
  /// `options.where`. Returns number of rows updated.
  Result<std::size_t> update(
      const ScanOptions& options,
      const std::vector<std::pair<std::string, ExprPtr>>& assignments);

  /// Overwrite one row wholesale (validated). Used by rollback.
  Status update_row(RowId id, Row row);

  /// Delete rows matching `options.where`. Returns number deleted.
  Result<std::size_t> erase(const ScanOptions& options);

  /// Delete one row by id. Returns false when absent.
  bool erase_row(RowId id);

  /// Remove every row (keeps schema and index definitions). Fails without
  /// touching the store when a spilled row cannot be read for the undo
  /// journal (the rollback would otherwise lose rows silently).
  Status clear();

  /// All row ids in insertion (row-id) order.
  std::vector<RowId> all_row_ids() const;

  /// Transactions: when a journal is attached, every mutation appends an
  /// UndoRecord describing how to reverse it.
  void attach_journal(std::vector<UndoRecord>* journal) { journal_ = journal; }
  void detach_journal() { journal_ = nullptr; }

  /// Re-insert a row under a specific id (rollback of a delete, WAL replay,
  /// snapshot restore with preserved ids).
  Status restore_row(RowId id, Row row);

  /// Manifest support (storage/manifest.*): enumerate one index's (key
  /// values, row id) entries in index order, and re-insert a single index
  /// entry for a row whose data lives in a spilled run — checkpoint manifests
  /// persist index entries of non-resident rows so recovery never reads the
  /// runs.
  void for_each_index_entry(
      const std::string& spec,
      const std::function<void(const std::vector<Value>&, RowId)>& fn) const;
  Status restore_index_entry(const std::string& spec, std::vector<Value> values,
                             RowId id);

  /// The row storage engine behind this table.
  storage::RowStore& store() { return *store_; }
  const storage::RowStore& store() const { return *store_; }

  /// Never assign ids below `next` (snapshot restore of a table whose
  /// highest-id rows were deleted before the dump).
  void reserve_next_row_id(RowId next) {
    if (next > next_row_id_) next_row_id_ = next;
  }
  RowId next_row_id() const { return next_row_id_; }

  /// Un-burn the id of an undone insert (rollback runs the journal in
  /// reverse, so a transaction's allocations unwind completely). Keeps a
  /// rolled-back transaction fully invisible — snapshots record next_row_id.
  void release_row_id(RowId id) {
    if (id + 1 == next_row_id_) next_row_id_ = id;
  }

  /// Cumulative scan statistics — exposed so benches and tests can verify
  /// that indexed queries do not degrade into full scans and that a query's
  /// index work does not grow with the table. `index_lookups` counts index
  /// plans (and primary-key probes), `index_entries_read` every index entry
  /// a walk yields.
  std::uint64_t full_scans() const { return full_scans_; }
  std::uint64_t index_lookups() const { return index_lookups_; }
  std::uint64_t index_entries_read() const { return index_entries_read_; }

 private:
  /// An index key: the row's cells in index column order, then its row id.
  /// The row id makes every key unique, so erase is one O(log n) lookup,
  /// and rows with equal cells sit in ascending row-id order: the sort
  /// path's tie rule. The first cell lives in the set node itself, so a
  /// one-column index (every index of a growing history table) compares
  /// without chasing a second allocation.
  struct IndexKey {
    Value first;
    std::vector<Value> rest;  // cells 2..k
    RowId id;
    const Value& cell(std::size_t i) const {
      return i == 0 ? first : rest[i - 1];
    }
    std::vector<Value> cells() const;
  };
  /// A seek bound: orders before (or, with `after`, after) every key whose
  /// leading cells equal `prefix`.
  struct IndexBound {
    const std::vector<Value>* prefix;
    bool after;
  };
  /// Orders keys cell by cell, each in its column's direction, then by row
  /// id ascending.
  class IndexLess {
   public:
    using is_transparent = void;
    explicit IndexLess(std::vector<bool> descending)
        : descending_(std::move(descending)) {}
    bool operator()(const IndexKey& a, const IndexKey& b) const;
    bool operator()(const IndexKey& a, const IndexBound& b) const;
    bool operator()(const IndexBound& a, const IndexKey& b) const;

   private:
    int compare_cells(const IndexKey& a, const IndexKey& b,
                      std::size_t n) const;
    int compare_prefix(const IndexKey& a, const std::vector<Value>& b) const;
    std::vector<bool> descending_;
  };
  /// The one index structure: primary-key, single-column and composite
  /// indexes are all ordered sets of IndexKey.
  using IndexMap = std::set<IndexKey, IndexLess>;
  struct Index {
    std::vector<OrderTerm> terms;      // key columns and directions
    std::vector<std::size_t> columns;  // schema position of each term
    IndexMap entries;
  };

  /// How select() reaches its rows. With an index: one seek per equality
  /// prefix in `seeks` (IN lists expand to several), walking each range
  /// forward (or, `reverse`, backward by equal-key groups). `ordered` says
  /// the walk already yields the requested order, so select() stops after
  /// LIMIT matches; otherwise it sorts what the walk yields. A row is read
  /// only to evaluate the `residual` conjuncts, those the seek does not
  /// answer.
  struct Plan {
    const Index* index = nullptr;  // nullptr => full scan
    std::vector<std::vector<Value>> seeks;
    bool ordered = false;
    bool reverse = false;
    std::vector<const Expr*> residual;
  };
  Plan plan(const ScanOptions& options) const;
  /// The entries whose leading cells equal `prefix`, as [first, last).
  using Range = std::pair<IndexMap::const_iterator, IndexMap::const_iterator>;
  static Range seek(const Index& index, const std::vector<Value>& prefix);
  /// Walk `plan`'s index ranges, appending ids of rows that satisfy the
  /// residual conjuncts until `out` holds `limit` ids.
  Status walk(const Plan& plan, const ScanOptions& options, std::size_t limit,
              std::vector<RowId>& out) const;
  /// Does the row under `id` satisfy every conjunct? Reads the row.
  Result<bool> matches(RowId id, const std::vector<const Expr*>& conjuncts,
                       const std::vector<Value>& params, Row* scratch) const;

  /// The index named by `spec` (any spelling of its canonical spec), or
  /// nullptr.
  const Index* find_index(const std::string& spec) const;
  const Index* pk_index() const;
  IndexKey key_of(const Index& index, const Row& row, RowId id) const;
  void index_insert(const Row& row, RowId id);
  void index_erase(const Row& row, RowId id);
  /// Move `id`'s entries from `old_row`'s key to `new_row`'s, skipping every
  /// index whose cells the change leaves as they were.
  void index_update(const Row& old_row, const Row& new_row, RowId id);
  /// kConflict when another row holds `row`'s primary key. An update
  /// passes the row's `old_row`: an unchanged key needs no lookup.
  Status check_pk_unique(const Row& row, const Row* old_row,
                         std::optional<RowId> ignore) const;
  Status order_rows(std::vector<RowId>& ids,
                    const std::vector<OrderTerm>& order_by) const;

  /// Borrow the row under `id` without copying when it is memory-resident;
  /// spilled rows are materialized into `*scratch`. Returns nullptr when a
  /// spilled row cannot be read (device error) — callers surface
  /// row_unavailable() instead of proceeding with a garbage row. The caller
  /// must not mutate the store while the pointer is live.
  const Row* fetch_row(RowId id, Row* scratch) const;

  /// kUnavailable for a live row whose backing run could not be read.
  Status row_unavailable(RowId id) const;

  std::string name_;
  Schema schema_;
  std::unique_ptr<storage::RowStore> store_;  // ascending-id => deterministic
  RowId next_row_id_ = 1;
  std::map<std::string, Index> indexes_;  // canonical spec -> index
  std::vector<UndoRecord>* journal_ = nullptr;
  IndexHook index_hook_;
  mutable std::uint64_t full_scans_ = 0;
  mutable std::uint64_t index_lookups_ = 0;
  mutable std::uint64_t index_entries_read_ = 0;
};

}  // namespace osprey::db
