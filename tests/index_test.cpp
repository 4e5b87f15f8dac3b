// The ordered-index mechanism (DESIGN.md §5.3): every index is an ordered
// set of (cells..., row id) keys; the planner seeks an equality prefix and
// walks the rest in key order. Covered here: canonical specs, the seek and
// walk against the sort path, index consistency through updates, composite
// indexes through every durability path (WAL replay, checkpoint manifests
// with spilled rows, dump/restore, replication), the upgrade of databases
// written by the pre-composite schema, the EQSQL claim costs the mechanism
// makes independent of backlog and history, and the weighted-fair claim
// against the whole-queue algorithm it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "osprey/core/clock.h"
#include "osprey/core/rng.h"
#include "osprey/db/database.h"
#include "osprey/db/dump.h"
#include "osprey/db/sql_exec.h"
#include "osprey/db/wal.h"
#include "osprey/eqsql/db_api.h"
#include "osprey/eqsql/schema.h"
#include "osprey/eqsql/service.h"
#include "osprey/net/network.h"
#include "osprey/repl/group.h"
#include "osprey/storage/engine.h"
#include "osprey/tenant/registry.h"

namespace osprey {
namespace {

using db::Row;
using db::RowId;
using db::Value;

/// A MemStore that counts row reads (point reads, borrowed reads, and every
/// row a scan or an id listing touches) into a shared counter.
class CountingStore : public storage::RowStore {
 public:
  explicit CountingStore(std::uint64_t* reads) : reads_(reads) {}
  void put(RowId id, Row row) override { inner_.put(id, std::move(row)); }
  std::optional<Row> get(RowId id) const override {
    ++*reads_;
    return inner_.get(id);
  }
  const Row* get_ref(RowId id) const override {
    ++*reads_;
    return inner_.get_ref(id);
  }
  bool erase(RowId id) override { return inner_.erase(id); }
  void clear() override { inner_.clear(); }
  std::size_t size() const override { return inner_.size(); }
  bool contains(RowId id) const override { return inner_.contains(id); }
  std::vector<RowId> ids() const override {
    std::vector<RowId> ids = inner_.ids();
    *reads_ += ids.size();
    return ids;
  }
  Status scan(const std::function<Status(RowId, const Row&)>& fn)
      const override {
    return inner_.scan([&](RowId id, const Row& row) {
      ++*reads_;
      return fn(id, row);
    });
  }

 private:
  storage::MemStore inner_;
  std::uint64_t* reads_;
};

void count_reads(db::Database& db, std::uint64_t* reads) {
  db.set_store_factory([reads](const std::string&) {
    return std::make_unique<CountingStore>(reads);
  });
}

std::string dump_str(const db::Database& db) {
  return db::dump_database(db).dump();
}

db::Schema abc_schema() {
  return db::Schema({{"id", db::ColumnType::kInt, false, true},
                     {"a", db::ColumnType::kInt, true, false},
                     {"b", db::ColumnType::kInt, true, false},
                     {"c", db::ColumnType::kText, true, false}});
}

/// Rows with many ties: a in 0..3, b in 0..4, c in {x, y}.
void fill_abc(db::Table& t, int n) {
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(t.insert({Value(std::int64_t{i}), Value(std::int64_t{i % 4}),
                          Value(std::int64_t{(i * 7) % 5}),
                          Value(i % 3 == 0 ? "x" : "y")})
                    .ok());
  }
}

// --- specs -------------------------------------------------------------------

TEST(IndexSpecTest, SpecsAreCanonicalAndMalformedOnesRejected) {
  EXPECT_EQ(db::parse_index_spec("a").value().size(), 1u);
  auto spelled = db::parse_index_spec(" a asc,b desc ,  c ");
  ASSERT_TRUE(spelled.ok());
  EXPECT_EQ(db::index_spec_string(spelled.value()), "a, b DESC, c");
  EXPECT_EQ(db::index_spec_string(db::parse_index_spec("a ASC").value()), "a");
  for (const char* bad : {"", " ", "a,,b", "a b", "a DESC x", "a, a", ","}) {
    EXPECT_FALSE(db::parse_index_spec(bad).ok()) << bad;
  }

  db::Table t("t", abc_schema());
  EXPECT_EQ(t.index_specs(), std::vector<std::string>{"id"});
  ASSERT_TRUE(t.create_index("b DESC, a").is_ok());
  EXPECT_TRUE(t.has_index("b desc , a asc"));
  EXPECT_FALSE(t.has_index("b, a"));
  EXPECT_TRUE(t.create_index("b  DESC,a").is_ok());  // same index: no-op
  EXPECT_EQ(t.index_specs(), (std::vector<std::string>{"b DESC, a", "id"}));
  EXPECT_EQ(t.create_index("a, nope").code(), ErrorCode::kInvalidArgument);
}

TEST(IndexSpecTest, SqlCreatesCompositeIndexesIdempotently) {
  db::Database db;
  db::sql::Connection conn(db);
  ASSERT_TRUE(conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                           "a INTEGER, b INTEGER, c TEXT)")
                  .ok());
  ASSERT_TRUE(conn.execute("CREATE INDEX ON t (a, b DESC, c ASC)").ok());
  ASSERT_TRUE(conn.execute("CREATE INDEX ON t (a, b DESC, c)").ok());
  EXPECT_EQ(db.table("t")->index_specs(),
            (std::vector<std::string>{"a, b DESC, c", "id"}));
  EXPECT_FALSE(conn.execute("CREATE INDEX ON t (a, a)").ok());
  EXPECT_FALSE(conn.execute("CREATE INDEX ON t ()").ok());
}

// --- planner and walk ----------------------------------------------------------

TEST(IndexWalkTest, SeekAnswersCoveredConjunctsWithoutReadingRows) {
  std::uint64_t reads = 0;
  db::Database db;
  count_reads(db, &reads);
  db::Table* t = db.create_table("t", abc_schema()).value();
  fill_abc(*t, 200);
  db::Database plain_db;
  db::Table* plain = plain_db.create_table("t", abc_schema()).value();
  fill_abc(*plain, 200);
  ASSERT_TRUE(t->create_index("a, b DESC").is_ok());

  struct Query {
    db::ExprPtr where;
    std::vector<db::OrderTerm> order_by;
    std::int64_t limit;
    bool reads_rows;
  };
  const std::vector<Query> queries = {
      // Forward walk: the ORDER BY is the index suffix.
      {db::eq("a", Value(2)), {{"b", false}}, 7, false},
      // Backward walk by equal-key groups: ties stay in row-id order.
      {db::eq("a", Value(2)), {{"b", true}}, 7, false},
      // The pinned column in ORDER BY only ties.
      {db::eq("a", Value(1)), {{"a", true}, {"b", false}}, 5, false},
      // No ORDER BY under a partial prefix: walk, then row-id order.
      {db::eq("a", Value(3)), {}, -1, false},
      // A full-equality seek is in row-id order already.
      {db::and_(db::eq("b", Value(4)), db::eq("a", Value(0))), {}, 4, false},
      // IN on the last prefix column: one seek per value, then row-id order.
      {db::in_list(db::col("a"), {db::lit(Value(1)), db::lit(Value(3))}),
       {},
       9,
       false},
      // A conjunct the seek does not answer reads the walked rows only.
      {db::and_(db::eq("a", Value(2)), db::eq("c", Value("x"))),
       {{"b", false}},
       3,
       true},
  };
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(q);
    db::ScanOptions options;
    options.where = queries[q].where;
    options.order_by = queries[q].order_by;
    options.limit = queries[q].limit;
    const std::uint64_t scans = t->full_scans();
    reads = 0;
    auto walked = t->select(options);
    ASSERT_TRUE(walked.ok());
    EXPECT_EQ(t->full_scans(), scans);
    if (queries[q].reads_rows) {
      EXPECT_GT(reads, 0u);
      EXPECT_LE(reads, 50u);  // the a = 2 range, never the table
    } else {
      EXPECT_EQ(reads, 0u);
    }
    auto sorted = plain->select(options);
    ASSERT_TRUE(sorted.ok());
    EXPECT_EQ(walked.value(), sorted.value());
  }
}

TEST(IndexWalkTest, EveryIndexMatchesItsRowsThroughUpdatesAndDeletes) {
  db::Database db;
  db::sql::Connection conn(db);
  db::Table* t = db.create_table("t", abc_schema()).value();
  fill_abc(*t, 120);
  for (const char* spec : {"a, b DESC", "c, id DESC", "b"}) {
    ASSERT_TRUE(t->create_index(spec).is_ok());
  }
  Rng rng(11);
  for (int step = 0; step < 200; ++step) {
    const std::int64_t id = rng.uniform_int(1, 130);
    switch (rng.uniform_int(0, 3)) {
      case 0:  // changes an indexed cell
        ASSERT_TRUE(conn.execute("UPDATE t SET b = ? WHERE id = ?",
                                 {Value(rng.uniform_int(0, 6)), Value(id)})
                        .ok());
        break;
      case 1:  // touches only `c`'s index
        ASSERT_TRUE(conn.execute("UPDATE t SET c = NULL WHERE id = ?",
                                 {Value(id)})
                        .ok());
        break;
      case 2:
        ASSERT_TRUE(conn.execute("DELETE FROM t WHERE id = ?", {Value(id)}).ok());
        break;
      default:
        (void)conn.execute("INSERT INTO t VALUES (?, ?, 1, 'z')",
                           {Value(id), Value(id % 4)});
        break;
    }
  }
  for (const std::string& spec : t->index_specs()) {
    SCOPED_TRACE(spec);
    const auto terms = db::parse_index_spec(spec).value();
    std::size_t entries = 0;
    t->for_each_index_entry(
        spec, [&](const std::vector<Value>& values, RowId id) {
          ++entries;
          std::optional<Row> row = t->get(id);
          ASSERT_TRUE(row.has_value());
          for (std::size_t k = 0; k < terms.size(); ++k) {
            const int col = t->schema().index_of(terms[k].column);
            EXPECT_EQ(values[k].compare((*row)[static_cast<std::size_t>(col)]),
                      0);
          }
        });
    EXPECT_EQ(entries, t->row_count());
  }
}

// --- persistence -----------------------------------------------------------------

/// A database whose table `t` carries a composite and a one-column index.
void build_indexed(db::Database& db, int rows) {
  db::sql::Connection conn(db);
  ASSERT_TRUE(conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, "
                           "a INTEGER, b INTEGER, c TEXT)")
                  .ok());
  ASSERT_TRUE(conn.execute("CREATE INDEX ON t (a, b DESC)").ok());
  ASSERT_TRUE(conn.execute("CREATE INDEX ON t (c)").ok());
  for (int i = 1; i <= rows; ++i) {
    ASSERT_TRUE(conn.execute("INSERT INTO t VALUES (?, ?, ?, ?)",
                             {Value(std::int64_t{i}), Value(std::int64_t{i % 3}),
                              Value(std::int64_t{i % 5}),
                              Value("payload-" + std::to_string(i))})
                    .ok());
  }
}

/// The ids of `WHERE a = 1 ORDER BY b DESC LIMIT 10`, through SQL.
std::vector<std::int64_t> walk_ids(db::Database& db) {
  db::sql::Connection conn(db);
  auto r = conn.execute("SELECT id FROM t WHERE a = 1 ORDER BY b DESC LIMIT 10");
  EXPECT_TRUE(r.ok());
  std::vector<std::int64_t> ids;
  if (r.ok()) {
    for (const Row& row : r.value().rows) ids.push_back(row[0].as_int());
  }
  return ids;
}

TEST(CompositeIndexPersistenceTest, WalReplayRebuildsTheIndexFromItsSpecRecord) {
  auto disk = std::make_shared<db::wal::SimDisk>();
  std::string expected;
  std::vector<std::int64_t> expected_ids;
  {
    db::wal::SimLogDevice device(disk);
    db::wal::WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    db::Database db;
    manager.attach(db);
    build_indexed(db, 40);
    expected = dump_str(db);
    expected_ids = walk_ids(db);
  }
  // On disk: one kCreateIndex record per index, carrying the canonical spec.
  db::wal::SimLogDevice device(disk);
  db::wal::WalCursor cursor(device, 1);
  std::vector<std::string> specs;
  while (true) {
    Result<db::wal::CursorBatch> batch = cursor.next(64);
    ASSERT_TRUE(batch.ok());
    if (batch.value().empty()) break;
    for (const db::wal::Record& r : batch.value().records) {
      if (r.type == db::wal::RecordType::kCreateIndex) specs.push_back(r.column);
    }
  }
  EXPECT_EQ(specs, (std::vector<std::string>{"a, b DESC", "c"}));

  db::Database recovered;
  ASSERT_TRUE(db::wal::recover(device, recovered).ok());
  EXPECT_TRUE(recovered.table("t")->has_index("a, b DESC"));
  EXPECT_EQ(dump_str(recovered), expected);
  EXPECT_EQ(walk_ids(recovered), expected_ids);
}

TEST(CompositeIndexPersistenceTest, ManifestSpillsCompositeEntriesAsTuples) {
  storage::StorageOptions opts;
  opts.memtable_bytes = 2048;  // a handful of rows per run
  opts.block_bytes = 512;
  auto disk = std::make_shared<db::wal::SimDisk>();
  std::string expected;
  std::vector<std::int64_t> expected_ids;
  db::wal::Lsn ckpt_lsn = 0;
  {
    db::wal::SimLogDevice device(disk);
    storage::StorageEngine engine(device, opts);
    db::Database db;
    ASSERT_TRUE(engine.attach(db).is_ok());
    db::wal::WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    manager.attach(db);
    engine.install(manager);
    build_indexed(db, 120);
    ASSERT_GT(engine.stats().spilled_rows, 0u);
    Result<db::wal::Lsn> ckpt = manager.checkpoint(db);
    ASSERT_TRUE(ckpt.ok());
    ckpt_lsn = ckpt.value();
    expected = dump_str(db);
    expected_ids = walk_ids(db);
  }
  db::wal::SimLogDevice device(disk);
  Result<json::Value> manifest = db::wal::decode_checkpoint(
      device.read(db::wal::checkpoint_segment_name(ckpt_lsn)).value(), nullptr);
  ASSERT_TRUE(manifest.ok());
  const json::Value& spilled = manifest.value()["tables"]["t"]["spilled_index"];
  // A composite entry is [[a, b], id]; a one-column entry stays [c, id].
  const json::Value& composite = spilled["a, b DESC"];
  ASSERT_GT(composite.size(), 0u);
  EXPECT_TRUE(composite[0][0].is_array());
  EXPECT_EQ(composite[0][0].size(), 2u);
  ASSERT_GT(spilled["c"].size(), 0u);
  EXPECT_TRUE(spilled["c"][0][0].is_string());

  storage::StorageEngine engine(device, opts);
  db::Database recovered;
  ASSERT_TRUE(engine.recover(recovered).ok());
  EXPECT_TRUE(recovered.table("t")->has_index("a, b DESC"));
  EXPECT_EQ(dump_str(recovered), expected);
  EXPECT_EQ(walk_ids(recovered), expected_ids);
}

TEST(CompositeIndexPersistenceTest, DumpRestoreKeepsSpecsAndOneColumnShape) {
  db::Database db;
  build_indexed(db, 30);
  json::Value doc = db::dump_database(db);
  // One-column indexes are listed by column name, as they always were.
  const json::Value& indexes = doc["tables"]["t"]["indexes"];
  ASSERT_EQ(indexes.size(), 3u);
  EXPECT_EQ(indexes[0].as_string(), "a, b DESC");
  EXPECT_EQ(indexes[1].as_string(), "c");
  EXPECT_EQ(indexes[2].as_string(), "id");
  db::Database restored;
  ASSERT_TRUE(db::restore_database(restored, doc).is_ok());
  EXPECT_TRUE(restored.table("t")->has_index("a, b DESC"));
  EXPECT_EQ(dump_str(restored), dump_str(db));
  EXPECT_EQ(walk_ids(restored), walk_ids(db));
}

TEST(CompositeIndexPersistenceTest, FollowerAppliesShippedCompositeIndexDdl) {
  ManualClock clock;
  net::Network network = net::Network::testbed();
  repl::ReplicationGroup group(clock, network);
  repl::ReplicaNode* leader = group.create_leader("lead", "bebop").value();
  repl::ReplicaNode* follower = group.add_follower("f1", "theta").value();
  build_indexed(leader->database(), 25);
  ASSERT_TRUE(group.pump().ok());
  EXPECT_EQ(follower->applied_lsn(), leader->applied_lsn());
  EXPECT_TRUE(follower->database().table("t")->has_index("a, b DESC"));
  EXPECT_EQ(dump_str(follower->database()), dump_str(leader->database()));
  EXPECT_EQ(walk_ids(follower->database()), walk_ids(leader->database()));
}

// --- pre-composite EQSQL databases --------------------------------------------------

// The EMEWS schema before the composite claim indexes: eq_output_queue had
// one-column indexes on eq_task_type and eq_priority.
const char* const kPreCompositeSchema[] = {
    "CREATE TABLE eq_tasks (eq_task_id INTEGER PRIMARY KEY, "
    "eq_task_type INTEGER NOT NULL, eq_status TEXT NOT NULL, "
    "eq_priority INTEGER NOT NULL, json_out TEXT, json_in TEXT, "
    "worker_pool TEXT, time_created REAL NOT NULL, time_start REAL, "
    "time_stop REAL, tenant TEXT)",
    "CREATE INDEX ON eq_tasks (eq_status)",
    "CREATE INDEX ON eq_tasks (eq_task_type)",
    "CREATE TABLE eq_output_queue (eq_task_id INTEGER PRIMARY KEY, "
    "eq_task_type INTEGER NOT NULL, eq_priority INTEGER NOT NULL, tenant TEXT)",
    "CREATE INDEX ON eq_output_queue (eq_task_type)",
    "CREATE INDEX ON eq_output_queue (eq_priority)",
    "CREATE TABLE eq_input_queue (eq_task_id INTEGER PRIMARY KEY, "
    "eq_task_type INTEGER NOT NULL)",
    "CREATE INDEX ON eq_input_queue (eq_task_type)",
    "CREATE TABLE eq_experiments (exp_id TEXT NOT NULL, "
    "eq_task_id INTEGER NOT NULL)",
    "CREATE INDEX ON eq_experiments (exp_id)",
    "CREATE TABLE eq_task_tags (eq_task_id INTEGER NOT NULL, tag TEXT NOT NULL)",
    "CREATE INDEX ON eq_task_tags (tag)",
    "CREATE TABLE eq_meta (meta_key TEXT PRIMARY KEY, meta_value INTEGER)",
    "INSERT INTO eq_meta VALUES ('next_task_id', 1)",
};

constexpr const char* kTypeFirst = "eq_task_type, eq_priority DESC, eq_task_id";
constexpr const char* kTenantFirst =
    "eq_task_type, tenant, eq_priority DESC, eq_task_id";

TEST(SchemaUpgradeTest, PreCompositeLogRecoversGainsIndexesAndClaimsInOrder) {
  constexpr WorkType kType = 3;
  auto disk = std::make_shared<db::wal::SimDisk>();
  std::vector<std::pair<Priority, TaskId>> queued;
  {
    db::wal::SimLogDevice device(disk);
    db::wal::WalManager manager(device);
    ASSERT_TRUE(manager.open().is_ok());
    db::Database db;
    manager.attach(db);
    db::sql::Connection conn(db);
    for (const char* sql : kPreCompositeSchema) ASSERT_TRUE(conn.execute(sql).ok());
    ManualClock clock;
    eqsql::EQSQL api(db, clock);
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
      if (i == 30) {
        ASSERT_TRUE(manager.checkpoint(db).ok());
      }
      const auto priority = static_cast<Priority>(rng.uniform_int(0, 3));
      Result<TaskId> id = api.submit_task("old", kType, "{}", priority);
      ASSERT_TRUE(id.ok());
      queued.emplace_back(priority, id.value());
    }
    EXPECT_FALSE(db.table("eq_output_queue")->has_index(kTypeFirst));
  }
  std::sort(queued.begin(), queued.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });

  ManualClock clock;
  {
    eqsql::EmewsService service(clock);
    db::wal::SimLogDevice device(disk);
    ASSERT_TRUE(service.recover_from_wal(device).ok());
    const db::Table* queue = service.database().table("eq_output_queue");
    EXPECT_TRUE(queue->has_index(kTypeFirst));
    EXPECT_TRUE(queue->has_index(kTenantFirst));
    EXPECT_TRUE(queue->has_index("eq_priority"));  // old indexes stay
    auto api = service.connect();
    ASSERT_TRUE(api.ok());
    for (std::size_t i = 0; i < 10; ++i) {
      auto claimed = api.value()->try_query_tasks(kType, 1);
      ASSERT_TRUE(claimed.ok());
      ASSERT_EQ(claimed.value().size(), 1u);
      EXPECT_EQ(claimed.value().front().eq_task_id, queued[i].second);
    }
  }
  // The upgrade was logged: a plain replay of the log finds the indexes.
  db::wal::SimLogDevice device(disk);
  db::Database replayed;
  ASSERT_TRUE(db::wal::recover(device, replayed).ok());
  EXPECT_TRUE(replayed.table("eq_output_queue")->has_index(kTenantFirst));
}

TEST(SchemaUpgradeTest, CurrentSchemaKeepsThreeOutputQueueIndexes) {
  db::Database db;
  db::sql::Connection conn(db);
  ASSERT_TRUE(eqsql::create_schema(conn).is_ok());
  EXPECT_EQ(db.table("eq_output_queue")->index_specs(),
            (std::vector<std::string>{"eq_task_id", kTypeFirst, kTenantFirst}));
  ASSERT_TRUE(eqsql::upgrade_schema(conn).is_ok());  // idempotent
  EXPECT_EQ(db.table("eq_output_queue")->index_specs().size(), 3u);
}

// --- EQSQL costs ----------------------------------------------------------------------

constexpr WorkType kWork = 1;

/// One EMEWS database with every table on a counting store.
struct CountedEmews {
  std::uint64_t reads = 0;
  db::Database db;
  ManualClock clock;
  std::unique_ptr<eqsql::EQSQL> api;

  CountedEmews() {
    count_reads(db, &reads);
    db::sql::Connection conn(db);
    EXPECT_TRUE(eqsql::create_schema(conn).is_ok());
    api = std::make_unique<eqsql::EQSQL>(db, clock);
  }

  std::vector<TaskId> submit(int n, Priority priority = 0) {
    std::vector<std::string> payloads(static_cast<std::size_t>(n), "[1]");
    auto ids = api->submit_tasks("cost", kWork, payloads, priority);
    EXPECT_TRUE(ids.ok());
    return ids.ok() ? ids.value() : std::vector<TaskId>{};
  }

  /// Submit, claim, report and pick up `n` tasks.
  void finish(int n) {
    std::vector<TaskId> ids = submit(n);
    auto claimed = api->try_query_tasks(kWork, n);
    ASSERT_TRUE(claimed.ok());
    for (const auto& h : claimed.value()) {
      ASSERT_TRUE(api->report_task(h.eq_task_id, kWork, "{}").is_ok());
    }
    ASSERT_EQ(api->try_query_completed(ids, n).value().size(), ids.size());
  }

  /// Row reads plus every table's index and scan counters.
  std::vector<std::uint64_t> work() const {
    std::vector<std::uint64_t> out{reads, 0, 0, 0};
    for (const std::string& name : db.table_names()) {
      const db::Table* t = db.table(name);
      out[1] += t->index_entries_read();
      out[2] += t->index_lookups();
      out[3] += t->full_scans();
    }
    return out;
  }
};

std::vector<std::uint64_t> minus(std::vector<std::uint64_t> a,
                                 const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= b[i];
  return a;
}

TEST(EqsqlCostTest, ClaimOneReadsTheSameRowsAtAnyBacklog) {
  std::vector<std::vector<std::uint64_t>> per_backlog;
  for (int backlog : {1000, 16000}) {
    CountedEmews e;
    for (int done = 0; done < backlog; done += 1000) e.submit(1000);
    const auto before = e.work();
    auto claimed = e.api->try_query_tasks(kWork, 1);
    ASSERT_TRUE(claimed.ok());
    ASSERT_EQ(claimed.value().size(), 1u);
    EXPECT_EQ(claimed.value().front().eq_task_id, 1);  // FIFO at one priority
    per_backlog.push_back(minus(e.work(), before));
  }
  EXPECT_EQ(per_backlog[0], per_backlog[1]);
  EXPECT_LE(per_backlog[0][0], 16u);  // rows read
  EXPECT_EQ(per_backlog[0][3], 0u);   // full scans
}

TEST(EqsqlCostTest, ClaimReportAndReprioritizeIgnoreTheTaskHistory) {
  std::vector<std::vector<std::vector<std::uint64_t>>> per_history;
  for (int history : {0, 8000}) {
    CountedEmews e;
    for (int done = 0; done < history; done += 1000) e.finish(1000);
    std::vector<TaskId> backlog = e.submit(64);
    std::vector<std::vector<std::uint64_t>> ops;

    auto before = e.work();
    auto claimed = e.api->try_query_tasks(kWork, 1);
    ASSERT_TRUE(claimed.ok());
    ASSERT_EQ(claimed.value().size(), 1u);
    ops.push_back(minus(e.work(), before));

    before = e.work();
    ASSERT_TRUE(e.api->report_task(claimed.value().front().eq_task_id, kWork,
                                   "{}")
                    .is_ok());
    ops.push_back(minus(e.work(), before));

    before = e.work();
    std::vector<TaskId> moved(backlog.begin() + 8, backlog.begin() + 16);
    auto repositioned = e.api->update_priorities(moved, {5});
    ASSERT_TRUE(repositioned.ok());
    EXPECT_EQ(repositioned.value(), moved.size());
    ops.push_back(minus(e.work(), before));
    per_history.push_back(ops);
  }
  EXPECT_EQ(per_history[0], per_history[1]);
}

// --- the weighted-fair claim ----------------------------------------------------------

/// The weighted-fair pick as it was before per-tenant heads: read the
/// type's whole output queue, order it by priority (ties FIFO by task id),
/// group it per tenant, and pop the scheduler's choice off the front of its
/// group. The ordering is done here, not by an index walk, so the oracle
/// does not share the code it checks.
std::vector<TaskId> whole_queue_fair_pick(db::sql::Connection& conn,
                                          tenant::TenantRegistry& tenants,
                                          WorkType eq_type, int n) {
  auto queued = conn.execute(
      "SELECT eq_task_id, tenant, eq_priority FROM eq_output_queue "
      "WHERE eq_task_type = ?",
      {Value(std::int64_t{eq_type})});
  EXPECT_TRUE(queued.ok());
  std::vector<Row> rows = queued.value().rows;
  std::stable_sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    if (x[2].as_int() != y[2].as_int()) return x[2].as_int() > y[2].as_int();
    return x[0].as_int() < y[0].as_int();
  });
  std::map<TenantId, std::vector<TaskId>> backlog;
  for (const Row& row : rows) {
    backlog[row[1].is_null() ? TenantId{} : row[1].as_text()].push_back(
        row[0].as_int());
  }
  std::vector<TenantId> candidates;
  for (const auto& [t, ids] : backlog) candidates.push_back(t);
  std::vector<TaskId> picked;
  while (picked.size() < static_cast<std::size_t>(n) && !candidates.empty()) {
    const TenantId next = tenants.pick_next(candidates);
    std::vector<TaskId>& ids = backlog[next];
    picked.push_back(ids.front());
    ids.erase(ids.begin());
    tenants.charge(next, 1);
    if (ids.empty()) {
      candidates.erase(std::find(candidates.begin(), candidates.end(), next));
    }
  }
  return picked;
}

class FairClaimOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FairClaimOracleTest, PerTenantHeadsInterleaveLikeTheWholeQueue) {
  Rng rng(GetParam());
  db::Database db;
  db::sql::Connection conn(db);
  ASSERT_TRUE(eqsql::create_schema(conn).is_ok());
  ManualClock clock;
  // Two registries fed the same calls: `live` behind the EQSQL claim,
  // `oracle` behind the whole-queue pick.
  tenant::TenantRegistry live;
  tenant::TenantRegistry oracle;
  std::vector<TenantId> tenants{""};  // the untenanted principal
  const int n_tenants = static_cast<int>(rng.uniform_int(2, 5));
  for (int i = 0; i < n_tenants; ++i) {
    tenant::TenantConfig config;
    config.weight = static_cast<double>(rng.uniform_int(1, 4));
    const TenantId id = "t" + std::to_string(i);
    ASSERT_TRUE(live.register_tenant(id, config).is_ok());
    ASSERT_TRUE(oracle.register_tenant(id, config).is_ok());
    tenants.push_back(id);
  }
  eqsql::EQSQL api(db, clock);
  api.set_tenant_context(&live);

  std::vector<TaskId> running;
  std::size_t claims_compared = 0;
  for (int step = 0; step < 150; ++step) {
    const auto type = static_cast<WorkType>(rng.uniform_int(1, 2));
    const std::int64_t action = rng.uniform_int(0, 9);
    if (action < 5) {
      const TenantId& t =
          tenants[static_cast<std::size_t>(rng.uniform_int(0, n_tenants))];
      const int n = static_cast<int>(rng.uniform_int(1, 12));
      std::vector<std::string> payloads(static_cast<std::size_t>(n), "{}");
      auto ids = api.submit_tasks_as(t, "fair", type, payloads,
                                     static_cast<Priority>(rng.uniform_int(0, 2)));
      ASSERT_TRUE(ids.ok());
      ASSERT_TRUE(oracle.admit(t, payloads.size()).is_ok());
    } else if (action < 8) {
      const int n = static_cast<int>(rng.uniform_int(1, 8));
      const std::vector<TaskId> expected =
          whole_queue_fair_pick(conn, oracle, type, n);
      auto claimed = api.try_query_tasks(type, n);
      ASSERT_TRUE(claimed.ok());
      std::vector<TaskId> got;
      for (const auto& h : claimed.value()) {
        got.push_back(h.eq_task_id);
        running.push_back(h.eq_task_id);
      }
      ASSERT_EQ(got, expected) << "step " << step;
      ++claims_compared;
    } else if (action == 8 && !running.empty()) {
      // Requeued tasks re-enter under new row ids.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(running.size()) - 1));
      ASSERT_TRUE(api.requeue_tasks({running[k]}).ok());
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      auto queued = conn.execute("SELECT eq_task_id FROM eq_output_queue");
      ASSERT_TRUE(queued.ok());
      std::vector<TaskId> ids;
      for (const Row& row : queued.value().rows) {
        if (rng.uniform_int(0, 3) == 0) ids.push_back(row[0].as_int());
      }
      ASSERT_TRUE(api.update_priorities(
                         ids, {static_cast<Priority>(rng.uniform_int(0, 3))})
                      .ok());
    }
  }
  EXPECT_GT(claims_compared, 20u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairClaimOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace osprey
