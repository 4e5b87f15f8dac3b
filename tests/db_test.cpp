// Tests for the embedded relational engine: values, schemas, tables,
// indexes, transactions, snapshot/restore.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

#include "osprey/db/database.h"
#include "osprey/db/dump.h"
#include "osprey/db/expr.h"

namespace osprey::db {
namespace {

Schema task_schema() {
  return Schema({
      {"eq_task_id", ColumnType::kInt, false, true},
      {"status", ColumnType::kText, false, false},
      {"priority", ColumnType::kInt, true, false},
      {"payload", ColumnType::kText, true, false},
  });
}

Row make_task(std::int64_t id, const std::string& status, std::int64_t pri,
              const std::string& payload) {
  return Row{Value(id), Value(status), Value(pri), Value(payload)};
}

// --- Value ---------------------------------------------------------------

TEST(ValueTest, TotalOrderAcrossTypes) {
  // NULL < numbers < text.
  EXPECT_LT(Value(nullptr), Value(std::int64_t{-100}));
  EXPECT_LT(Value(std::int64_t{5}), Value("a"));
  EXPECT_LT(Value(1.5), Value(std::int64_t{2}));  // numeric cross-compare
  EXPECT_EQ(Value(std::int64_t{2}), Value(2.0));
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value(nullptr).compare(Value(nullptr)), 0);
}

TEST(ValueTest, SqlRendering) {
  EXPECT_EQ(Value(nullptr).to_sql(), "NULL");
  EXPECT_EQ(Value(std::int64_t{42}).to_sql(), "42");
  EXPECT_EQ(Value("it's").to_sql(), "'it''s'");
}

TEST(ValueTest, Conformance) {
  EXPECT_TRUE(Value(nullptr).conforms_to(ColumnType::kInt));
  EXPECT_TRUE(Value(std::int64_t{1}).conforms_to(ColumnType::kReal));
  EXPECT_FALSE(Value(1.5).conforms_to(ColumnType::kInt));
  EXPECT_FALSE(Value("x").conforms_to(ColumnType::kReal));
  // Non-finite reals would break the index ordering: rejected.
  EXPECT_FALSE(Value(std::nan("")).conforms_to(ColumnType::kReal));
  EXPECT_FALSE(Value(std::numeric_limits<double>::infinity())
                   .conforms_to(ColumnType::kReal));
}

TEST(ValueTest, NanRowsAreRejectedAtInsert) {
  Table table("t", Schema({{"x", ColumnType::kReal, true, false}}));
  auto bad = table.insert({Value(std::nan(""))});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument);
}

// --- Schema ----------------------------------------------------------------

TEST(SchemaTest, IndexOfAndPrimaryKey) {
  Schema s = task_schema();
  EXPECT_EQ(s.index_of("status"), 1);
  EXPECT_EQ(s.index_of("missing"), -1);
  EXPECT_EQ(s.primary_key_index(), 0);
}

TEST(SchemaTest, ValidateRejectsBadRows) {
  Schema s = task_schema();
  EXPECT_TRUE(s.validate(make_task(1, "queued", 0, "{}")).is_ok());
  EXPECT_FALSE(s.validate({Value(1)}).is_ok());  // arity
  EXPECT_FALSE(
      s.validate({Value(nullptr), Value("q"), Value(0), Value("")}).is_ok());
  EXPECT_FALSE(
      s.validate({Value(1), Value(2), Value(0), Value("")}).is_ok());  // type
}

// --- Table: insert / select / update / delete -------------------------------

class TableTest : public ::testing::Test {
 protected:
  TableTest() : table_("tasks", task_schema()) {
    for (int i = 1; i <= 10; ++i) {
      auto r = table_.insert(
          make_task(i, i % 2 ? "queued" : "running", 10 - i, "{}"));
      EXPECT_TRUE(r.ok());
    }
  }
  Table table_;
};

TEST_F(TableTest, InsertAssignsMonotonicRowIds) {
  EXPECT_EQ(table_.row_count(), 10u);
  auto ids = table_.all_row_ids();
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
}

TEST_F(TableTest, PrimaryKeyUniqueness) {
  auto dup = table_.insert(make_task(5, "queued", 0, "{}"));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error().code, ErrorCode::kConflict);
  EXPECT_EQ(table_.row_count(), 10u);
}

TEST_F(TableTest, FindPkUsesIndex) {
  auto id = table_.find_pk(Value(std::int64_t{7}));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ((*table_.get(*id))[1].as_text(), "queued");
  EXPECT_FALSE(table_.find_pk(Value(std::int64_t{77})).has_value());
}

TEST_F(TableTest, SelectWithPredicate) {
  ScanOptions options;
  options.where = eq("status", Value("queued"));
  auto r = table_.select(options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 5u);
}

TEST_F(TableTest, SelectOrderByPriorityDescLimit) {
  // The EMEWS output-queue pop: highest priority first, LIMIT n (§IV-C).
  ScanOptions options;
  options.where = eq("status", Value("queued"));
  options.order_by = {{"priority", false}};
  options.limit = 2;
  auto r = table_.select(options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  // Queued tasks have ids 1,3,5,7,9 with priorities 9,7,5,3,1.
  EXPECT_EQ((*table_.get(r.value()[0]))[0].as_int(), 1);
  EXPECT_EQ((*table_.get(r.value()[1]))[0].as_int(), 3);
}

TEST_F(TableTest, TopNViaOrderedIndexMatchesSortPath) {
  // The priority-pop shape: ORDER BY priority DESC, (tie by insertion)
  // LIMIT n. With an index on priority, the ordered-index walk must return
  // exactly what the sort-based path returns.
  ScanOptions options;
  options.where = eq("status", Value("queued"));
  options.order_by = {{"priority", false}};
  options.limit = 3;
  auto sorted_path = table_.select(options);  // no index yet: sort path
  ASSERT_TRUE(sorted_path.ok());
  ASSERT_TRUE(table_.create_index("priority").is_ok());
  std::uint64_t scans_before = table_.full_scans();
  auto index_path = table_.select(options);
  ASSERT_TRUE(index_path.ok());
  EXPECT_EQ(index_path.value(), sorted_path.value());
  EXPECT_EQ(table_.full_scans(), scans_before);  // walked the index
}

TEST_F(TableTest, TopNAscendingAndTieBreaks) {
  ASSERT_TRUE(table_.create_index("priority").is_ok());
  // Insert ties: two more tasks at priority 5 (same as task 5).
  ASSERT_TRUE(table_.insert(make_task(11, "queued", 5, "{}")).ok());
  ASSERT_TRUE(table_.insert(make_task(12, "queued", 5, "{}")).ok());
  ScanOptions options;
  options.order_by = {{"priority", true}, {"eq_task_id", true}};
  options.limit = 100;
  auto with_index = table_.select(options);
  ASSERT_TRUE(with_index.ok());
  // Compare against the pure sort path (unindexed column order + manual).
  ScanOptions no_limit = options;
  no_limit.limit = -1;  // sort path
  auto sort_path = table_.select(no_limit);
  ASSERT_TRUE(sort_path.ok());
  EXPECT_EQ(with_index.value(), sort_path.value());
}

TEST_F(TableTest, SelectUnknownColumnFails) {
  ScanOptions options;
  options.where = eq("nope", Value(1));
  EXPECT_FALSE(table_.select(options).ok());
  options.where = nullptr;
  options.order_by = {{"nope", true}};
  EXPECT_FALSE(table_.select(options).ok());
}

TEST_F(TableTest, SelectOneReturnsFirstOrEmpty) {
  ScanOptions options;
  options.where = eq("eq_task_id", Value(std::int64_t{4}));
  auto one = table_.select_one(options);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(one.value().has_value());
  options.where = eq("eq_task_id", Value(std::int64_t{400}));
  auto none = table_.select_one(options);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none.value().has_value());
}

TEST_F(TableTest, UpdateChangesMatchingRows) {
  ScanOptions options;
  options.where = eq("status", Value("queued"));
  auto n = table_.update(options, {{"status", lit(Value("canceled"))}});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 5u);
  options.where = eq("status", Value("canceled"));
  EXPECT_EQ(table_.select(options).value().size(), 5u);
}

TEST_F(TableTest, UpdateWithExpression) {
  ScanOptions options;  // all rows: priority = priority + 100
  auto n = table_.update(
      options, {{"priority", bin(BinOp::kAdd, col("priority"), lit(Value(100)))}});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 10u);
  ScanOptions check;
  check.where = ge("priority", Value(100));
  EXPECT_EQ(table_.select(check).value().size(), 10u);
}

TEST_F(TableTest, UpdatePrimaryKeyCollisionRejected) {
  ScanOptions options;
  options.where = eq("eq_task_id", Value(std::int64_t{1}));
  auto n = table_.update(options, {{"eq_task_id", lit(Value(std::int64_t{2}))}});
  EXPECT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, ErrorCode::kConflict);
}

TEST_F(TableTest, EraseByPredicate) {
  ScanOptions options;
  options.where = gt("eq_task_id", Value(std::int64_t{8}));
  auto n = table_.erase(options);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  EXPECT_EQ(table_.row_count(), 8u);
}

TEST_F(TableTest, SecondaryIndexUsedForEqScan) {
  ASSERT_TRUE(table_.create_index("status").is_ok());
  std::uint64_t scans_before = table_.full_scans();
  ScanOptions options;
  options.where = eq("status", Value("queued"));
  auto r = table_.select(options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 5u);
  EXPECT_EQ(table_.full_scans(), scans_before);  // no full scan
  EXPECT_GT(table_.index_lookups(), 0u);
}

TEST_F(TableTest, IndexStaysCorrectThroughUpdateAndDelete) {
  ASSERT_TRUE(table_.create_index("status").is_ok());
  ScanOptions to_running;
  to_running.where = eq("eq_task_id", Value(std::int64_t{1}));
  ASSERT_TRUE(table_.update(to_running, {{"status", lit(Value("running"))}}).ok());
  ScanOptions queued;
  queued.where = eq("status", Value("queued"));
  EXPECT_EQ(table_.select(queued).value().size(), 4u);
  ScanOptions del;
  del.where = eq("status", Value("running"));
  ASSERT_TRUE(table_.erase(del).ok());
  ScanOptions running;
  running.where = eq("status", Value("running"));
  EXPECT_TRUE(table_.select(running).value().empty());
}

TEST_F(TableTest, InListUsesPrimaryKeyIndex) {
  // A `WHERE eq_task_id IN (?,...)` list on the primary key (a form any SQL
  // caller may use) must be an index probe, not a full scan.
  std::uint64_t scans_before = table_.full_scans();
  ScanOptions options;
  options.where = in_list(col("eq_task_id"),
                          {param(0), param(1), lit(Value(std::int64_t{9}))});
  options.params = {Value(std::int64_t{2}), Value(std::int64_t{4})};
  auto r = table_.select(options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 3u);
  EXPECT_EQ(table_.full_scans(), scans_before);  // indexed, no full scan
}

TEST_F(TableTest, InListWithDuplicateValuesDeduplicates) {
  ScanOptions options;
  options.where = in_list(col("eq_task_id"),
                          {lit(Value(std::int64_t{3})), lit(Value(std::int64_t{3}))});
  auto r = table_.select(options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 1u);
}

TEST_F(TableTest, InPredicate) {
  ScanOptions options;
  options.where = in_list(
      col("eq_task_id"),
      {lit(Value(std::int64_t{2})), lit(Value(std::int64_t{4})),
       lit(Value(std::int64_t{99}))});
  auto r = table_.select(options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 2u);
}

TEST_F(TableTest, ParamBinding) {
  ScanOptions options;
  options.where = bin(BinOp::kEq, col("status"), param(0));
  options.params = {Value("running")};
  EXPECT_EQ(table_.select(options).value().size(), 5u);
  options.params.clear();
  EXPECT_FALSE(table_.select(options).ok());  // missing param is an error
}

// --- Database & transactions -------------------------------------------------

TEST(DatabaseTest, CreateDropLookup) {
  Database db;
  auto t = db.create_table("tasks", task_schema());
  ASSERT_TRUE(t.ok());
  EXPECT_NE(db.table("tasks"), nullptr);
  EXPECT_FALSE(db.create_table("tasks", task_schema()).ok());
  EXPECT_TRUE(db.drop_table("tasks").is_ok());
  EXPECT_EQ(db.table("tasks"), nullptr);
  EXPECT_FALSE(db.drop_table("tasks").is_ok());
}

TEST(TransactionTest, CommitKeepsMutations) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  {
    Transaction txn(db);
    ASSERT_TRUE(t->insert(make_task(1, "queued", 0, "{}")).ok());
    txn.commit();
  }
  EXPECT_EQ(t->row_count(), 1u);
}

TEST(TransactionTest, RollbackUndoesInsertUpdateDelete) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->insert(make_task(1, "queued", 5, "{}")).ok());
  ASSERT_TRUE(t->insert(make_task(2, "queued", 6, "{}")).ok());
  {
    Transaction txn(db);
    ASSERT_TRUE(t->insert(make_task(3, "queued", 7, "{}")).ok());
    ScanOptions upd;
    upd.where = eq("eq_task_id", Value(std::int64_t{1}));
    ASSERT_TRUE(t->update(upd, {{"status", lit(Value("running"))}}).ok());
    ScanOptions del;
    del.where = eq("eq_task_id", Value(std::int64_t{2}));
    ASSERT_TRUE(t->erase(del).ok());
    // destructor rolls back
  }
  EXPECT_EQ(t->row_count(), 2u);
  auto id1 = t->find_pk(Value(std::int64_t{1}));
  ASSERT_TRUE(id1);
  EXPECT_EQ((*t->get(*id1))[1].as_text(), "queued");
  EXPECT_TRUE(t->find_pk(Value(std::int64_t{2})).has_value());
  EXPECT_FALSE(t->find_pk(Value(std::int64_t{3})).has_value());
}

TEST(TransactionTest, RollbackRestoresIndexes) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->create_index("status").is_ok());
  ASSERT_TRUE(t->insert(make_task(1, "queued", 5, "{}")).ok());
  {
    Transaction txn(db);
    ScanOptions upd;
    upd.where = eq("eq_task_id", Value(std::int64_t{1}));
    ASSERT_TRUE(t->update(upd, {{"status", lit(Value("running"))}}).ok());
  }
  ScanOptions queued;
  queued.where = eq("status", Value("queued"));
  EXPECT_EQ(t->select(queued).value().size(), 1u);
}

TEST(TransactionTest, SpansMultipleTables) {
  // The core EMEWS pop is "delete from output queue + update tasks" (§IV-C);
  // both must commit or neither.
  Database db;
  Table* tasks = db.create_table("tasks", task_schema()).value();
  Table* queue =
      db.create_table("output_queue",
                      Schema({{"eq_task_id", ColumnType::kInt, false, false},
                              {"priority", ColumnType::kInt, false, false}}))
          .value();
  ASSERT_TRUE(tasks->insert(make_task(1, "queued", 0, "{}")).ok());
  ASSERT_TRUE(queue->insert({Value(std::int64_t{1}), Value(std::int64_t{0})}).ok());
  {
    Transaction txn(db);
    ScanOptions pop;
    pop.where = eq("eq_task_id", Value(std::int64_t{1}));
    ASSERT_TRUE(queue->erase(pop).ok());
    ASSERT_TRUE(tasks->update(pop, {{"status", lit(Value("running"))}}).ok());
    // rollback
  }
  EXPECT_EQ(queue->row_count(), 1u);
  auto id = tasks->find_pk(Value(std::int64_t{1}));
  EXPECT_EQ((*tasks->get(*id))[1].as_text(), "queued");
}

// --- Snapshot / restore ------------------------------------------------------

TEST(DumpTest, RoundTripPreservesSchemaIndexesRows) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->create_index("status").is_ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(t->insert(make_task(i, "queued", i, "{\"x\":1}")).ok());
  }

  json::Value snapshot = dump_database(db);
  Database restored;
  ASSERT_TRUE(restore_database(restored, snapshot).is_ok());
  Table* rt = restored.table("tasks");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->row_count(), 5u);
  EXPECT_TRUE(rt->has_index("status"));
  EXPECT_EQ(rt->schema().primary_key_index(), 0);
  auto id = rt->find_pk(Value(std::int64_t{3}));
  ASSERT_TRUE(id);
  EXPECT_EQ((*rt->get(*id))[3].as_text(), "{\"x\":1}");
}

TEST(DumpTest, FileRoundTrip) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->insert(make_task(1, "queued", 0, "{}")).ok());
  const std::string path = "/tmp/osprey_dump_test.json";
  ASSERT_TRUE(dump_to_file(db, path).is_ok());
  Database restored;
  ASSERT_TRUE(restore_from_file(restored, path).is_ok());
  EXPECT_EQ(restored.table("tasks")->row_count(), 1u);
  std::remove(path.c_str());
}

TEST(DumpTest, RejectsMalformedSnapshots) {
  Database db;
  EXPECT_FALSE(restore_database(db, json::Value("nope")).is_ok());
  EXPECT_FALSE(
      restore_database(db, json::parse_or_die(R"({"format":"wrong"})")).is_ok());
}

TEST(DumpTest, PreservesRowIdsAndIdAllocatorAcrossDeletes) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(t->insert(make_task(i, "queued", i, "{}")).ok());
  }
  // Punch holes, including the highest id: a restore that renumbered rows
  // (or re-derived the allocator from the survivors) would hand id 5 out
  // again, colliding with redo records that reference the original ids.
  ScanOptions kill;
  kill.where = eq("eq_task_id", Value(std::int64_t{2}));
  ASSERT_TRUE(t->erase(kill).ok());
  kill.where = eq("eq_task_id", Value(std::int64_t{5}));
  ASSERT_TRUE(t->erase(kill).ok());
  std::vector<RowId> original_ids = t->all_row_ids();

  Database restored;
  ASSERT_TRUE(restore_database(restored, dump_database(db)).is_ok());
  Table* rt = restored.table("tasks");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->all_row_ids(), original_ids);
  auto fresh = rt->insert(make_task(6, "queued", 6, "{}"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), t->next_row_id());  // allocator carried over

  // And the round trip is bit-identical, not merely equivalent.
  EXPECT_EQ(dump_database(db).dump(),
            [&] {
              Database again;
              EXPECT_TRUE(restore_database(again, dump_database(db)).is_ok());
              return dump_database(again).dump();
            }());
}

TEST(DumpTest, FieldByFieldRoundTripOfEveryValueShape) {
  Database db;
  Table* t = db.create_table("cells", Schema({
                                          {"id", ColumnType::kInt, false, true},
                                          {"i", ColumnType::kInt, true, false},
                                          {"r", ColumnType::kReal, true, false},
                                          {"s", ColumnType::kText, true, false},
                                      }))
                 .value();
  std::vector<Row> rows = {
      {Value(std::int64_t{1}), Value(std::int64_t{-9007199254740993}),
       Value(0.1), Value("plain")},
      {Value(std::int64_t{2}), Value(nullptr), Value(-1e300),
       Value("quo\"te\nline")},
      {Value(std::int64_t{3}), Value(std::int64_t{0}), Value(nullptr),
       Value("")},
      {Value(std::int64_t{4}), Value(std::int64_t{1}) , Value(3.0),
       Value(std::string("nul\0byte-free", 3))},  // text stays exact
  };
  for (const Row& row : rows) ASSERT_TRUE(t->insert(row).ok());

  Database restored;
  ASSERT_TRUE(restore_database(restored, dump_database(db)).is_ok());
  Table* rt = restored.table("cells");
  ASSERT_NE(rt, nullptr);
  ASSERT_EQ(rt->row_count(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::optional<Row> got = rt->get(static_cast<RowId>(i + 1));
    ASSERT_TRUE(got.has_value()) << "row " << i + 1;
    ASSERT_EQ(got->size(), rows[i].size());
    for (std::size_t c = 0; c < rows[i].size(); ++c) {
      EXPECT_EQ((*got)[c].compare(rows[i][c]), 0)
          << "row " << i + 1 << " column " << c;
    }
  }
}

TEST(DumpTest, RestoreIntoPopulatedDatabaseFailsWithoutClobbering) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->insert(make_task(1, "running", 7, "{\"live\":true}")).ok());
  std::string before = dump_database(db).dump();

  Database other;
  Table* ot = other.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(ot->insert(make_task(2, "queued", 1, "{}")).ok());
  Status s = restore_database(db, dump_database(other));
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code, ErrorCode::kConflict);
  // The existing table was not replaced or merged into.
  EXPECT_EQ(dump_database(db).dump(), before);
}

TEST(DumpTest, RejectsBadRowIdsAndBadRows) {
  Database reference;
  Table* t = reference.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->insert(make_task(1, "queued", 0, "{}")).ok());
  json::Value good = dump_database(reference);

  // A non-numeric row id is a malformed snapshot, not a silent renumber.
  {
    json::Value bad = good;
    bad["tables"]["tasks"]["row_ids"].as_array()[0] = json::Value("one");
    Database db;
    Status s = restore_database(db, bad);
    ASSERT_FALSE(s.is_ok());
    EXPECT_EQ(s.error().code, ErrorCode::kInvalidArgument);
  }
  // A row that does not conform to the schema is rejected by the restore.
  {
    json::Value bad = good;
    bad["tables"]["tasks"]["rows"].as_array()[0].as_array()[1] =
        json::Value(std::int64_t{12});  // status must be text
    Database db;
    EXPECT_FALSE(restore_database(db, bad).is_ok());
  }
  // "tables" of the wrong shape is caught before any table is created.
  {
    Database db;
    EXPECT_FALSE(
        restore_database(
            db, json::parse_or_die(
                    R"({"format":"osprey-db-snapshot-v1","tables":[1]})"))
            .is_ok());
    EXPECT_TRUE(db.table_names().empty());
  }
}

TEST(DumpTest, LegacySnapshotsWithoutRowIdsStillRestore) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(t->insert(make_task(i, "queued", i, "{}")).ok());
  }
  json::Value snapshot = dump_database(db);
  // A pre-v1.1 snapshot: no row_ids, no next_row_id.
  snapshot["tables"]["tasks"].as_object().erase("row_ids");
  snapshot["tables"]["tasks"].as_object().erase("next_row_id");

  Database restored;
  ASSERT_TRUE(restore_database(restored, snapshot).is_ok());
  Table* rt = restored.table("tasks");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->row_count(), 3u);
  EXPECT_TRUE(rt->find_pk(Value(std::int64_t{2})).has_value());
}

TEST(DumpTest, DumpToFileIsAtomicAndLeavesNoTempFile) {
  Database db;
  Table* t = db.create_table("tasks", task_schema()).value();
  ASSERT_TRUE(t->insert(make_task(1, "queued", 0, "{}")).ok());
  const std::string path = "/tmp/osprey_dump_atomic_test.json";

  // Overwrite an existing (garbage) file in place.
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("half-written garbage", f);
    fclose(f);
  }
  ASSERT_TRUE(dump_to_file(db, path).is_ok());
  {
    FILE* tmp = fopen((path + ".tmp").c_str(), "r");
    EXPECT_EQ(tmp, nullptr);  // the staging file was renamed away
    if (tmp) fclose(tmp);
  }
  Database restored;
  ASSERT_TRUE(restore_from_file(restored, path).is_ok());
  EXPECT_EQ(restored.table("tasks")->row_count(), 1u);
  std::remove(path.c_str());

  // An unwritable destination surfaces as a Status, not a partial file.
  Status s = dump_to_file(db, "/tmp/osprey_no_such_dir/dump.json");
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code, ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace osprey::db
