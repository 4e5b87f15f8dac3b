#include "osprey/eqsql/schema.h"

#include <array>

namespace osprey::eqsql {

namespace {

// The output queue's claim indexes. The first serves the plain claim (the
// n highest priorities of a type, ties FIFO by task id: the first n
// entries of one seek); the second serves the weighted-fair claim (the
// same order per tenant: each tenant's head is one seek).
const std::array<const char*, 2> kOutputQueueIndexes = {
    "CREATE INDEX ON eq_output_queue "
    "(eq_task_type, eq_priority DESC, eq_task_id)",
    "CREATE INDEX ON eq_output_queue "
    "(eq_task_type, tenant, eq_priority DESC, eq_task_id)",
};

Status run_all(db::sql::Connection& conn, const char* const* statements,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    auto r = conn.execute(statements[i]);
    if (!r.ok()) return r.error();
  }
  return Status::ok();
}

}  // namespace

Status create_schema(db::sql::Connection& conn) {
  static const std::array<const char*, 12> kStatements = {
      // Task data: identifier, work type, status, priority, payloads,
      // consuming pool, the creation / start / stop timestamps (§IV-C), and
      // the owning tenant (DESIGN.md §5.13 — NULL for untenanted submits).
      // The tenant column is appended last: the notifier and task_record
      // read earlier columns positionally.
      "CREATE TABLE eq_tasks ("
      "  eq_task_id INTEGER PRIMARY KEY,"
      "  eq_task_type INTEGER NOT NULL,"
      "  eq_status TEXT NOT NULL,"
      "  eq_priority INTEGER NOT NULL,"
      "  json_out TEXT,"
      "  json_in TEXT,"
      "  worker_pool TEXT,"
      "  time_created REAL NOT NULL,"
      "  time_start REAL,"
      "  time_stop REAL,"
      "  tenant TEXT)",
      "CREATE INDEX ON eq_tasks (eq_status)",
      "CREATE INDEX ON eq_tasks (eq_task_type)",

      // Output queue: tasks are popped for execution ordered by priority,
      // drawn across tenants by the weighted-fair scheduler when a
      // TenantRegistry is attached. Its indexes are kOutputQueueIndexes.
      "CREATE TABLE eq_output_queue ("
      "  eq_task_id INTEGER PRIMARY KEY,"
      "  eq_task_type INTEGER NOT NULL,"
      "  eq_priority INTEGER NOT NULL,"
      "  tenant TEXT)",

      // Input queue: completed tasks whose results await pickup.
      "CREATE TABLE eq_input_queue ("
      "  eq_task_id INTEGER PRIMARY KEY,"
      "  eq_task_type INTEGER NOT NULL)",
      "CREATE INDEX ON eq_input_queue (eq_task_type)",

      // Experiment linkage.
      "CREATE TABLE eq_experiments ("
      "  exp_id TEXT NOT NULL,"
      "  eq_task_id INTEGER NOT NULL)",
      "CREATE INDEX ON eq_experiments (exp_id)",

      // Metadata tags.
      "CREATE TABLE eq_task_tags ("
      "  eq_task_id INTEGER NOT NULL,"
      "  tag TEXT NOT NULL)",
      "CREATE INDEX ON eq_task_tags (tag)",

      // Task-id sequence (SERIAL stand-in).
      "CREATE TABLE eq_meta (meta_key TEXT PRIMARY KEY, meta_value INTEGER)",
      "INSERT INTO eq_meta VALUES ('next_task_id', 1)",
  };
  Status created = run_all(conn, kStatements.data(), kStatements.size());
  if (!created.is_ok()) return created;
  return upgrade_schema(conn);
}

Status upgrade_schema(db::sql::Connection& conn) {
  // CREATE INDEX is idempotent: an index that exists logs nothing.
  return run_all(conn, kOutputQueueIndexes.data(), kOutputQueueIndexes.size());
}

bool schema_exists(const db::Database& db) {
  return db.table(kTasksTable) && db.table(kOutputQueueTable) &&
         db.table(kInputQueueTable) && db.table(kExperimentsTable) &&
         db.table(kTagsTable) && db.table(kMetaTable);
}

}  // namespace osprey::eqsql
