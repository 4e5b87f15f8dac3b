// The five-table EMEWS DB schema (§IV-C):
//   eq_tasks        - one row per task (status, payloads, timestamps, pool)
//   eq_output_queue - tasks awaiting execution, popped by priority
//   eq_input_queue  - completed tasks awaiting result pickup
//   eq_experiments  - links tasks to experiment ids
//   eq_task_tags    - links tasks to metadata tag strings
#pragma once

#include "osprey/db/sql_exec.h"

namespace osprey::eqsql {

inline constexpr const char* kTasksTable = "eq_tasks";
inline constexpr const char* kOutputQueueTable = "eq_output_queue";
inline constexpr const char* kInputQueueTable = "eq_input_queue";
inline constexpr const char* kExperimentsTable = "eq_experiments";
inline constexpr const char* kTagsTable = "eq_task_tags";
// One extra table vs the paper: a sequence row allocating unique task ids,
// so any number of EQSQL clients sharing the database allocate ids safely
// (Postgres gives the paper this for free via SERIAL).
inline constexpr const char* kMetaTable = "eq_meta";

/// Create the five tables and their indexes in an empty database.
/// Fails with kConflict when any table already exists.
Status create_schema(db::sql::Connection& conn);

/// Add the indexes the current schema has and a database created by an
/// older one lacks: the composite output-queue claim indexes. Idempotent; on
/// a database with a WAL attached each creation is logged DDL. Services run
/// it when they open an existing database as its writer.
Status upgrade_schema(db::sql::Connection& conn);

/// True when all five tables exist.
bool schema_exists(const db::Database& db);

}  // namespace osprey::eqsql
