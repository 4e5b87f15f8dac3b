#include "osprey/storage/manifest.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "osprey/db/dump.h"
#include "osprey/storage/engine.h"

namespace osprey::storage {

const char* const kManifestFormat = "osprey-db-manifest-v1";

bool is_manifest(const json::Value& snapshot) {
  return snapshot["format"].get_string("") == kManifestFormat;
}

std::set<std::string> manifest_run_segments(const json::Value& manifest) {
  std::set<std::string> segments;
  const json::Value& tables = manifest["tables"];
  if (!tables.is_object()) return segments;
  for (const auto& [name, tj] : tables.as_object()) {
    (void)name;
    if (!tj["runs"].is_array()) continue;
    for (const json::Value& rj : tj["runs"].as_array()) {
      std::string segment = rj["segment"].get_string("");
      if (!segment.empty()) segments.insert(segment);
    }
  }
  return segments;
}

namespace {

// The column types of an index spec's key cells, in key order.
Result<std::vector<db::ColumnType>> key_types(const db::Schema& schema,
                                              const std::string& spec) {
  Result<std::vector<db::OrderTerm>> terms = db::parse_index_spec(spec);
  if (!terms.ok()) return terms.error();
  std::vector<db::ColumnType> types;
  for (const db::OrderTerm& term : terms.value()) {
    const int col = schema.index_of(term.column);
    if (col < 0) {
      return Error(ErrorCode::kInvalidArgument,
                   "manifest spilled_index spec '" + spec + "'");
    }
    types.push_back(schema.column(static_cast<std::size_t>(col)).type);
  }
  return types;
}

}  // namespace

// --- build ------------------------------------------------------------------

json::Value StorageEngine::build_manifest(db::Database& db) {
  // Lock order: database outer, engine inner (see StorageEngine::attach).
  std::lock_guard<std::recursive_mutex> db_lock(db.mutex());
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  json::Object doc;
  doc["format"] = json::Value(kManifestFormat);
  json::Object tables;
  std::vector<std::string> pinned;
  for (const std::string& name : db.table_names()) {
    const db::Table* table = db.table(name);
    auto store_it = stores_.find(name);
    if (store_it == stores_.end()) {
      // A table the engine does not back (created before attach): manifests
      // cannot describe it, so fall back to a full snapshot — strictly
      // slower, never wrong.
      return db::dump_database(db);
    }
    const LsmStore* store = store_it->second;
    json::Object tj;
    tj["columns"] = db::schema_to_json(table->schema());
    json::Array indexes;
    for (const std::string& spec : table->index_specs()) {
      indexes.emplace_back(spec);
    }
    tj["indexes"] = json::Value(std::move(indexes));
    tj["next_row_id"] =
        json::Value(static_cast<std::int64_t>(table->next_row_id()));
    tj["next_run_seq"] =
        json::Value(static_cast<std::int64_t>(store->next_seq_));

    // Memtable image: active ∪ immutable, active winning, ascending id —
    // the rows recovery must re-materialize because no run holds their
    // latest version.
    auto resident = [&store](db::RowId id) -> const db::Row* {
      if (const db::Row* row = store->mem_.find(id)) return row;
      return store->immutable_.find(id);
    };
    json::Array mem_ids;
    json::Array mem_rows;
    json::Array spilled_ids;
    for (db::RowId id : store->live_) {
      const db::Row* row = resident(id);
      if (!row) {
        spilled_ids.emplace_back(static_cast<std::int64_t>(id));
        continue;
      }
      json::Array rj;
      for (const db::Value& cell : *row) rj.push_back(db::value_to_json(cell));
      mem_ids.emplace_back(static_cast<std::int64_t>(id));
      mem_rows.emplace_back(std::move(rj));
    }
    tj["mem_row_ids"] = json::Value(std::move(mem_ids));
    tj["mem_rows"] = json::Value(std::move(mem_rows));
    tj["spilled_ids"] = json::Value(std::move(spilled_ids));

    // Index entries of spilled rows: restore re-indexes memtable rows from
    // their cells, but spilled rows must not be read back just to index
    // them, so their (key, id) pairs ride in the manifest. A one-column key
    // is its cell; a composite key is the array of its cells.
    json::Object spilled_index;
    for (const std::string& spec : table->index_specs()) {
      json::Array pairs;
      table->for_each_index_entry(
          spec, [&](const std::vector<db::Value>& values, db::RowId id) {
            if (resident(id)) return;
            json::Array pair;
            if (values.size() == 1) {
              pair.push_back(db::value_to_json(values.front()));
            } else {
              json::Array tuple;
              for (const db::Value& v : values) {
                tuple.push_back(db::value_to_json(v));
              }
              pair.emplace_back(std::move(tuple));
            }
            pair.emplace_back(static_cast<std::int64_t>(id));
            pairs.emplace_back(std::move(pair));
          });
      spilled_index[spec] = json::Value(std::move(pairs));
    }
    tj["spilled_index"] = json::Value(std::move(spilled_index));

    json::Array runs;
    for (const auto& run : store->runs_) {
      runs.push_back(run_meta_to_json(*run));
      pinned.push_back(run->segment);
    }
    tj["runs"] = json::Value(std::move(runs));
    tables[name] = json::Value(std::move(tj));
  }
  doc["tables"] = json::Value(std::move(tables));
  // Remember what this manifest pins; the post-checkpoint hook promotes the
  // set once the checkpoint is durable.
  manifest_segments_ = std::move(pinned);
  return json::Value(std::move(doc));
}

// --- restore ----------------------------------------------------------------

Status StorageEngine::restore_manifest(db::Database& db,
                                       const json::Value& manifest) {
  // Lock order: database outer, engine inner (see StorageEngine::attach).
  std::lock_guard<std::recursive_mutex> db_lock(db.mutex());
  std::lock_guard<std::recursive_mutex> lock(mutex_);
  if (!is_manifest(manifest)) {
    return Status(ErrorCode::kInvalidArgument, "not a storage manifest");
  }
  if (db_ != &db) {
    return Status(ErrorCode::kConflict,
                  "storage: restore_manifest before attach");
  }
  const json::Value& tables = manifest["tables"];
  if (!tables.is_object()) {
    return Status(ErrorCode::kInvalidArgument, "manifest missing tables");
  }
  for (const auto& [name, tj] : tables.as_object()) {
    Result<db::Schema> schema = db::schema_from_json(tj["columns"]);
    if (!schema.ok()) return schema.error();
    Result<db::Table*> created = db.create_table(name, std::move(schema).take());
    if (!created.ok()) return created.error();
    db::Table* table = created.value();
    auto store_it = stores_.find(name);
    if (store_it == stores_.end()) {
      return Status(ErrorCode::kConflict,
                    "storage: table '" + name + "' restored without an "
                    "engine store (factory not installed?)");
    }
    LsmStore* store = store_it->second;

    if (tj["indexes"].is_array()) {
      for (const json::Value& idx : tj["indexes"].as_array()) {
        Status s = table->create_index(idx.get_string(""));
        if (!s.is_ok()) return s;
      }
    }

    // Runs and the seq counter first: restoring memtable rows below may
    // legitimately rotate and flush, and those runs must version *after*
    // every manifest run.
    store->next_seq_ =
        static_cast<std::uint64_t>(tj["next_run_seq"].get_int(1));
    if (tj["runs"].is_array()) {
      for (const json::Value& rj : tj["runs"].as_array()) {
        Result<RunMeta> meta = run_meta_from_json(rj);
        if (!meta.ok()) return meta.error();
        store->runs_.push_back(
            std::make_shared<RunMeta>(std::move(meta).take()));
      }
      std::sort(store->runs_.begin(), store->runs_.end(),
                [](const std::shared_ptr<RunMeta>& a,
                   const std::shared_ptr<RunMeta>& b) {
                  return a->seq > b->seq;  // newest first
                });
    }

    // Spilled liveness before the memtable image: restore_row() must see
    // final liveness only for its own id (conflict detection), and spilled
    // index entries arrive separately below.
    if (tj["spilled_ids"].is_array()) {
      for (const json::Value& id : tj["spilled_ids"].as_array()) {
        if (!id.is_number()) {
          return Status(ErrorCode::kInvalidArgument, "manifest spilled id");
        }
        store->live_.insert(static_cast<db::RowId>(id.as_int()));
      }
    }
    const json::Value& spilled_index = tj["spilled_index"];
    if (spilled_index.is_object()) {
      for (const auto& [spec, pairs] : spilled_index.as_object()) {
        Result<std::vector<db::ColumnType>> key =
            key_types(table->schema(), spec);
        if (!key.ok()) return key.error();
        const std::vector<db::ColumnType>& types = key.value();
        if (!pairs.is_array()) {
          return Status(ErrorCode::kInvalidArgument,
                        "manifest spilled_index spec '" + spec + "'");
        }
        for (const json::Value& pair : pairs.as_array()) {
          if (!pair.is_array() || pair.size() != 2 || !pair[1].is_number() ||
              (types.size() > 1 &&
               (!pair[0].is_array() || pair[0].size() != types.size()))) {
            return Status(ErrorCode::kInvalidArgument,
                          "manifest spilled_index entry");
          }
          std::vector<db::Value> values;
          for (std::size_t c = 0; c < types.size(); ++c) {
            Result<db::Value> value = db::json_to_value(
                types.size() == 1 ? pair[0] : pair[0][c], types[c]);
            if (!value.ok()) return value.error();
            values.push_back(std::move(value).take());
          }
          Status s = table->restore_index_entry(
              spec, std::move(values),
              static_cast<db::RowId>(pair[1].as_int()));
          if (!s.is_ok()) return s;
        }
      }
    }

    // Memtable image, via the table so index entries and next_row_id track.
    const json::Value& mem_ids = tj["mem_row_ids"];
    const json::Value& mem_rows = tj["mem_rows"];
    if (mem_ids.is_array() && mem_rows.is_array() &&
        mem_ids.size() == mem_rows.size()) {
      const db::Schema& schema = table->schema();
      for (std::size_t i = 0; i < mem_rows.size(); ++i) {
        const json::Value& rj = mem_rows[i];
        if (!rj.is_array() || rj.size() != schema.size() ||
            !mem_ids[i].is_number()) {
          return Status(ErrorCode::kInvalidArgument, "manifest memtable row");
        }
        db::Row row;
        row.reserve(schema.size());
        for (std::size_t c = 0; c < schema.size(); ++c) {
          Result<db::Value> cell =
              db::json_to_value(rj[c], schema.column(c).type);
          if (!cell.ok()) return cell.error();
          row.push_back(std::move(cell).take());
        }
        Status s = table->restore_row(
            static_cast<db::RowId>(mem_ids[i].as_int()), std::move(row));
        if (!s.is_ok()) return s;
      }
    }
    if (tj["next_row_id"].is_number()) {
      table->reserve_next_row_id(
          static_cast<db::RowId>(tj["next_row_id"].as_int()));
    }
  }
  return Status::ok();
}

}  // namespace osprey::storage
