#include "osprey/db/dump.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace osprey::db {

namespace {

const char* type_tag(ColumnType t) {
  switch (t) {
    case ColumnType::kInt: return "int";
    case ColumnType::kReal: return "real";
    case ColumnType::kText: return "text";
  }
  return "?";
}

Result<ColumnType> parse_type_tag(const std::string& tag) {
  if (tag == "int") return ColumnType::kInt;
  if (tag == "real") return ColumnType::kReal;
  if (tag == "text") return ColumnType::kText;
  return Error(ErrorCode::kInvalidArgument, "unknown column type '" + tag + "'");
}

}  // namespace

json::Value value_to_json(const Value& v) {
  if (v.is_null()) return json::Value(nullptr);
  if (v.is_int()) return json::Value(v.as_int());
  if (v.is_real()) return json::Value(v.as_real());
  return json::Value(v.as_text());
}

Result<Value> json_to_value(const json::Value& v, ColumnType type) {
  if (v.is_null()) return Value(nullptr);
  switch (type) {
    case ColumnType::kInt:
      if (!v.is_number()) break;
      return Value(v.as_int());
    case ColumnType::kReal:
      if (!v.is_number()) break;
      return Value(v.as_double());
    case ColumnType::kText:
      if (!v.is_string()) break;
      return Value(v.as_string());
  }
  return Error(ErrorCode::kInvalidArgument, "snapshot cell type mismatch");
}

json::Value schema_to_json(const Schema& schema) {
  json::Array columns;
  for (const ColumnDef& col : schema.columns()) {
    json::Object cj;
    cj["name"] = json::Value(col.name);
    cj["type"] = json::Value(type_tag(col.type));
    cj["nullable"] = json::Value(col.nullable);
    cj["primary_key"] = json::Value(col.primary_key);
    columns.emplace_back(std::move(cj));
  }
  return json::Value(std::move(columns));
}

Result<Schema> schema_from_json(const json::Value& columns) {
  if (!columns.is_array()) {
    return Error(ErrorCode::kInvalidArgument, "table missing columns");
  }
  std::vector<ColumnDef> defs;
  for (const json::Value& cj : columns.as_array()) {
    ColumnDef def;
    def.name = cj["name"].get_string("");
    Result<ColumnType> type = parse_type_tag(cj["type"].get_string(""));
    if (!type.ok()) return type.error();
    def.type = type.value();
    def.nullable = cj["nullable"].get_bool(true);
    def.primary_key = cj["primary_key"].get_bool(false);
    if (def.name.empty()) {
      return Error(ErrorCode::kInvalidArgument, "column without a name");
    }
    defs.push_back(std::move(def));
  }
  return Schema(std::move(defs));
}

json::Value dump_database(const Database& db) {
  json::Object doc;
  doc["format"] = json::Value("osprey-db-snapshot-v1");
  json::Object tables;
  for (const std::string& name : db.table_names()) {
    const Table* table = db.table(name);
    json::Object tj;

    tj["columns"] = schema_to_json(table->schema());

    json::Array indexes;
    for (const std::string& spec : table->index_specs()) {
      indexes.emplace_back(spec);
    }
    tj["indexes"] = json::Value(std::move(indexes));

    json::Array rows;
    json::Array row_ids;
    for (RowId id : table->all_row_ids()) {
      json::Array rj;
      const auto row = table->get(id);
      for (const Value& cell : *row) {
        rj.push_back(value_to_json(cell));
      }
      rows.emplace_back(std::move(rj));
      row_ids.emplace_back(static_cast<std::int64_t>(id));
    }
    tj["rows"] = json::Value(std::move(rows));
    tj["row_ids"] = json::Value(std::move(row_ids));
    // Deleted high ids are not recoverable from the rows alone, so the
    // counter is dumped explicitly — replayed WAL records must never collide
    // with ids handed out after restore.
    tj["next_row_id"] =
        json::Value(static_cast<std::int64_t>(table->next_row_id()));
    tables[name] = json::Value(std::move(tj));
  }
  doc["tables"] = json::Value(std::move(tables));
  return json::Value(std::move(doc));
}

Status restore_database(Database& db, const json::Value& snapshot) {
  if (snapshot["format"].get_string("") != "osprey-db-snapshot-v1") {
    return Status(ErrorCode::kInvalidArgument, "not an osprey db snapshot");
  }
  const json::Value& tables = snapshot["tables"];
  if (!tables.is_object()) {
    return Status(ErrorCode::kInvalidArgument, "snapshot missing tables");
  }
  for (const auto& [name, tj] : tables.as_object()) {
    Result<Schema> schema_parsed = schema_from_json(tj["columns"]);
    if (!schema_parsed.ok()) return schema_parsed.error();
    Result<Table*> created =
        db.create_table(name, std::move(schema_parsed).take());
    if (!created.ok()) return created.error();
    Table* table = created.value();

    if (tj["indexes"].is_array()) {
      for (const json::Value& idx : tj["indexes"].as_array()) {
        Status s = table->create_index(idx.get_string(""));
        if (!s.is_ok()) return s;
      }
    }

    if (tj["rows"].is_array()) {
      const Schema& schema = table->schema();
      // Snapshots carry the original row ids ("row_ids", same order as
      // "rows") so the restored table is id-identical — WAL replay depends
      // on it. Pre-v1.1 snapshots without the field fall back to insert().
      const json::Value& ids = tj["row_ids"];
      const bool keep_ids =
          ids.is_array() && ids.size() == tj["rows"].size();
      std::size_t row_index = 0;
      for (const json::Value& rj : tj["rows"].as_array()) {
        if (!rj.is_array() || rj.size() != schema.size()) {
          return Status(ErrorCode::kInvalidArgument, "snapshot row arity");
        }
        Row row;
        row.reserve(schema.size());
        for (std::size_t i = 0; i < schema.size(); ++i) {
          Result<Value> cell = json_to_value(rj[i], schema.column(i).type);
          if (!cell.ok()) return cell.error();
          row.push_back(std::move(cell).take());
        }
        if (keep_ids) {
          if (!ids[row_index].is_number()) {
            return Status(ErrorCode::kInvalidArgument, "snapshot row id type");
          }
          Status s = table->restore_row(
              static_cast<RowId>(ids[row_index].as_int()), std::move(row));
          if (!s.is_ok()) return s;
        } else {
          Result<RowId> id = table->insert(std::move(row));
          if (!id.ok()) return id.error();
        }
        ++row_index;
      }
    }
    if (tj["next_row_id"].is_number()) {
      table->reserve_next_row_id(
          static_cast<RowId>(tj["next_row_id"].as_int()));
    }
  }
  return Status::ok();
}

Status dump_to_file(const Database& db, const std::string& path) {
  // Crash-safe: write the snapshot to a temp file, fsync it, then rename
  // over the destination. A crash at any point leaves either the old
  // snapshot or the new one — never a torn half-written file.
  const std::string tmp = path + ".tmp";
  const std::string doc = dump_database(db).dump();

  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status(ErrorCode::kUnavailable,
                  "cannot open '" + tmp + "': " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < doc.size()) {
    ssize_t n = ::write(fd, doc.data() + written, doc.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status error(ErrorCode::kUnavailable,
                   "write to '" + tmp + "' failed: " + std::strerror(errno));
      ::close(fd);
      ::unlink(tmp.c_str());
      return error;
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status error(ErrorCode::kUnavailable,
                 "fsync '" + tmp + "' failed: " + std::strerror(errno));
    ::close(fd);
    ::unlink(tmp.c_str());
    return error;
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status(ErrorCode::kUnavailable,
                  "close '" + tmp + "' failed: " + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status error(ErrorCode::kUnavailable, "rename '" + tmp + "' -> '" + path +
                                              "' failed: " +
                                              std::strerror(errno));
    ::unlink(tmp.c_str());
    return error;
  }
  // Persist the rename itself (the directory entry) where possible.
  std::string dir = path;
  std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort; data is already safe in the file
    ::close(dfd);
  }
  return Status::ok();
}

Status restore_from_file(Database& db, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(ErrorCode::kNotFound, "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<json::Value> doc = json::parse(buffer.str());
  if (!doc.ok()) return doc.error();
  return restore_database(db, doc.value());
}

}  // namespace osprey::db
