#include "trace.h"

#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "common.h"

namespace perfbench::trace {

namespace {

struct Frame {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  std::int64_t store_ns = 0;
  std::uint64_t store_rows = 0;
  std::uint64_t store_calls = 0;
  std::uint64_t device_reads = 0;
  std::int32_t span = -1;  // index into ThreadLog::spans; -1 = aggregated
  bool aggregated = false;
};

struct SpanRecord {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // nearest non-aggregated ancestor
  std::int64_t request = 0;
  std::uint64_t store_calls = 0;
  std::int64_t store_ns = 0;
};

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<Frame> stack;
  std::vector<SpanRecord> spans;
  std::unordered_map<const char*, NameStats> stats;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadLog& this_thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.logs.push_back(std::make_unique<ThreadLog>());
    log = r.logs.back().get();
    log->tid = static_cast<std::uint32_t>(r.logs.size());
  }
  return *log;
}

std::int32_t nearest_span(const std::vector<Frame>& stack) {
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->span >= 0) return it->span;
  }
  return -1;
}

}  // namespace

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::atomic<bool>& Recorder::active_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

void Recorder::begin(const char* name, bool aggregated) {
  ThreadLog& log = this_thread_log();
  Frame frame;
  frame.name = name;
  frame.aggregated = aggregated;
  if (!aggregated) {
    SpanRecord rec;
    rec.name = name;
    rec.parent = nearest_span(log.stack);
    log.spans.push_back(rec);
    frame.span = static_cast<std::int32_t>(log.spans.size() - 1);
  }
  frame.start_ns = now_ns();
  log.stack.push_back(frame);
}

void Recorder::end(std::int64_t request, std::uint64_t rows,
                   std::uint64_t bytes, bool device_read) {
  const std::int64_t end = now_ns();
  ThreadLog& log = this_thread_log();
  if (log.stack.empty()) return;  // tracing switched on mid-call
  const Frame frame = log.stack.back();
  log.stack.pop_back();
  const std::int64_t dur = end - frame.start_ns;

  NameStats& st = log.stats[frame.name];
  st.count += 1;
  st.total_ns += dur;
  st.self_ns += dur - frame.child_ns;
  st.store_ns += frame.store_ns;
  st.store_rows += frame.store_rows;
  st.device_reads += frame.device_reads + (device_read ? 1 : 0);
  st.bytes += bytes;
  if (!frame.aggregated) {
    st.durations_ns.push_back(dur);
    SpanRecord& rec = log.spans[static_cast<std::size_t>(frame.span)];
    rec.start_ns = frame.start_ns;
    rec.end_ns = end;
    rec.request = request;
    rec.store_calls = frame.store_calls;
    rec.store_ns = frame.store_ns;
  }

  if (!log.stack.empty()) {
    Frame& parent = log.stack.back();
    parent.child_ns += dur;
    parent.device_reads += frame.device_reads + (device_read ? 1 : 0);
    if (frame.aggregated) {
      parent.store_ns += dur;
      parent.store_rows += rows;
      parent.store_calls += 1;
    } else {
      parent.store_ns += frame.store_ns;
      parent.store_rows += frame.store_rows;
      parent.store_calls += frame.store_calls;
    }
  }
}

bool Recorder::inside_store() const {
  ThreadLog& log = this_thread_log();
  return !log.stack.empty() && log.stack.back().aggregated;
}

void Recorder::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& log : r.logs) {
    log->stack.clear();
    log->spans.clear();
    log->stats.clear();
  }
}

std::map<std::string, NameStats> Recorder::stats() const {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::map<std::string, NameStats> merged;
  for (const auto& log : r.logs) {
    for (const auto& [name, st] : log->stats) {
      NameStats& m = merged[name];
      m.count += st.count;
      m.total_ns += st.total_ns;
      m.self_ns += st.self_ns;
      m.store_ns += st.store_ns;
      m.store_rows += st.store_rows;
      m.device_reads += st.device_reads;
      m.bytes += st.bytes;
      m.durations_ns.insert(m.durations_ns.end(), st.durations_ns.begin(),
                            st.durations_ns.end());
    }
  }
  return merged;
}

bool Recorder::write_chrome(const std::string& path) const {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t origin = 0;
  for (const auto& log : r.logs) {
    for (const SpanRecord& s : log->spans) {
      if (s.end_ns != 0 && (origin == 0 || s.start_ns < origin)) {
        origin = s.start_ns;
      }
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& log : r.logs) {
    for (const SpanRecord& s : log->spans) {
      if (s.end_ns == 0) continue;  // still open at the cut
      // The request id rides on the outermost call; children inherit it.
      std::int64_t request = s.request;
      for (std::int32_t p = s.parent; request == 0 && p >= 0;
           p = log->spans[static_cast<std::size_t>(p)].parent) {
        request = log->spans[static_cast<std::size_t>(p)].request;
      }
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"req\":%lld,\"store_calls\":%llu,"
                   "\"store_us\":%.3f}}",
                   first ? "" : ",", s.name, layer_of(s.name).c_str(),
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   log->tid, static_cast<long long>(request),
                   static_cast<unsigned long long>(s.store_calls),
                   static_cast<double>(s.store_ns) * 1e-3);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// --- TracedStore -------------------------------------------------------------

using osprey::Result;
using osprey::Status;
using osprey::db::Row;
using osprey::db::RowId;

void TracedStore::put(RowId id, Row row) {
  Span span("db.store.put", true);
  inner_->put(id, std::move(row));
}

std::optional<Row> TracedStore::get(RowId id) const {
  Span span("db.store.get", true);
  std::optional<Row> row = inner_->get(id);
  span.rows(row ? 1 : 0);
  return row;
}

const Row* TracedStore::get_ref(RowId id) const {
  Span span("db.store.get_ref", true);
  const Row* row = inner_->get_ref(id);
  span.rows(row ? 1 : 0);
  return row;
}

bool TracedStore::erase(RowId id) {
  Span span("db.store.erase", true);
  return inner_->erase(id);
}

void TracedStore::clear() {
  Span span("db.store.clear", true);
  inner_->clear();
}

std::size_t TracedStore::size() const { return inner_->size(); }

bool TracedStore::contains(RowId id) const {
  Span span("db.store.contains", true);
  return inner_->contains(id);
}

std::vector<RowId> TracedStore::ids() const {
  Span span("db.store.ids", true);
  return inner_->ids();
}

Status TracedStore::scan(
    const std::function<Status(RowId, const Row&)>& fn) const {
  Span span("db.store.scan", true);
  std::uint64_t visited = 0;
  Status s = inner_->scan([&](RowId id, const Row& row) {
    ++visited;
    return fn(id, row);
  });
  span.rows(visited);
  return s;
}

osprey::db::Database::StoreFactory traced_store_factory(
    osprey::db::Database::StoreFactory inner) {
  return [inner = std::move(inner)](const std::string& table)
             -> std::unique_ptr<osprey::storage::RowStore> {
    std::unique_ptr<osprey::storage::RowStore> store =
        inner ? inner(table) : nullptr;
    if (!store) store = std::make_unique<osprey::storage::MemStore>();
    return std::make_unique<TracedStore>(std::move(store));
  };
}

// --- TracedDevice ------------------------------------------------------------

namespace {
const char* device_span(const char* wal_name, const char* storage_name) {
  return Recorder::active() && Recorder::instance().inside_store()
             ? storage_name
             : wal_name;
}
}  // namespace

Status TracedDevice::append(const std::string& segment,
                            const std::string& data) {
  Span span(device_span("wal.device.append", "storage.device.append"));
  span.bytes(data.size());
  return inner_.append(segment, data);
}

Status TracedDevice::sync(const std::string& segment) {
  Span span(device_span("wal.device.sync", "storage.device.sync"));
  return inner_.sync(segment);
}

Result<std::string> TracedDevice::read(const std::string& segment) {
  Span span(device_span("wal.device.read", "storage.device.read"));
  Result<std::string> r = inner_.read(segment);
  if (r.ok()) span.bytes(r.value().size());
  span.device_read();
  return r;
}

Result<std::string> TracedDevice::read_range(const std::string& segment,
                                             std::uint64_t offset,
                                             std::uint64_t length) {
  Span span(device_span("wal.device.read", "storage.device.read"));
  Result<std::string> r = inner_.read_range(segment, offset, length);
  if (r.ok()) span.bytes(r.value().size());
  span.device_read();
  return r;
}

Status TracedDevice::truncate(const std::string& segment, std::uint64_t size) {
  Span span(device_span("wal.device.truncate", "storage.device.truncate"));
  return inner_.truncate(segment, size);
}

Status TracedDevice::remove(const std::string& segment) {
  Span span(device_span("wal.device.remove", "storage.device.remove"));
  return inner_.remove(segment);
}

Result<std::vector<std::string>> TracedDevice::list() {
  Span span(device_span("wal.device.list", "storage.device.list"));
  return inner_.list();
}

// --- TracedObserver ----------------------------------------------------------

void TracedObserver::install(osprey::db::Database& db) {
  std::lock_guard<std::recursive_mutex> lock(db.mutex());
  db_ = &db;
  inner_ = db.commit_observer();
  db.set_commit_observer(this);
}

void TracedObserver::uninstall() {
  if (db_ == nullptr) return;
  std::lock_guard<std::recursive_mutex> lock(db_->mutex());
  if (db_->commit_observer() == this) db_->set_commit_observer(inner_);
  db_ = nullptr;
  inner_ = nullptr;
}

Status TracedObserver::on_commit(
    osprey::db::Database& db,
    const std::vector<osprey::db::UndoRecord>& journal) {
  Span span("commit.hook");
  return inner_ ? inner_->on_commit(db, journal) : Status::ok();
}

Status TracedObserver::on_create_table(const osprey::db::Table& table) {
  return inner_ ? inner_->on_create_table(table) : Status::ok();
}

Status TracedObserver::on_drop_table(const std::string& name) {
  return inner_ ? inner_->on_drop_table(name) : Status::ok();
}

Status TracedObserver::on_create_index(const std::string& table,
                                       const std::string& column) {
  return inner_ ? inner_->on_create_index(table, column) : Status::ok();
}

}  // namespace perfbench::trace
