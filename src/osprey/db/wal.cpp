#include "osprey/db/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>

#include "osprey/db/codec.h"
#include "osprey/db/dump.h"
#include "osprey/obs/telemetry.h"

namespace osprey::db::wal {

namespace {

/// Durability-plane telemetry (DESIGN.md §observability): fsync latency, the
/// group-commit batch-size distribution, and recovery work counters.
struct WalObs {
  obs::Histogram& fsync_latency;
  obs::Histogram& group_commit_batch;
  obs::Histogram& recovery_duration;
  obs::Counter& records_replayed;
  obs::Counter& bytes_truncated;
};

WalObs& wal_obs() {
  static WalObs o{
      obs::telemetry().metrics.histogram("osprey_wal_fsync_latency_seconds"),
      obs::telemetry().metrics.histogram("osprey_wal_group_commit_batch", {},
                                         obs::count_buckets()),
      obs::telemetry().metrics.histogram(
          "osprey_wal_recovery_duration_seconds"),
      obs::telemetry().metrics.counter("osprey_wal_records_replayed_total"),
      obs::telemetry().metrics.counter("osprey_wal_bytes_truncated_total"),
  };
  return o;
}

// Segment headers: 8-byte magic + u64 first LSN (wal) / nothing (ckpt, whose
// single frame carries its LSN).
constexpr char kWalMagic[8] = {'O', 'S', 'P', 'W', 'A', 'L', 'v', '1'};
constexpr char kCkptMagic[8] = {'O', 'S', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr std::size_t kWalHeaderBytes = sizeof(kWalMagic) + 8;

constexpr const char* kWalPrefix = "wal-";
constexpr const char* kCkptPrefix = "ckpt-";

using codec::get_cell;
using codec::hex_u64;
using codec::put_cell;
using codec::put_str;
using codec::put_u16;
using codec::put_u32;
using codec::put_u64;
using codec::Reader;

/// The LSN a segment name encodes after `prefix` (a wal segment's first LSN,
/// a checkpoint's covered LSN); nullopt for a name of any other kind.
std::optional<Lsn> segment_lsn(const std::string& name, const char* prefix) {
  const std::size_t start = std::strlen(prefix);
  if (name.size() != start + 16 || name.compare(0, start, prefix) != 0) {
    return std::nullopt;
  }
  Lsn v = 0;
  for (std::size_t i = start; i < name.size(); ++i) {
    const char c = name[i];
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<Lsn>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<Lsn>(c - 'a' + 10);
    else return std::nullopt;
  }
  return v;
}

/// The newest checkpoint LSN named on the device (0 when none): nothing at
/// or below it is still owed to a reader of the wal segments.
Lsn newest_checkpoint_lsn(const std::vector<std::string>& names) {
  Lsn newest = 0;
  for (const std::string& name : names) {
    newest = std::max(newest, segment_lsn(name, kCkptPrefix).value_or(0));
  }
  return newest;
}

}  // namespace

// --- log geometry -----------------------------------------------------------

std::string wal_segment_name(Lsn first_lsn) {
  return kWalPrefix + hex_u64(first_lsn);
}

std::string checkpoint_segment_name(Lsn lsn) {
  return kCkptPrefix + hex_u64(lsn);
}

std::string wal_segment_header(Lsn first_lsn) {
  std::string header(kWalMagic, sizeof(kWalMagic));
  put_u64(header, first_lsn);
  return header;
}

std::string encode_checkpoint(Lsn lsn, const json::Value& snapshot) {
  std::string body;
  put_u64(body, lsn);
  body += snapshot.dump();
  std::string out(kCkptMagic, sizeof(kCkptMagic));
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  put_u32(out, crc32(body.data(), body.size()));
  out += body;
  return out;
}

// --- CRC32 ------------------------------------------------------------------

std::uint32_t crc32(const void* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

// --- record codec -----------------------------------------------------------

std::string encode_record(const Record& record) {
  std::string payload;
  put_u64(payload, record.lsn);
  payload.push_back(static_cast<char>(record.type));
  switch (record.type) {
    case RecordType::kInsert:
    case RecordType::kUpdate:
      put_str(payload, record.table);
      put_u64(payload, record.row_id);
      put_u16(payload, static_cast<std::uint16_t>(record.row.size()));
      for (const Value& cell : record.row) put_cell(payload, cell);
      break;
    case RecordType::kDelete:
      put_str(payload, record.table);
      put_u64(payload, record.row_id);
      break;
    case RecordType::kCommit:
      put_u32(payload, record.txn_records);
      break;
    case RecordType::kCreateTable:
      put_str(payload, record.table);
      put_str(payload, record.schema_json);
      break;
    case RecordType::kDropTable:
      put_str(payload, record.table);
      break;
    case RecordType::kCreateIndex:
      put_str(payload, record.table);
      put_str(payload, record.column);
      break;
    case RecordType::kEpoch:
      put_u64(payload, record.epoch);
      break;
  }
  std::string frame;
  frame.reserve(payload.size() + 8);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload.data(), payload.size()));
  frame += payload;
  return frame;
}

DecodeStatus decode_record(const std::string& buffer, std::size_t offset,
                           Record* out, std::size_t* consumed) {
  if (offset >= buffer.size()) return DecodeStatus::kEndOfLog;
  if (buffer.size() - offset < 8) return DecodeStatus::kTruncated;
  Reader head{buffer, offset, buffer.size()};
  std::uint32_t len = head.u32();
  std::uint32_t crc = head.u32();
  if (buffer.size() - head.pos < len) return DecodeStatus::kTruncated;
  if (len < 9) return DecodeStatus::kCorrupt;  // payload is at least lsn+type
  if (crc32(buffer.data() + head.pos, len) != crc) return DecodeStatus::kCorrupt;

  Reader r{buffer, head.pos, head.pos + len};
  Record record;
  record.lsn = r.u64();
  if (!r.need(1)) return DecodeStatus::kCorrupt;
  auto type = static_cast<std::uint8_t>(r.buf[r.pos++]);
  if (type < 1 || type > 8) return DecodeStatus::kCorrupt;
  record.type = static_cast<RecordType>(type);
  switch (record.type) {
    case RecordType::kInsert:
    case RecordType::kUpdate: {
      record.table = r.str();
      record.row_id = r.u64();
      std::uint16_t cells = r.u16();
      record.row.reserve(cells);
      for (std::uint16_t i = 0; i < cells && r.ok; ++i) {
        record.row.push_back(get_cell(r));
      }
      break;
    }
    case RecordType::kDelete:
      record.table = r.str();
      record.row_id = r.u64();
      break;
    case RecordType::kCommit:
      record.txn_records = r.u32();
      break;
    case RecordType::kCreateTable:
      record.table = r.str();
      record.schema_json = r.str();
      break;
    case RecordType::kDropTable:
      record.table = r.str();
      break;
    case RecordType::kCreateIndex:
      record.table = r.str();
      record.column = r.str();
      break;
    case RecordType::kEpoch:
      record.epoch = r.u64();
      break;
  }
  if (!r.ok || r.pos != r.end) return DecodeStatus::kCorrupt;
  *out = std::move(record);
  *consumed = r.end - offset;  // full frame: 8-byte header + payload
  return DecodeStatus::kOk;
}

// --- LogDevice --------------------------------------------------------------

Result<std::string> LogDevice::read_range(const std::string& segment,
                                          std::uint64_t offset,
                                          std::uint64_t length) {
  Result<std::string> whole = read(segment);
  if (!whole.ok()) return whole;
  const std::string& buf = whole.value();
  if (offset >= buf.size()) return std::string();
  return buf.substr(static_cast<std::size_t>(offset),
                    static_cast<std::size_t>(length));
}

// --- FileLogDevice ----------------------------------------------------------

FileLogDevice::FileLogDevice(std::string directory) : dir_(std::move(directory)) {
  ::mkdir(dir_.c_str(), 0755);  // best effort; append reports real failures
}

FileLogDevice::~FileLogDevice() {
  for (auto& [_, fd] : fds_) ::close(fd);
}

int FileLogDevice::fd_locked(const std::string& segment, std::string* error) {
  auto it = fds_.find(segment);
  if (it != fds_.end()) return it->second;
  std::string path = dir_ + "/" + segment;
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    *error = "open '" + path + "': " + std::strerror(errno);
    return -1;
  }
  fds_.emplace(segment, fd);
  return fd;
}

void FileLogDevice::close_locked(const std::string& segment) {
  auto it = fds_.find(segment);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
}

Status FileLogDevice::append(const std::string& segment, const std::string& data) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::string error;
  int fd = fd_locked(segment, &error);
  if (fd < 0) return Status(ErrorCode::kUnavailable, error);
  std::size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status(ErrorCode::kUnavailable,
                    "write '" + segment + "': " + std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

Status FileLogDevice::sync(const std::string& segment) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    std::string error;
    const int append_fd = fd_locked(segment, &error);
    if (append_fd < 0) return Status(ErrorCode::kUnavailable, error);
    // A duplicate: a concurrent remove() or truncate() closes the append fd,
    // never the one this fsync runs on.
    fd = ::dup(append_fd);
    if (fd < 0) {
      return Status(ErrorCode::kUnavailable,
                    "dup '" + segment + "': " + std::strerror(errno));
    }
  }
  // Outside the mutex, so appends to this and other segments continue.
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status(ErrorCode::kUnavailable,
                  "fsync '" + segment + "': " + std::strerror(err));
  }
  return Status::ok();
}

namespace {

// Only a missing file is kNotFound; any other open failure (EMFILE, EACCES,
// EIO, ...) leaves the segment on disk and must not read as removed.
Error open_error(const std::string& path) {
  const int err = errno;
  return Error(err == ENOENT ? ErrorCode::kNotFound : ErrorCode::kUnavailable,
               "open '" + path + "': " + std::strerror(err));
}

}  // namespace

Result<std::string> FileLogDevice::read(const std::string& segment) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::string path = dir_ + "/" + segment;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return open_error(path);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Error error(ErrorCode::kUnavailable,
                  "read '" + path + "': " + std::strerror(errno));
      ::close(fd);
      return error;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

Result<std::string> FileLogDevice::read_range(const std::string& segment,
                                              std::uint64_t offset,
                                              std::uint64_t length) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::string path = dir_ + "/" + segment;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return open_error(path);
  std::string out;
  out.resize(static_cast<std::size_t>(length));
  std::size_t got = 0;
  while (got < length) {
    ssize_t n = ::pread(fd, out.data() + got, length - got,
                        static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      Error error(ErrorCode::kUnavailable,
                  "pread '" + path + "': " + std::strerror(errno));
      ::close(fd);
      return error;
    }
    if (n == 0) break;  // segment ends before offset+length
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

Status FileLogDevice::truncate(const std::string& segment, std::uint64_t size) {
  std::lock_guard<std::mutex> guard(mutex_);
  close_locked(segment);  // O_APPEND fd offsets are per-write; reopen cleanly
  std::string path = dir_ + "/" + segment;
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status(ErrorCode::kUnavailable,
                  "truncate '" + path + "': " + std::strerror(errno));
  }
  return Status::ok();
}

Status FileLogDevice::remove(const std::string& segment) {
  std::lock_guard<std::mutex> guard(mutex_);
  close_locked(segment);
  std::string path = dir_ + "/" + segment;
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status(ErrorCode::kUnavailable,
                  "unlink '" + path + "': " + std::strerror(errno));
  }
  return Status::ok();
}

Result<std::vector<std::string>> FileLogDevice::list() {
  std::lock_guard<std::mutex> guard(mutex_);
  DIR* dir = ::opendir(dir_.c_str());
  if (!dir) {
    return Error(ErrorCode::kUnavailable,
                 "opendir '" + dir_ + "': " + std::strerror(errno));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

// --- SimLogDevice -----------------------------------------------------------

SimLogDevice::SimLogDevice(std::shared_ptr<SimDisk> disk, FaultRegistry* faults)
    : disk_(std::move(disk)), faults_(faults) {}

Status SimLogDevice::fail_if_dead_locked(const char* op) {
  if (dead_) {
    return Status(ErrorCode::kUnavailable,
                  std::string("log device dead (") + op + ")");
  }
  return Status::ok();
}

Status SimLogDevice::append(const std::string& segment, const std::string& data) {
  std::lock_guard<std::mutex> guard(mutex_);
  Status alive = fail_if_dead_locked("append");
  if (!alive.is_ok()) return alive;
  if (faults_ && faults_->should_fire(fault_point::wal_crash_before_append())) {
    dead_ = true;
    return Status(ErrorCode::kUnavailable, "device crashed before append");
  }
  Pending& pending = pending_[segment];
  if (pending.id == 0) pending.id = next_pending_id_++;
  pending.bytes += data;
  ++appends_;
  bytes_appended_ += data.size();
  if (faults_ && faults_->should_fire(fault_point::wal_crash_after_append())) {
    dead_ = true;  // landed in the write cache only; lost at crash()
    return Status(ErrorCode::kUnavailable, "device crashed after append");
  }
  return Status::ok();
}

Status SimLogDevice::sync(const std::string& segment) {
  std::uint64_t spin_iterations = 0;
  std::function<void()> hook;
  std::uint64_t entry = 0;  // the cache entry this sync flushes
  std::size_t flushable = 0;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    Status alive = fail_if_dead_locked("sync");
    if (!alive.is_ok()) return alive;
    if (faults_ && faults_->should_fire(fault_point::wal_crash_before_sync())) {
      dead_ = true;
      return Status(ErrorCode::kUnavailable, "device crashed before sync");
    }
    spin_iterations = sync_spin_;
    hook = sync_hook_;
    if (auto it = pending_.find(segment); it != pending_.end()) {
      entry = it->second.id;
      flushable = it->second.bytes.size();
    }
  }
  // The device latency runs outside the mutex, as a real fsync does:
  // appends land in the cache meanwhile and wait for the next sync.
  if (hook) hook();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t spin = 0; spin < spin_iterations; ++spin) sink = spin;
  (void)sink;

  std::lock_guard<std::mutex> guard(mutex_);
  Status alive = fail_if_dead_locked("sync");
  if (!alive.is_ok()) return alive;  // power lost mid-sync
  auto it = pending_.find(segment);
  if (it == pending_.end() || it->second.id != entry) flushable = 0;
  if (faults_ && faults_->should_fire(fault_point::wal_partial_flush())) {
    // A prefix of the cache reaches the medium, then the device dies — the
    // canonical torn write the recovery scan must truncate.
    if (flushable > 0) {
      double f = faults_->magnitude(fault_point::wal_partial_flush());
      f = std::min(std::max(f, 0.0), 1.0);
      auto keep =
          static_cast<std::size_t>(static_cast<double>(flushable) * f);
      disk_->segments[segment] += it->second.bytes.substr(0, keep);
      pending_.erase(it);
    }
    dead_ = true;
    return Status(ErrorCode::kUnavailable, "device crashed mid-flush");
  }
  if (flushable > 0) {
    disk_->segments[segment] += it->second.bytes.substr(0, flushable);
    it->second.bytes.erase(0, flushable);
    if (it->second.bytes.empty()) pending_.erase(it);
  }
  ++syncs_;
  if (faults_ && faults_->should_fire(fault_point::wal_crash_after_sync())) {
    dead_ = true;  // durable, but the acknowledgement is lost
    return Status(ErrorCode::kUnavailable, "device crashed after sync");
  }
  return Status::ok();
}

Result<std::pair<const std::string*, const std::string*>>
SimLogDevice::parts_locked(const std::string& segment) {
  Status alive = fail_if_dead_locked("read");
  if (!alive.is_ok()) return alive.error();
  if (auto bad = disk_->unreadable.find(segment);
      bad != disk_->unreadable.end()) {
    return Error(bad->second, "cannot read '" + segment + "'");
  }
  auto durable = disk_->segments.find(segment);
  auto pending = pending_.find(segment);
  if (durable == disk_->segments.end() && pending == pending_.end()) {
    return Error(ErrorCode::kNotFound, "no segment '" + segment + "'");
  }
  return std::pair<const std::string*, const std::string*>(
      durable == disk_->segments.end() ? nullptr : &durable->second,
      pending == pending_.end() ? nullptr : &pending->second.bytes);
}

Result<std::string> SimLogDevice::read(const std::string& segment) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto parts = parts_locked(segment);
  if (!parts.ok()) return parts.error();
  std::string out;
  if (parts.value().first) out = *parts.value().first;
  if (parts.value().second) out += *parts.value().second;
  return out;
}

Result<std::string> SimLogDevice::read_range(const std::string& segment,
                                             std::uint64_t offset,
                                             std::uint64_t length) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto parts = parts_locked(segment);
  if (!parts.ok()) return parts.error();
  std::string out;
  for (const std::string* part : {parts.value().first, parts.value().second}) {
    if (!part || out.size() == length) continue;
    if (offset >= part->size()) {
      offset -= part->size();
      continue;
    }
    out += part->substr(static_cast<std::size_t>(offset),
                        static_cast<std::size_t>(length - out.size()));
    offset = 0;
  }
  return out;
}

Status SimLogDevice::truncate(const std::string& segment, std::uint64_t size) {
  std::lock_guard<std::mutex> guard(mutex_);
  Status alive = fail_if_dead_locked("truncate");
  if (!alive.is_ok()) return alive;
  pending_.erase(segment);  // recovery-only operation; cache is stale anyway
  auto it = disk_->segments.find(segment);
  if (it == disk_->segments.end()) {
    return Status(ErrorCode::kNotFound, "no segment '" + segment + "'");
  }
  if (size < it->second.size()) it->second.resize(size);
  return Status::ok();
}

Status SimLogDevice::remove(const std::string& segment) {
  std::lock_guard<std::mutex> guard(mutex_);
  Status alive = fail_if_dead_locked("remove");
  if (!alive.is_ok()) return alive;
  pending_.erase(segment);
  disk_->segments.erase(segment);
  return Status::ok();
}

Result<std::vector<std::string>> SimLogDevice::list() {
  std::lock_guard<std::mutex> guard(mutex_);
  Status alive = fail_if_dead_locked("list");
  if (!alive.is_ok()) return alive.error();
  std::vector<std::string> names;
  for (const auto& [name, _] : disk_->segments) names.push_back(name);
  for (const auto& [name, _] : pending_) {
    if (!disk_->segments.count(name)) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

void SimLogDevice::crash() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& [segment, cached] : pending_) {
    const std::string& tail = cached.bytes;
    if (faults_ && !tail.empty() &&
        faults_->should_fire(fault_point::wal_torn_tail())) {
      double f = faults_->magnitude(fault_point::wal_torn_tail());
      f = std::min(std::max(f, 0.0), 1.0);
      auto keep =
          static_cast<std::size_t>(static_cast<double>(tail.size()) * f);
      disk_->segments[segment] += tail.substr(0, keep);
    }
  }
  pending_.clear();
  dead_ = true;
}

bool SimLogDevice::dead() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return dead_;
}

void SimLogDevice::set_sync_spin(std::uint64_t iterations) {
  std::lock_guard<std::mutex> guard(mutex_);
  sync_spin_ = iterations;
}

void SimLogDevice::set_sync_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> guard(mutex_);
  sync_hook_ = std::move(hook);
}

std::uint64_t SimLogDevice::appends() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return appends_;
}

std::uint64_t SimLogDevice::syncs() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return syncs_;
}

std::uint64_t SimLogDevice::bytes_appended() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return bytes_appended_;
}

std::uint64_t SimLogDevice::bytes_durable() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::uint64_t total = 0;
  for (const auto& [_, data] : disk_->segments) total += data.size();
  return total;
}

Result<json::Value> decode_checkpoint(const std::string& image, Lsn* lsn) {
  const Error torn(ErrorCode::kInvalidArgument, "torn checkpoint image");
  if (image.size() < sizeof(kCkptMagic) + 8 ||
      std::memcmp(image.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return torn;
  }
  Reader r{image, sizeof(kCkptMagic), image.size()};
  const std::uint32_t len = r.u32();
  const std::uint32_t crc = r.u32();
  if (!r.ok || image.size() - r.pos < len || len < 8 ||
      crc32(image.data() + r.pos, len) != crc) {
    return torn;
  }
  Reader body{image, r.pos, r.pos + len};
  const Lsn body_lsn = body.u64();
  Result<json::Value> doc = json::parse(image.substr(body.pos, len - 8));
  if (!doc.ok()) return torn;
  if (lsn) *lsn = body_lsn;
  return doc;
}

// --- recovery ---------------------------------------------------------------

namespace {

struct CheckpointData {
  Lsn lsn = 0;
  json::Value snapshot;
  bool found = false;
};

// The newest intact checkpoint. A torn one (a crash during its own write)
// is passed over for an older one. A checkpoint that cannot be read is an
// error, not a tear: WalManager::checkpoint deleted the older checkpoints
// and the log segments the unreadable one covers, so falling back would
// restore a database that never existed.
Result<CheckpointData> load_latest_checkpoint(
    LogDevice& device, const std::vector<std::string>& names) {
  CheckpointData best;
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (!segment_lsn(*it, kCkptPrefix)) continue;
    Result<std::string> data = device.read(*it);
    if (!data.ok()) return data.error();
    Result<json::Value> snapshot = decode_checkpoint(data.value(), &best.lsn);
    if (!snapshot.ok()) continue;
    best.snapshot = std::move(snapshot).take();
    best.found = true;
    return best;
  }
  return best;
}

Status apply_dml(Database& db, const Record& r) {
  Table* t = db.table(r.table);
  if (!t) {
    return Status(ErrorCode::kInternal,
                  "redo record for unknown table '" + r.table + "'");
  }
  switch (r.type) {
    case RecordType::kInsert:
    case RecordType::kUpdate:
      // Full post-images make replay idempotent-converging: overwrite when
      // present, materialize when absent.
      if (t->get(r.row_id)) return t->update_row(r.row_id, r.row);
      return t->restore_row(r.row_id, r.row);
    case RecordType::kDelete:
      t->erase_row(r.row_id);  // no-op when already gone
      return Status::ok();
    default:
      return Status(ErrorCode::kInternal, "apply_dml on non-DML record");
  }
}

Status apply_ddl(Database& db, const Record& r, std::size_t* applied) {
  switch (r.type) {
    case RecordType::kCreateTable: {
      if (db.table(r.table)) return Status::ok();  // idempotent
      Result<json::Value> columns = json::parse(r.schema_json);
      if (!columns.ok()) return columns.error();
      Result<Schema> schema = schema_from_json(columns.value());
      if (!schema.ok()) return schema.error();
      Result<Table*> created =
          db.create_table(r.table, std::move(schema).take());
      if (!created.ok()) return created.error();
      ++*applied;
      return Status::ok();
    }
    case RecordType::kDropTable: {
      if (!db.table(r.table)) return Status::ok();
      Status s = db.drop_table(r.table);
      if (s.is_ok()) ++*applied;
      return s;
    }
    case RecordType::kCreateIndex: {
      Table* t = db.table(r.table);
      if (!t) {
        return Status(ErrorCode::kInternal,
                      "index record for unknown table '" + r.table + "'");
      }
      Status s = t->create_index(r.column);  // idempotent
      if (s.is_ok()) ++*applied;
      return s;
    }
    default:
      return Status(ErrorCode::kInternal, "apply_ddl on non-DDL record");
  }
}

bool is_dml(RecordType t) {
  return t == RecordType::kInsert || t == RecordType::kUpdate ||
         t == RecordType::kDelete;
}

bool is_ddl(RecordType t) {
  return t == RecordType::kCreateTable || t == RecordType::kDropTable ||
         t == RecordType::kCreateIndex;
}

// The committed log ends at the last complete committed unit before the
// first of: a wal segment whose header is torn (a crash during rotation), a
// torn or corrupt frame, a commit marker whose count disagrees with its
// transaction, or a transaction still open at a segment end (a transaction
// never spans segments: rotation happens between append batches).
//
// The end falls at the start of the incomplete transaction, not just at the
// torn frame. A transaction's DML frames and its commit marker are appended
// as one batch, so a tear inside the commit marker leaves complete-but-
// uncommitted DML frames ahead of it. If those stayed on the device, a
// resumed writer would append after them, the orphans would join the next
// committed transaction in a later walk, its marker count would disagree,
// and an acknowledged transaction would be thrown away as torn. For the same
// reason dangling DML LSNs are never committed LSNs: they are cut and a
// resumed writer reissues them.

/// Where walk_log() found the committed log to end, and what lies past it.
struct LogEnd {
  std::string tail;               // last segment with a valid header, or ""
  std::uint64_t tail_bytes = 0;   // its committed bytes: a writer resumes here
  bool cut_tail = false;          // `tail` holds bytes past the committed end
  std::vector<std::string> dead;  // whole segments past the committed end
  std::uint64_t bytes_past_end = 0;   // of the segments read
  std::size_t records_discarded = 0;  // DML of the transaction left open
  std::size_t segments_scanned = 0;
  Lsn last_lsn = 0;  // highest committed LSN walked (0 when none)
};

/// What a unit visitor tells the walk: keep going, or stop here (the
/// cursor's batch is full). A visitor error aborts the walk.
enum class Walk { kContinue, kStop };
using UnitVisitor = std::function<Result<Walk>(std::vector<Record>& unit)>;

/// What the walk does with a listed wal segment that reads as kNotFound.
/// A caller that repairs fails: cutting or resuming the writer past a hole
/// would drop committed units and reissue their LSNs. The read-only cursor
/// ends its batch there instead (a racing checkpoint removed the segment;
/// its next call re-lists and re-checks the checkpoint), so it never
/// delivers a unit past the hole either.
enum class Vanished { kFail, kEndOfLog };

/// Walk the wal segments among `names` in LSN order, starting at the last
/// segment whose first LSN is <= `from` (0: every segment), and hand each
/// committed unit to `visit`: a transaction's DML plus its commit marker, or
/// one self-committing DDL or epoch record. Reads only; cut_log() repairs.
Result<LogEnd> walk_log(LogDevice& device,
                        const std::vector<std::string>& names, Lsn from,
                        Vanished vanished, const UnitVisitor& visit) {
  // A segment's records all precede the next segment's first LSN, so
  // segments before the last one starting at or before `from` are skipped.
  std::vector<std::string> segments;
  for (const std::string& name : names) {
    std::optional<Lsn> first = segment_lsn(name, kWalPrefix);
    if (!first) continue;
    if (*first <= from) segments.clear();
    segments.push_back(name);
  }

  LogEnd end;
  std::vector<Record> unit;
  for (auto seg = segments.begin(); seg != segments.end(); ++seg) {
    Result<std::string> data = device.read(*seg);
    if (!data.ok()) {
      if (data.error().code == ErrorCode::kNotFound &&
          vanished == Vanished::kEndOfLog) {
        return end;
      }
      return data.error();
    }
    const std::string& buf = data.value();
    ++end.segments_scanned;
    if (buf.size() < kWalHeaderBytes ||
        std::memcmp(buf.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
      // A torn header carries no records: the segment goes whole.
      end.bytes_past_end += buf.size();
      end.dead.assign(seg, segments.end());
      return end;
    }
    end.tail = *seg;
    std::size_t offset = kWalHeaderBytes;
    std::size_t unit_start = offset;
    while (true) {
      Record record;
      std::size_t frame_bytes = 0;
      const DecodeStatus status =
          decode_record(buf, offset, &record, &frame_bytes);
      const bool torn =
          status == DecodeStatus::kTruncated ||
          status == DecodeStatus::kCorrupt ||
          (status == DecodeStatus::kEndOfLog && !unit.empty()) ||
          (status == DecodeStatus::kOk && record.type == RecordType::kCommit &&
           record.txn_records != unit.size());
      if (torn) {
        const std::size_t keep = unit.empty() ? offset : unit_start;
        end.tail_bytes = keep;
        end.cut_tail = true;
        end.bytes_past_end += buf.size() - keep;
        end.records_discarded = unit.size();
        end.dead.assign(seg + 1, segments.end());
        return end;
      }
      if (status == DecodeStatus::kEndOfLog) break;
      if (unit.empty()) unit_start = offset;
      offset += frame_bytes;
      unit.push_back(std::move(record));
      if (is_dml(unit.back().type)) continue;  // open until its commit marker
      end.last_lsn = std::max(end.last_lsn, unit.back().lsn);
      Result<Walk> next = visit(unit);
      if (!next.ok()) return next.error();
      unit.clear();
      if (next.value() == Walk::kStop) return end;
    }
    end.tail_bytes = buf.size();
  }
  return end;
}

/// The one torn-tail repair: cut the log at the committed end walk_log()
/// found, so a writer never appends after garbage or orphaned DML.
Status cut_log(LogDevice& device, const LogEnd& end) {
  if (end.cut_tail) {
    Status truncated = device.truncate(end.tail, end.tail_bytes);
    if (!truncated.is_ok()) return truncated;
  }
  for (const std::string& name : end.dead) {
    Status removed = device.remove(name);
    if (!removed.is_ok()) return removed;
  }
  return Status::ok();
}

Result<Walk> visit_nothing(std::vector<Record>&) { return Walk::kContinue; }

}  // namespace

Status apply_record(Database& db, const Record& record) {
  if (is_dml(record.type)) return apply_dml(db, record);
  if (is_ddl(record.type)) {
    std::size_t applied = 0;
    return apply_ddl(db, record, &applied);
  }
  return Status::ok();  // kCommit / kEpoch: markers, no state
}

Result<RecoveryInfo> recover(LogDevice& device, Database& db) {
  return recover(device, db, [](Database& target, const json::Value& snapshot) {
    return snapshot.is_null() ? Status::ok()
                              : restore_database(target, snapshot);
  });
}

Result<RecoveryInfo> recover(LogDevice& device, Database& db,
                             const SnapshotRestorer& restore_snapshot) {
  if (!db.table_names().empty()) {
    return Error(ErrorCode::kInvalidArgument,
                 "recover() requires an empty database");
  }
  obs::Stopwatch recovery_latency;
  Result<std::vector<std::string>> names = device.list();
  if (!names.ok()) return names.error();

  RecoveryInfo info;
  Result<CheckpointData> loaded = load_latest_checkpoint(device, names.value());
  if (!loaded.ok()) return loaded.error();
  const CheckpointData& ckpt = loaded.value();
  Status restored = restore_snapshot(db, ckpt.snapshot);
  if (!restored.is_ok()) return restored.error();
  if (ckpt.found) {
    info.used_checkpoint = true;
    info.checkpoint_lsn = ckpt.lsn;
  }

  // Replay every committed unit past the checkpoint, then cut the log at
  // its committed end so a writer can resume cleanly.
  Result<LogEnd> end = walk_log(
      device, names.value(), 0, Vanished::kFail,
      [&](std::vector<Record>& unit) -> Result<Walk> {
        bool replayed = false;
        for (const Record& r : unit) {
          if (r.lsn <= info.checkpoint_lsn) continue;  // already in snapshot
          Status applied = Status::ok();
          if (is_dml(r.type)) {
            applied = apply_dml(db, r);
            ++info.records_replayed;
            replayed = true;
          } else if (is_ddl(r.type)) {
            applied = apply_ddl(db, r, &info.ddl_replayed);
          } else if (r.type == RecordType::kEpoch) {
            info.last_epoch = std::max(info.last_epoch, r.epoch);
          }
          if (!applied.is_ok()) return applied.error();
        }
        if (replayed) ++info.transactions_replayed;
        return Walk::kContinue;
      });
  if (!end.ok()) return end.error();
  Status cut = cut_log(device, end.value());
  if (!cut.is_ok()) return cut.error();
  info.last_lsn = std::max(ckpt.lsn, end.value().last_lsn);
  info.segments_scanned = end.value().segments_scanned;
  info.records_discarded = end.value().records_discarded;
  info.bytes_truncated = end.value().bytes_past_end;
  if (obs::enabled()) {
    obs::observe_latency(wal_obs().recovery_duration, recovery_latency);
    wal_obs().records_replayed.inc(info.records_replayed);
    wal_obs().bytes_truncated.inc(info.bytes_truncated);
  }
  return info;
}

// --- WalManager -------------------------------------------------------------

WalManager::WalManager(LogDevice& device, WalOptions options)
    : device_(device), options_(options) {}

Status WalManager::open() {
  std::lock_guard<std::mutex> guard(mutex_);
  Result<std::vector<std::string>> names = device_.list();
  if (!names.ok()) return names.error();
  Result<LogEnd> walked =
      walk_log(device_, names.value(), 0, Vanished::kFail, visit_nothing);
  if (!walked.ok()) return walked.error();
  const LogEnd& end = walked.value();
  Status cut = cut_log(device_, end);
  if (!cut.is_ok()) return cut;

  next_lsn_ = std::max(newest_checkpoint_lsn(names.value()), end.last_lsn) + 1;
  if (!end.tail.empty() && end.tail_bytes < options_.segment_bytes) {
    segment_ = end.tail;
    segment_size_ = end.tail_bytes;
  } else {
    segment_.clear();
    segment_size_ = 0;
  }
  unsynced_commits_ = 0;
  unsynced_bytes_ = 0;
  // Everything the device holds now is what a crash would leave: durable.
  appended_.store(next_lsn_ - 1, std::memory_order_release);
  durable_.store(next_lsn_ - 1, std::memory_order_release);
  std::lock_guard<std::mutex> slot(sync_mutex_);
  failure_ = Status::ok();
  failed_.store(false, std::memory_order_release);
  return Status::ok();
}

void WalManager::attach(Database& db) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    db_ = &db;
  }
  db.set_commit_observer(this);
  db.set_durability_gate(this);
}

void WalManager::detach() {
  Database* db;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    db = db_;
    db_ = nullptr;
  }
  if (db) {
    std::lock_guard<std::recursive_mutex> db_guard(db->mutex());
    if (db->commit_observer() == this) db->set_commit_observer(nullptr);
    if (db->durability_gate() == this) db->set_durability_gate(nullptr);
  }
  // Waiters register under the database mutex, so none can start now; the
  // ones registered finish within one sync.
  while (waiters_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
}

Status WalManager::rotate_locked(Lsn first_lsn) {
  if (!segment_.empty()) {
    // Leave no unsynced tail behind in a segment we will never touch again.
    Status synced = sync_locked();
    if (!synced.is_ok()) return synced;
  }
  std::string header = wal_segment_header(first_lsn);
  std::string name = wal_segment_name(first_lsn);
  Status appended = device_.append(name, header);
  if (!appended.is_ok()) return appended;
  segment_ = name;
  segment_size_ = header.size();
  ++stats_.rotations;
  return Status::ok();
}

Status WalManager::append_frames_locked(const std::string& frames,
                                        Lsn first_lsn) {
  if (segment_.empty() || segment_size_ >= options_.segment_bytes) {
    Status rotated = rotate_locked(first_lsn);
    if (!rotated.is_ok()) return rotated;
  }
  Status appended = device_.append(segment_, frames);
  if (!appended.is_ok()) return appended;
  segment_size_ += frames.size();
  unsynced_bytes_ += frames.size();
  stats_.bytes_logged += frames.size();
  return Status::ok();
}

Status WalManager::maybe_sync_locked(bool force) {
  bool due = force;
  if (!due && options_.group_commit_txns > 1) {
    due = unsynced_commits_ >= options_.group_commit_txns ||
          (options_.group_commit_bytes > 0 &&
           unsynced_bytes_ >= options_.group_commit_bytes);
  }
  return due ? sync_locked() : Status::ok();
}

Status WalManager::run_sync(const std::string& segment, Lsn target,
                            std::size_t batch) {
  obs::Stopwatch fsync_latency;
  Status synced = device_.sync(segment);
  {
    std::lock_guard<std::mutex> slot(sync_mutex_);
    syncing_ = false;
    if (synced.is_ok()) {
      if (target > durable_.load(std::memory_order_relaxed)) {
        durable_.store(target, std::memory_order_release);
      }
      syncs_.fetch_add(1, std::memory_order_relaxed);
    } else if (!failed_.load(std::memory_order_relaxed)) {
      // The device may hold some, all or none of the unsynced group. No
      // later sync may make any of it durable behind the rollback.
      failure_ = Status(ErrorCode::kUnavailable,
                        "wal sync failed, log closed until reopened: " +
                            synced.to_string());
      failed_.store(true, std::memory_order_release);
    }
  }
  sync_cv_.notify_all();
  if (synced.is_ok() && obs::enabled()) {
    obs::observe_latency(wal_obs().fsync_latency, fsync_latency);
    wal_obs().group_commit_batch.observe(static_cast<double>(batch));
  }
  return synced;
}

Status WalManager::sync_locked() {
  std::unique_lock<std::mutex> slot(sync_mutex_);
  sync_cv_.wait(slot, [&] { return !syncing_; });
  if (failed_.load(std::memory_order_relaxed)) return failure_;
  const Lsn target = appended_.load(std::memory_order_relaxed);
  if (target <= durable_.load(std::memory_order_relaxed)) return Status::ok();
  const std::size_t batch = unsynced_commits_;
  unsynced_commits_ = 0;
  unsynced_bytes_ = 0;
  syncing_ = true;
  slot.unlock();
  Status synced = run_sync(segment_, target, batch);
  return synced.is_ok() ? synced : failure();
}

Status WalManager::sync_through(Lsn lsn) {
  while (true) {
    if (durable_.load(std::memory_order_acquire) >= lsn) return Status::ok();
    std::unique_lock<std::mutex> wal(mutex_);
    std::unique_lock<std::mutex> slot(sync_mutex_);
    if (durable_.load(std::memory_order_relaxed) >= lsn) return Status::ok();
    if (failed_.load(std::memory_order_relaxed)) return failure_;
    if (syncing_) {
      // Follow: the sync in flight may cover `lsn`; if not, lead the next.
      wal.unlock();
      sync_cv_.wait(slot, [&] { return !syncing_; });
      continue;
    }
    // Lead: one sync for everything appended so far, whoever appended it.
    const Lsn target = appended_.load(std::memory_order_relaxed);
    const std::string segment = segment_;
    const std::size_t batch = unsynced_commits_;
    unsynced_commits_ = 0;
    unsynced_bytes_ = 0;
    syncing_ = true;
    slot.unlock();
    wal.unlock();
    run_sync(segment, target, batch);
  }
}

std::uint64_t WalManager::unsynced_lsn() const {
  if (options_.group_commit_txns != 1) return 0;  // acknowledged before sync
  const Lsn appended = appended_.load(std::memory_order_acquire);
  return appended > durable_.load(std::memory_order_acquire) ? appended : 0;
}

std::uint64_t WalManager::begin_wait() {
  const Lsn lsn = unsynced_lsn();
  if (lsn != 0) waiters_.fetch_add(1, std::memory_order_relaxed);
  return lsn;
}

Status WalManager::await_durable(std::uint64_t lsn) {
  Status durable = sync_through(lsn);
  waiters_.fetch_sub(1, std::memory_order_release);
  return durable;
}

std::uint64_t WalManager::durable_lsn() const {
  return durable_.load(std::memory_order_acquire);
}

bool WalManager::failed() const {
  return failed_.load(std::memory_order_acquire);
}

Status WalManager::failure() const {
  std::lock_guard<std::mutex> slot(sync_mutex_);
  return failure_;
}

Status WalManager::on_commit(Database& db,
                             const std::vector<UndoRecord>& journal) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (failed()) return failure();
  const Lsn first_lsn = next_lsn_;
  std::string frames;
  std::uint32_t dml = 0;
  for (const UndoRecord& undo : journal) {
    Table* table = db.table(undo.table);
    if (!table) continue;  // table dropped mid-txn; the DDL record covers it
    Record record;
    record.table = undo.table;
    record.row_id = undo.row_id;
    if (undo.kind == UndoRecord::Kind::kDelete) {
      record.type = RecordType::kDelete;
    } else {
      // Redo is the row's post-image, read from the still-in-place mutation.
      std::optional<Row> row = table->get(undo.row_id);
      if (!row) continue;  // inserted/updated then deleted in the same txn
      record.type = undo.kind == UndoRecord::Kind::kInsert
                        ? RecordType::kInsert
                        : RecordType::kUpdate;
      record.row = std::move(*row);
    }
    record.lsn = next_lsn_++;
    frames += encode_record(record);
    ++dml;
  }
  if (dml == 0) return Status::ok();  // nothing survived the journal

  Record commit;
  commit.type = RecordType::kCommit;
  commit.txn_records = dml;
  commit.lsn = next_lsn_++;
  frames += encode_record(commit);

  Status appended = append_frames_locked(frames, first_lsn);
  if (!appended.is_ok()) {
    next_lsn_ = first_lsn;  // nothing acknowledged; keep LSNs dense
    return appended;
  }
  appended_.store(commit.lsn, std::memory_order_release);
  ++stats_.commits_logged;
  stats_.records_logged += dml;
  ++unsynced_commits_;
  // Full durability syncs after the database mutex is released: the
  // committer waits through DurabilityGate, sharing a sync with others.
  if (options_.group_commit_txns == 1) return Status::ok();
  return maybe_sync_locked(false);
}

Status WalManager::on_create_table(const Table& table) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (failed()) return failure();
  Record record;
  record.type = RecordType::kCreateTable;
  record.table = table.name();
  record.schema_json = schema_to_json(table.schema()).dump();
  record.lsn = next_lsn_++;
  Status appended = append_frames_locked(encode_record(record), record.lsn);
  if (!appended.is_ok()) {
    --next_lsn_;
    return appended;
  }
  appended_.store(record.lsn, std::memory_order_release);
  ++stats_.ddl_logged;
  return maybe_sync_locked(options_.group_commit_txns == 1);
}

Status WalManager::on_drop_table(const std::string& name) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (failed()) return failure();
  Record record;
  record.type = RecordType::kDropTable;
  record.table = name;
  record.lsn = next_lsn_++;
  Status appended = append_frames_locked(encode_record(record), record.lsn);
  if (!appended.is_ok()) {
    --next_lsn_;
    return appended;
  }
  appended_.store(record.lsn, std::memory_order_release);
  ++stats_.ddl_logged;
  return maybe_sync_locked(options_.group_commit_txns == 1);
}

Status WalManager::on_create_index(const std::string& table,
                                   const std::string& spec) {
  std::lock_guard<std::mutex> guard(mutex_);
  if (failed()) return failure();
  Record record;
  record.type = RecordType::kCreateIndex;
  record.table = table;
  record.column = spec;
  record.lsn = next_lsn_++;
  Status appended = append_frames_locked(encode_record(record), record.lsn);
  if (!appended.is_ok()) {
    --next_lsn_;
    return appended;
  }
  appended_.store(record.lsn, std::memory_order_release);
  ++stats_.ddl_logged;
  return maybe_sync_locked(options_.group_commit_txns == 1);
}

Status WalManager::flush() {
  return sync_through(appended_.load(std::memory_order_acquire));
}

void WalManager::set_snapshot_provider(SnapshotProvider provider) {
  std::lock_guard<std::mutex> guard(mutex_);
  snapshot_provider_ = std::move(provider);
}

void WalManager::set_post_checkpoint_hook(CheckpointHook hook) {
  std::lock_guard<std::mutex> guard(mutex_);
  post_checkpoint_hook_ = std::move(hook);
}

Result<Lsn> WalManager::checkpoint(Database& db) {
  // Order matters: the database lock first (as every commit path does), then
  // the wal lock — checkpointing between transactions, never inside one.
  std::lock_guard<std::recursive_mutex> db_guard(db.mutex());
  std::lock_guard<std::mutex> guard(mutex_);
  {
    // No segment may vanish under a sync in flight, and a closed log
    // writes nothing more.
    std::unique_lock<std::mutex> slot(sync_mutex_);
    sync_cv_.wait(slot, [&] { return !syncing_; });
    if (failed_.load(std::memory_order_relaxed)) return failure_.error();
  }

  const Lsn ckpt_lsn = next_lsn_ - 1;
  std::string out = encode_checkpoint(
      ckpt_lsn, snapshot_provider_ ? snapshot_provider_(db) : dump_database(db));

  const std::string name = checkpoint_segment_name(ckpt_lsn);
  device_.remove(name);  // re-checkpoint at the same LSN overwrites
  Status written = device_.append(name, out);
  if (written.is_ok()) written = device_.sync(name);
  if (!written.is_ok()) {
    device_.remove(name);  // best effort; old log is still intact
    return written.error();
  }

  // The snapshot covers everything logged: drop all wal segments and any
  // older checkpoints. Recovery cost is now bounded by what commits next.
  Result<std::vector<std::string>> names = device_.list();
  if (names.ok()) {
    for (const std::string& segment : names.value()) {
      if (segment == name) continue;
      if (segment_lsn(segment, kWalPrefix) ||
          segment_lsn(segment, kCkptPrefix)) {
        device_.remove(segment);
      }
    }
  }
  segment_.clear();
  segment_size_ = 0;
  unsynced_commits_ = 0;
  unsynced_bytes_ = 0;
  {
    // The checkpoint holds every commit logged so far.
    std::lock_guard<std::mutex> slot(sync_mutex_);
    durable_.store(ckpt_lsn, std::memory_order_release);
  }
  sync_cv_.notify_all();
  ++stats_.checkpoints;
  if (post_checkpoint_hook_) post_checkpoint_hook_(ckpt_lsn);
  return ckpt_lsn;
}

Result<Lsn> WalManager::log_epoch(std::uint64_t epoch) {
  // Under the database mutex like every commit, so a committer's own last
  // LSN is the highest appended when it reads it (DurabilityGate).
  Database* db = nullptr;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    db = db_;
  }
  std::unique_lock<std::recursive_mutex> db_guard;
  if (db) db_guard = std::unique_lock<std::recursive_mutex>(db->mutex());
  std::lock_guard<std::mutex> guard(mutex_);
  if (failed()) return failure().error();
  Record record;
  record.type = RecordType::kEpoch;
  record.epoch = epoch;
  record.lsn = next_lsn_++;
  Status appended = append_frames_locked(encode_record(record), record.lsn);
  if (!appended.is_ok()) {
    --next_lsn_;
    return appended.error();
  }
  appended_.store(record.lsn, std::memory_order_release);
  ++stats_.epochs_logged;
  Status synced = maybe_sync_locked(true);
  if (!synced.is_ok()) return synced.error();
  return record.lsn;
}

Lsn WalManager::next_lsn() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return next_lsn_;
}

WalStats WalManager::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  WalStats out = stats_;
  out.syncs = syncs_.load(std::memory_order_relaxed);
  return out;
}

// --- WalCursor --------------------------------------------------------------

WalCursor::WalCursor(LogDevice& device, Lsn from)
    : device_(device), position_(from == 0 ? 1 : from) {}

Result<CursorBatch> WalCursor::next(std::size_t max_records, Lsn up_to) {
  Result<std::vector<std::string>> names = device_.list();
  if (!names.ok()) return names.error();

  // If a checkpoint has swallowed the records we still owe the reader, the
  // tail is gone: tailing cannot continue, only a fresh bootstrap can.
  if (newest_checkpoint_lsn(names.value()) >= position_) {
    return Error(ErrorCode::kNotFound,
                 "wal truncated by checkpoint past cursor; re-bootstrap");
  }

  // Read-only: an un-synced or torn tail simply reads as the end of the log.
  CursorBatch batch;
  Result<LogEnd> end = walk_log(
      device_, names.value(), position_, Vanished::kEndOfLog,
      [&](std::vector<Record>& unit) -> Result<Walk> {
        if (unit.back().lsn < position_) return Walk::kContinue;  // delivered
        if (unit.back().lsn > up_to) return Walk::kStop;
        for (Record& r : unit) {
          batch.frames += encode_record(r);
          if (batch.first_lsn == 0) batch.first_lsn = r.lsn;
          batch.last_lsn = r.lsn;
          batch.records.push_back(std::move(r));
        }
        ++batch.transactions;
        return batch.records.size() >= max_records ? Walk::kStop
                                                   : Walk::kContinue;
      });
  if (!end.ok()) return end.error();
  if (!batch.empty()) position_ = batch.last_lsn + 1;
  return batch;
}

}  // namespace osprey::db::wal
