#include "osprey/storage/sstable.h"

#include <algorithm>

#include "osprey/db/codec.h"
#include "osprey/db/wal.h"  // crc32 — runs share the WAL's frame checksum

namespace osprey::storage {

namespace {

constexpr char kRunMagic[8] = {'O', 'S', 'P', 'S', 'S', 'T', 'v', '1'};

// Runs encode with the WAL's codec, so a row image is byte-identical in a
// log record and in a run.
using db::codec::get_cell;
using db::codec::hex_u64;
using db::codec::put_cell;
using db::codec::put_u16;
using db::codec::put_u32;
using db::codec::put_u64;
using db::codec::Reader;

// Hash family for the bloom filter: double hashing over a splitmix64-style
// mix, so k probes cost two multiplies.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// --- bloom filter ------------------------------------------------------------

BloomFilter::BloomFilter(std::size_t expected_keys, std::uint32_t bits_per_key) {
  if (expected_keys == 0 || bits_per_key == 0) return;
  std::size_t bits = expected_keys * bits_per_key;
  words_.assign((bits + 63) / 64, 0);
  // k ~= bits_per_key * ln 2, clamped to a sane probe count.
  k_ = std::clamp<std::uint32_t>(
      static_cast<std::uint32_t>(bits_per_key * 69 / 100), 1, 8);
}

void BloomFilter::add(db::RowId id) {
  if (words_.empty()) return;
  std::uint64_t h1 = mix64(id);
  std::uint64_t h2 = mix64(h1) | 1;
  const std::uint64_t nbits = words_.size() * 64;
  for (std::uint32_t i = 0; i < k_; ++i) {
    std::uint64_t bit = (h1 + i * h2) % nbits;
    words_[bit / 64] |= 1ull << (bit % 64);
  }
}

bool BloomFilter::may_contain(db::RowId id) const {
  if (words_.empty()) return true;
  std::uint64_t h1 = mix64(id);
  std::uint64_t h2 = mix64(h1) | 1;
  const std::uint64_t nbits = words_.size() * 64;
  for (std::uint32_t i = 0; i < k_; ++i) {
    std::uint64_t bit = (h1 + i * h2) % nbits;
    if (!(words_[bit / 64] & (1ull << (bit % 64)))) return false;
  }
  return true;
}

std::string BloomFilter::to_hex() const {
  std::string out;
  out.reserve(words_.size() * 16);
  for (std::uint64_t w : words_) out += hex_u64(w);
  return out;
}

Result<BloomFilter> BloomFilter::from_hex(const std::string& hex,
                                          std::uint32_t k) {
  if (hex.size() % 16 != 0) {
    return Error(ErrorCode::kInvalidArgument, "bloom hex length");
  }
  BloomFilter f;
  f.words_.reserve(hex.size() / 16);
  for (std::size_t i = 0; i < hex.size(); i += 16) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < 16; ++j) {
      char c = hex[i + j];
      w <<= 4;
      if (c >= '0' && c <= '9') w |= static_cast<std::uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') w |= static_cast<std::uint64_t>(c - 'a' + 10);
      else return Error(ErrorCode::kInvalidArgument, "bloom hex digit");
    }
    f.words_.push_back(w);
  }
  f.k_ = f.words_.empty() ? 0 : std::clamp<std::uint32_t>(k, 1, 8);
  return f;
}

// --- run encode / decode -----------------------------------------------------

std::string run_segment_name(const std::string& table, std::uint64_t seq,
                             std::uint32_t level) {
  return "sst-" + table + "-" + hex_u64(seq) + "-L" + std::to_string(level);
}

std::string encode_run(const std::vector<RunEntry>& entries,
                       std::uint64_t block_bytes,
                       std::uint32_t bloom_bits_per_key, RunMeta* meta) {
  std::string out;
  RunWriter writer(block_bytes, [&out](const std::string& bytes) {
    out += bytes;
    return Status::ok();
  });
  for (const RunEntry& e : entries) (void)writer.add(e);
  (void)writer.finish(bloom_bits_per_key, meta);
  return out;
}

RunWriter::RunWriter(std::uint64_t block_bytes, Sink sink)
    : block_bytes_(block_bytes),
      sink_(std::move(sink)),
      pending_(kRunMagic, sizeof(kRunMagic)) {}

Status RunWriter::add(const RunEntry& e) {
  if (count_ == 0) {
    put_u32(payload_, 0);  // entry_count, backpatched by cut()
    blocks_.push_back({e.id, offset_ + pending_.size(), 0});
  }
  put_u64(payload_, e.id);
  put_u16(payload_, static_cast<std::uint16_t>(e.row.size()));
  for (const db::Value& cell : e.row) put_cell(payload_, cell);
  ids_.push_back(e.id);
  ++count_;
  return payload_.size() < block_bytes_ ? Status::ok() : cut();
}

Status RunWriter::cut() {
  if (count_ > 0) {
    for (int b = 0; b < 4; ++b) {
      payload_[static_cast<std::size_t>(b)] =
          static_cast<char>((count_ >> (8 * b)) & 0xff);
    }
    blocks_.back().length = static_cast<std::uint32_t>(8 + payload_.size());
    put_u32(pending_, static_cast<std::uint32_t>(payload_.size()));
    put_u32(pending_, db::wal::crc32(payload_.data(), payload_.size()));
    pending_ += payload_;
    payload_.clear();
    count_ = 0;
  }
  if (pending_.empty()) return Status::ok();
  offset_ += pending_.size();
  Status sunk = sink_(pending_);
  pending_.clear();
  return sunk;
}

Status RunWriter::finish(std::uint32_t bloom_bits_per_key, RunMeta* meta) {
  Status cut_last = cut();
  meta->blocks = std::move(blocks_);
  meta->entries = ids_.size();
  meta->min_id = ids_.empty() ? 0 : ids_.front();
  meta->max_id = ids_.empty() ? 0 : ids_.back();
  meta->bloom = BloomFilter(ids_.size(), bloom_bits_per_key);
  for (db::RowId id : ids_) meta->bloom.add(id);
  meta->bytes = offset_;
  return cut_last;
}

Result<std::vector<RunEntry>> decode_block(const std::string& frame) {
  Reader head{frame, 0, frame.size()};
  std::uint32_t len = head.u32();
  std::uint32_t crc = head.u32();
  if (!head.ok || frame.size() - head.pos < len) {
    return Error(ErrorCode::kInvalidArgument, "sstable block truncated");
  }
  if (db::wal::crc32(frame.data() + head.pos, len) != crc) {
    return Error(ErrorCode::kInvalidArgument, "sstable block crc mismatch");
  }
  Reader r{frame, head.pos, head.pos + len};
  std::uint32_t count = r.u32();
  std::vector<RunEntry> entries;
  entries.reserve(count);
  for (std::uint32_t n = 0; n < count; ++n) {
    RunEntry e;
    e.id = r.u64();
    std::uint16_t cells = r.u16();
    e.row.reserve(cells);
    for (std::uint16_t c = 0; c < cells; ++c) e.row.push_back(get_cell(r));
    if (!r.ok) {
      return Error(ErrorCode::kInvalidArgument, "sstable block malformed");
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

// --- manifest serialization --------------------------------------------------

json::Value run_meta_to_json(const RunMeta& meta) {
  json::Object doc;
  doc["segment"] = json::Value(meta.segment);
  doc["seq"] = json::Value(static_cast<std::int64_t>(meta.seq));
  doc["level"] = json::Value(static_cast<std::int64_t>(meta.level));
  doc["min_id"] = json::Value(static_cast<std::int64_t>(meta.min_id));
  doc["max_id"] = json::Value(static_cast<std::int64_t>(meta.max_id));
  doc["entries"] = json::Value(static_cast<std::int64_t>(meta.entries));
  doc["bytes"] = json::Value(static_cast<std::int64_t>(meta.bytes));
  json::Array blocks;
  for (const BlockIndexEntry& b : meta.blocks) {
    json::Array bj;
    bj.emplace_back(static_cast<std::int64_t>(b.first_id));
    bj.emplace_back(static_cast<std::int64_t>(b.offset));
    bj.emplace_back(static_cast<std::int64_t>(b.length));
    blocks.emplace_back(std::move(bj));
  }
  doc["blocks"] = json::Value(std::move(blocks));
  doc["bloom"] = json::Value(meta.bloom.to_hex());
  doc["bloom_k"] = json::Value(static_cast<std::int64_t>(meta.bloom.hashes()));
  return json::Value(std::move(doc));
}

Result<RunMeta> run_meta_from_json(const json::Value& doc) {
  RunMeta meta;
  meta.segment = doc["segment"].get_string("");
  if (meta.segment.empty() || !doc["seq"].is_number() ||
      !doc["blocks"].is_array()) {
    return Error(ErrorCode::kInvalidArgument, "malformed run metadata");
  }
  meta.seq = static_cast<std::uint64_t>(doc["seq"].as_int());
  meta.level = static_cast<std::uint32_t>(doc["level"].get_int(0));
  meta.min_id = static_cast<db::RowId>(doc["min_id"].get_int(0));
  meta.max_id = static_cast<db::RowId>(doc["max_id"].get_int(0));
  meta.entries = static_cast<std::uint64_t>(doc["entries"].get_int(0));
  meta.bytes = static_cast<std::uint64_t>(doc["bytes"].get_int(0));
  for (const json::Value& bj : doc["blocks"].as_array()) {
    if (!bj.is_array() || bj.size() != 3) {
      return Error(ErrorCode::kInvalidArgument, "malformed run block index");
    }
    BlockIndexEntry b;
    b.first_id = static_cast<db::RowId>(bj[0].as_int());
    b.offset = static_cast<std::uint64_t>(bj[1].as_int());
    b.length = static_cast<std::uint32_t>(bj[2].as_int());
    meta.blocks.push_back(b);
  }
  Result<BloomFilter> bloom = BloomFilter::from_hex(
      doc["bloom"].get_string(""),
      static_cast<std::uint32_t>(doc["bloom_k"].get_int(0)));
  if (!bloom.ok()) return bloom.error();
  meta.bloom = std::move(bloom).take();
  // A manifest-loaded run is by definition manifest-referenced.
  meta.in_manifest = true;
  return meta;
}

}  // namespace osprey::storage
