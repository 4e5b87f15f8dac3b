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
  std::string out(kRunMagic, sizeof(kRunMagic));
  meta->blocks.clear();
  meta->entries = entries.size();
  meta->min_id = entries.empty() ? 0 : entries.front().id;
  meta->max_id = entries.empty() ? 0 : entries.back().id;
  meta->bloom = BloomFilter(entries.size(), bloom_bits_per_key);
  for (const RunEntry& e : entries) meta->bloom.add(e.id);

  std::size_t i = 0;
  while (i < entries.size()) {
    std::string payload;
    std::size_t count_pos = payload.size();
    put_u32(payload, 0);  // entry_count backpatched below
    std::uint32_t count = 0;
    const db::RowId first_id = entries[i].id;
    while (i < entries.size() &&
           (count == 0 || payload.size() < block_bytes)) {
      const RunEntry& e = entries[i];
      put_u64(payload, e.id);
      put_u16(payload, static_cast<std::uint16_t>(e.row.size()));
      for (const db::Value& cell : e.row) put_cell(payload, cell);
      ++count;
      ++i;
    }
    payload[count_pos + 0] = static_cast<char>(count & 0xff);
    payload[count_pos + 1] = static_cast<char>((count >> 8) & 0xff);
    payload[count_pos + 2] = static_cast<char>((count >> 16) & 0xff);
    payload[count_pos + 3] = static_cast<char>((count >> 24) & 0xff);

    BlockIndexEntry idx;
    idx.first_id = first_id;
    idx.offset = out.size();
    idx.length = static_cast<std::uint32_t>(8 + payload.size());
    std::string frame;
    put_u32(frame, static_cast<std::uint32_t>(payload.size()));
    put_u32(frame, db::wal::crc32(payload.data(), payload.size()));
    out += frame;
    out += payload;
    meta->blocks.push_back(idx);
  }
  meta->bytes = out.size();
  return out;
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
