// The little-endian binary codec shared by the WAL (db/wal.cpp) and the
// LSM sorted runs (storage/sstable.cpp). Internal to those two writers: the
// byte layout here is part of both on-disk formats, so a row image encodes
// the same way in a log record and in a run.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "osprey/db/value.h"

namespace osprey::db::codec {

inline void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// u32 length, then the bytes.
inline void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Bounded little-endian reader over buf[pos, end); any overrun marks the
/// cursor failed and later reads return zeros.
struct Reader {
  const std::string& buf;
  std::size_t pos;
  std::size_t end;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || end - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v |= static_cast<std::uint16_t>(static_cast<unsigned char>(buf[pos++])) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos++])) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos++])) << (8 * i);
    return v;
  }
  std::string str() {
    std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

// --- cell codec (tag + payload) --------------------------------------------

enum : std::uint8_t { kCellNull = 0, kCellInt = 1, kCellReal = 2, kCellText = 3 };

inline void put_cell(std::string& out, const Value& v) {
  if (v.is_null()) {
    out.push_back(static_cast<char>(kCellNull));
  } else if (v.is_int()) {
    out.push_back(static_cast<char>(kCellInt));
    put_u64(out, static_cast<std::uint64_t>(v.as_int()));
  } else if (v.is_real()) {
    out.push_back(static_cast<char>(kCellReal));
    double d = v.as_real();
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    put_u64(out, bits);
  } else {
    out.push_back(static_cast<char>(kCellText));
    put_str(out, v.as_text());
  }
}

inline Value get_cell(Reader& r) {
  if (!r.need(1)) return Value(nullptr);
  auto tag = static_cast<std::uint8_t>(r.buf[r.pos++]);
  switch (tag) {
    case kCellNull:
      return Value(nullptr);
    case kCellInt:
      return Value(static_cast<std::int64_t>(r.u64()));
    case kCellReal: {
      std::uint64_t bits = r.u64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kCellText:
      return Value(r.str());
    default:
      r.ok = false;
      return Value(nullptr);
  }
}

/// 16 lowercase hex digits, zero-padded: sortable file-name component.
inline std::string hex_u64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return s;
}

}  // namespace osprey::db::codec
