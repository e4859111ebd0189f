#ifndef CWDB_COMMON_CODING_H_
#define CWDB_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace cwdb {

/// Little-endian fixed-width binary encoding helpers for log records and
/// checkpoint metadata. The host is little-endian; memcpy keeps the code
/// alignment-safe and the explicit helpers document intent at call sites.

inline void PutFixed16(std::string* dst, uint16_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutFixed32(std::string* dst, uint32_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutFixed64(std::string* dst, uint64_t v) {
  dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
inline void PutFixed8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

/// Length-prefixed byte string.
inline void PutLengthPrefixed(std::string* dst, Slice value) {
  PutFixed32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

/// LEB128 varint: 7 value bits per byte, high bit = continuation. Used by
/// the log records, whose ids, offsets and lengths are mostly small, and by
/// the delta-encoded metrics-history records, where successive samples of a
/// counter differ by small amounts and fixed64 would waste 7 bytes each.
inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

/// Zigzag-mapped signed varint (0,-1,1,-2,... -> 0,1,2,3,...), so small
/// negative deltas (a gauge dipping, a counter reset) stay one byte.
inline void PutVarintSigned(std::string* dst, int64_t v) {
  PutVarint64(dst, (static_cast<uint64_t>(v) << 1) ^
                       static_cast<uint64_t>(v >> 63));
}

inline int64_t ZigzagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

inline uint16_t DecodeFixed16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Sequential decoder over a byte buffer. Decoding failures (truncated
/// input) are flagged rather than aborting: log tails can legitimately be
/// torn at the last record.
class Decoder {
 public:
  explicit Decoder(Slice input) : p_(input.data()), end_(p_ + input.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t GetFixed8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(*p_++);
  }
  uint16_t GetFixed16() {
    if (!Require(2)) return 0;
    uint16_t v = DecodeFixed16(p_);
    p_ += 2;
    return v;
  }
  uint32_t GetFixed32() {
    if (!Require(4)) return 0;
    uint32_t v = DecodeFixed32(p_);
    p_ += 4;
    return v;
  }
  uint64_t GetFixed64() {
    if (!Require(8)) return 0;
    uint64_t v = DecodeFixed64(p_);
    p_ += 8;
    return v;
  }
  uint64_t GetVarint64() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!Require(1)) return 0;
      uint8_t byte = static_cast<uint8_t>(*p_++);
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // Only the canonical form PutVarint64 writes: an overlong encoding
        // (a zero final group) or value bits past bit 63 are malformed.
        if ((byte == 0 && shift > 0) || (shift == 63 && byte > 1)) break;
        return v;
      }
    }
    ok_ = false;  // Non-canonical, or a continuation bit past 64 bits.
    return 0;
  }
  int64_t GetVarintSigned() { return ZigzagDecode(GetVarint64()); }
  Slice GetLengthPrefixed() {
    uint32_t n = GetFixed32();
    if (!Require(n)) return Slice();
    Slice s(p_, n);
    p_ += n;
    return s;
  }
  Slice GetBytes(size_t n) {
    if (!Require(n)) return Slice();
    Slice s(p_, n);
    p_ += n;
    return s;
  }

 private:
  bool Require(size_t n) {
    if (!ok_ || static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace cwdb

#endif  // CWDB_COMMON_CODING_H_
