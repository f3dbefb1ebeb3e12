#ifndef LIMA_PERSIST_FORMAT_H_
#define LIMA_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace lima {
namespace persist {

/// On-disk layout of a lineage store segment (docs/PERSISTENCE.md):
///
///   header (16 bytes):  "LIMAPST1" | u32 version | u32 flags (always
///                       kFlagCompressed; readers refuse any other word)
///   record*:            u8 type | u32 payload_size | payload | u32 crc
///                       (crc covers type + size + payload)
///   footer (32 bytes):  "LIMAFTR1" | u64 record_count | u64 records_end
///                       | u32 body_crc | u32 footer_crc
///
/// All fixed-width integers are little-endian. `records_end` is the file
/// offset one past the last record (== file size - 32); `body_crc` covers
/// bytes [0, records_end), `footer_crc` covers the first 28 footer bytes.
/// A segment is readable only if every checksum and structural bound
/// verifies — truncation, bit rot, and spliced regions all fail closed.
inline constexpr char kSegmentMagic[8] = {'L', 'I', 'M', 'A', 'P', 'S', 'T', '1'};
inline constexpr char kFooterMagic[8] = {'L', 'I', 'M', 'A', 'F', 'T', 'R', '1'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint32_t kFlagCompressed = 1u << 0;
inline constexpr size_t kHeaderSize = 16;
inline constexpr size_t kFooterSize = 32;
inline constexpr size_t kRecordOverhead = 9;  ///< type + size + crc

/// Record types. Dictionary deltas apply to all later records in the
/// segment; patches are indexed by order of appearance.
enum RecordType : uint8_t {
  kRecOpcodeDict = 1,
  kRecDataDict = 2,
  kRecPatch = 3,
  kRecLineage = 4,
  kRecCacheEntry = 5,
  kRecGhosts = 6,
  kRecTenant = 7,
  kRecMeta = 8,
};

/// CRC-32 (IEEE 802.3 polynomial, reflected). Detects all single-bit
/// errors and all burst errors up to 32 bits.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

// --- little-endian fixed-width encoding -----------------------------------

inline void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

inline void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
}

inline uint32_t GetFixed32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

inline uint64_t GetFixed64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

// --- varint / zigzag ------------------------------------------------------

inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutSignedVarint(std::string* out, int64_t v) {
  PutVarint(out, ZigZagEncode(v));
}

inline void PutLengthPrefixed(std::string* out, std::string_view s) {
  PutVarint(out, s.size());
  out->append(s.data(), s.size());
}

inline void PutDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(out, bits);
}

/// Bounds-checked sequential decoder over a byte span. Every accessor
/// degrades to a zero value and latches `ok() == false` on overrun or
/// malformed input; callers check `ok()` once per logical unit instead of
/// after every read, so a corrupted payload can never read out of bounds.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(std::string_view s) : ByteReader(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return p_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t Byte() {
    if (p_ >= end_) return Fail();
    return static_cast<uint8_t>(*p_++);
  }

  uint64_t Varint() {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p_ >= end_) return Fail();
      uint8_t b = static_cast<uint8_t>(*p_++);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    return Fail();  // > 10 bytes: not a valid varint
  }

  int64_t SignedVarint() { return ZigZagDecode(Varint()); }

  std::string_view String() {
    uint64_t n = Varint();
    if (!ok_ || n > remaining()) {
      Fail();
      return {};
    }
    std::string_view s(p_, static_cast<size_t>(n));
    p_ += n;
    return s;
  }

  double Double() {
    if (remaining() < 8) {
      Fail();
      return 0;
    }
    uint64_t bits = GetFixed64(p_);
    p_ += 8;
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  uint64_t Fixed64() {
    if (remaining() < 8) return Fail();
    uint64_t v = GetFixed64(p_);
    p_ += 8;
    return v;
  }

  /// Current offset relative to the start of the span.
  size_t offset(const char* base) const { return static_cast<size_t>(p_ - base); }

 private:
  uint64_t Fail() {
    ok_ = false;
    p_ = end_;
    return 0;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

}  // namespace persist
}  // namespace lima

#endif  // LIMA_PERSIST_FORMAT_H_
