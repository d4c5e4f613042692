// Byte-buffer reader/writer with fixed-width little-endian and LEB128 varint
// codecs. The trace log format (src/trace) and the compressed block framing
// (src/compress) are built on these primitives.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace sword {

using Bytes = std::vector<uint8_t>;

/// Writes `v` as unsigned LEB128 at `out` (at most 10 bytes) and returns the
/// end of what it wrote - the one varint encoder; ByteWriter wraps it.
inline uint8_t* EncodeVarU64(uint64_t v, uint8_t* out) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

/// Writes `v` zigzag-mapped and then as EncodeVarU64 does.
inline uint8_t* EncodeVarI64(int64_t v, uint8_t* out) {
  // Zigzag encoding keeps small negative values short.
  return EncodeVarU64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63),
                      out);
}

/// Appends fixed-width and varint-encoded values to a growable byte buffer.
/// All fixed-width encodings are little-endian regardless of host order.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(Bytes* out) : external_(out) {}

  // push_back, not Push: GCC 12 reports a false -Wstringop-overflow for a
  // one-byte range insert into an empty vector.
  void PutU8(uint8_t v) { buffer().push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Unsigned LEB128.
  void PutVarU64(uint64_t v);
  /// Signed value via zigzag + LEB128.
  void PutVarI64(int64_t v);
  /// Length-prefixed (varint) byte string.
  void PutBytes(const uint8_t* data, size_t n);
  void PutString(const std::string& s);
  /// Raw bytes, no length prefix.
  void PutRaw(const void* data, size_t n) { Push(data, n); }

  const Bytes& buffer() const { return external_ ? *external_ : owned_; }
  Bytes& buffer() { return external_ ? *external_ : owned_; }
  size_t size() const { return buffer().size(); }
  void Clear() { buffer().clear(); }

 private:
  void Push(const void* data, size_t n) {
    Bytes& b = buffer();
    const uint8_t* p = static_cast<const uint8_t*>(data);
    b.insert(b.end(), p, p + n);
  }

  Bytes owned_;
  Bytes* external_ = nullptr;
};

/// Reads the encodings produced by ByteWriter. All getters are bounds-checked
/// and return kCorruptData / kOutOfRange on truncated input.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit ByteReader(const Bytes& b) : data_(b.data()), size_(b.size()) {}

  // The getters decode loops call per field are inline, so the OK path of
  // their Status folds away in the loop.
  Status GetU8(uint8_t* v) {
    if (remaining() < 1) return Status::Corrupt("truncated u8");
    *v = data_[pos_++];
    return Status::Ok();
  }
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetVarU64(uint64_t* v) {
    uint64_t r = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_) return Status::Corrupt("truncated varint");
      if (shift >= 64) return Status::Corrupt("varint overflow");
      const uint8_t byte = data_[pos_++];
      r |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) break;
      shift += 7;
    }
    *v = r;
    return Status::Ok();
  }
  Status GetVarI64(int64_t* v) {
    uint64_t z;
    SWORD_RETURN_IF_ERROR(GetVarU64(&z));
    *v = static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
    return Status::Ok();
  }
  Status GetBytes(Bytes* out);
  Status GetString(std::string* out);
  Status Skip(size_t n);

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }
  const uint8_t* cursor() const { return data_ + pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// FNV-1a 64-bit hash: the checksum of v1, v2 and legacy "SW3F" v3 frames,
/// of the gap and crash markers and of the record log, and the key of report
/// deduplication. It hashes a byte at a time through a serial multiply chain.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 0xcbf29ce484222325ULL);

/// The word-wide 64-bit hash of "SW3H" frame payloads (docs/FORMAT.md spells
/// it out): XXH64 with seed 0. Four independent lanes each take one 8-byte
/// little-endian word of every 32-byte stripe through the round
/// `lane = rotl(lane + w * P2, 31) * P1`; the lanes merge, the tail folds in
/// by words, half-words and bytes, and an avalanche mixes the result. Fed in
/// chunks of any size it returns the one-shot digest, so a reader can
/// verify a payload a block at a time.
class WordHasher {
 public:
  WordHasher();
  void Update(const void* data, size_t n);
  uint64_t Digest() const;

 private:
  uint64_t lanes_[4];
  uint64_t total_ = 0;         // bytes fed so far
  uint8_t stripe_[32] = {};    // a partial stripe carried between Updates
  size_t stripe_bytes_ = 0;
};

/// One-shot WordHasher.
uint64_t WordHash64(const void* data, size_t n);

}  // namespace sword
