#include "common/bytes.h"

#include <algorithm>
#include <bit>

namespace sword {

void ByteWriter::PutU16(uint16_t v) {
  uint8_t b[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
  Push(b, 2);
}

void ByteWriter::PutU32(uint32_t v) {
  uint8_t b[4];
  for (int i = 0; i < 4; i++) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Push(b, 4);
}

void ByteWriter::PutU64(uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; i++) b[i] = static_cast<uint8_t>(v >> (8 * i));
  Push(b, 8);
}

void ByteWriter::PutVarU64(uint64_t v) {
  uint8_t b[10];
  Push(b, static_cast<size_t>(EncodeVarU64(v, b) - b));
}

void ByteWriter::PutVarI64(int64_t v) {
  uint8_t b[10];
  Push(b, static_cast<size_t>(EncodeVarI64(v, b) - b));
}

void ByteWriter::PutBytes(const uint8_t* data, size_t n) {
  PutVarU64(n);
  Push(data, n);
}

void ByteWriter::PutString(const std::string& s) {
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

Status ByteReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return Status::Corrupt("truncated u16");
  *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return Status::Ok();
}

Status ByteReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::Corrupt("truncated u32");
  uint32_t r = 0;
  for (int i = 0; i < 4; i++) r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *v = r;
  return Status::Ok();
}

Status ByteReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::Corrupt("truncated u64");
  uint64_t r = 0;
  for (int i = 0; i < 8; i++) r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *v = r;
  return Status::Ok();
}

Status ByteReader::GetBytes(Bytes* out) {
  uint64_t n;
  SWORD_RETURN_IF_ERROR(GetVarU64(&n));
  if (remaining() < n) return Status::Corrupt("truncated byte string");
  out->assign(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::GetString(std::string* out) {
  uint64_t n;
  SWORD_RETURN_IF_ERROR(GetVarU64(&n));
  if (remaining() < n) return Status::Corrupt("truncated string");
  out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return Status::Ok();
}

Status ByteReader::Skip(size_t n) {
  if (remaining() < n) return Status::Corrupt("skip past end");
  pos_ += n;
  return Status::Ok();
}

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr uint64_t kWordP1 = 0x9e3779b185ebca87ULL;
constexpr uint64_t kWordP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr uint64_t kWordP3 = 0x165667b19e3779f9ULL;
constexpr uint64_t kWordP4 = 0x85ebca77c2b2ae63ULL;
constexpr uint64_t kWordP5 = 0x27d4eb2f165667c5ULL;

uint64_t Rotl(uint64_t v, int r) { return (v << r) | (v >> (64 - r)); }

// Little-endian word loads: one move each on a little-endian host.
uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}

uint64_t Round(uint64_t lane, uint64_t word) {
  return Rotl(lane + word * kWordP2, 31) * kWordP1;
}

/// Runs whole 32-byte stripes of [p, p + n) through the four lanes; returns
/// the bytes consumed (n rounded down to a stripe).
size_t Stripes(uint64_t lanes[4], const uint8_t* p, size_t n) {
  uint64_t l0 = lanes[0], l1 = lanes[1], l2 = lanes[2], l3 = lanes[3];
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    l0 = Round(l0, Load64(p + i));
    l1 = Round(l1, Load64(p + i + 8));
    l2 = Round(l2, Load64(p + i + 16));
    l3 = Round(l3, Load64(p + i + 24));
  }
  lanes[0] = l0, lanes[1] = l1, lanes[2] = l2, lanes[3] = l3;
  return i;
}

}  // namespace

WordHasher::WordHasher() : lanes_{kWordP1 + kWordP2, kWordP2, 0, 0 - kWordP1} {}

void WordHasher::Update(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_ += n;
  if (stripe_bytes_ > 0) {
    const size_t take = std::min(n, sizeof(stripe_) - stripe_bytes_);
    std::memcpy(stripe_ + stripe_bytes_, p, take);
    stripe_bytes_ += take;
    p += take;
    n -= take;
    if (stripe_bytes_ < sizeof(stripe_)) return;
    Stripes(lanes_, stripe_, sizeof(stripe_));
    stripe_bytes_ = 0;
  }
  const size_t done = Stripes(lanes_, p, n);
  stripe_bytes_ = n - done;
  if (stripe_bytes_ > 0) std::memcpy(stripe_, p + done, stripe_bytes_);
}

uint64_t WordHasher::Digest() const {
  uint64_t h;
  if (total_ >= 32) {
    h = Rotl(lanes_[0], 1) + Rotl(lanes_[1], 7) + Rotl(lanes_[2], 12) +
        Rotl(lanes_[3], 18);
    for (const uint64_t lane : lanes_) h = (h ^ Round(0, lane)) * kWordP1 + kWordP4;
  } else {
    h = kWordP5;  // the seed (0) plus P5
  }
  h += total_;
  const uint8_t* p = stripe_;
  size_t n = stripe_bytes_;
  for (; n >= 8; p += 8, n -= 8) h = Rotl(h ^ Round(0, Load64(p)), 27) * kWordP1 + kWordP4;
  if (n >= 4) {
    h = Rotl(h ^ (Load32(p) * kWordP1), 23) * kWordP2 + kWordP3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) h = Rotl(h ^ (*p * kWordP5), 11) * kWordP1;
  h ^= h >> 33;
  h *= kWordP2;
  h ^= h >> 29;
  h *= kWordP3;
  h ^= h >> 32;
  return h;
}

uint64_t WordHash64(const void* data, size_t n) {
  WordHasher h;
  h.Update(data, n);
  return h.Digest();
}

}  // namespace sword
