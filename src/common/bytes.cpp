#include "common/bytes.h"

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

}  // namespace sword
