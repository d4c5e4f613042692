#include <cstring>
#include <string>

#include "compress/codecs.h"

namespace sword {
namespace {

// LZ77-style codec with a hash-chain match finder, standing in for the
// LZO-class libraries the paper evaluated. It trades encode speed for ratio;
// the default trace codec is lzf, which emits the same token stream; both
// decode through DecodeLzTokens.
//
// Token stream format:
//   literal token:  0x00 | varint(len)        then `len` literal bytes
//   match token:    0x01 | varint(len) varint(dist)
// Matches have len >= kMinMatch and dist in [1, position]. Varints are LEB128.
// Trace event buffers are highly repetitive (same pc/size/flags with striding
// addresses), which this format captures well.
//
// Give-up rule (lzf's, see lzf.cpp): every kGiveUpStride input bytes the
// encoder checks whether the tokens written so far already outweigh the
// input they cover; if so the rest goes out as one literal token, so random
// input costs one stride of chain walking instead of a full pass.
class LzsCompressor final : public Compressor {
 public:
  static constexpr size_t kMinMatch = 4;
  static constexpr size_t kGiveUpStride = 16 << 10;
  static constexpr size_t kMaxChainSteps = 32;
  static constexpr size_t kHashBits = 15;
  static constexpr size_t kHashSize = 1u << kHashBits;
  static constexpr uint32_t kNoPos = 0xffffffffu;

  const char* Name() const override { return "lzs"; }

  Status Compress(const uint8_t* input, size_t n, Bytes* out,
                  CompressScratch* scratch = nullptr) const override {
    ByteWriter w(out);
    if (n == 0) return Status::Ok();

    // Hash chains: reuse the caller's scratch vectors when provided (the
    // flusher workers pass per-worker scratch so steady-state compression
    // allocates nothing), else allocate locally.
    std::vector<uint32_t> local_head, local_prev;
    std::vector<uint32_t>& head = scratch ? scratch->chain_head : local_head;
    std::vector<uint32_t>& prev = scratch ? scratch->chain_prev : local_prev;
    head.assign(kHashSize, kNoPos);
    prev.assign(n, kNoPos);

    const size_t out_start = out->size();
    size_t next_check = kGiveUpStride;
    size_t i = 0;
    size_t literal_start = 0;

    auto flush_literals = [&](size_t end) {
      if (end > literal_start) {
        w.PutU8(0x00);
        w.PutVarU64(end - literal_start);
        w.PutRaw(input + literal_start, end - literal_start);
      }
    };

    while (i + kMinMatch <= n) {
      if (i >= next_check) {
        // Tokens cover input [0, literal_start); pending literals cost at
        // least their length, so more bytes written means the stream grew.
        if (out->size() - out_start > literal_start) break;
        next_check = i + kGiveUpStride;
      }
      const uint32_t h = Hash(input + i);
      // Walk the chain of prior positions with the same hash looking for the
      // longest match.
      size_t best_len = 0;
      size_t best_dist = 0;
      uint32_t cand = head[h];
      size_t steps = 0;
      while (cand != kNoPos && steps < kMaxChainSteps) {
        const size_t dist = i - cand;
        size_t len = 0;
        const size_t max_len = n - i;
        while (len < max_len && input[cand + len] == input[i + len]) len++;
        if (len > best_len) {
          best_len = len;
          best_dist = dist;
        }
        cand = prev[cand];
        steps++;
      }

      if (best_len >= kMinMatch) {
        flush_literals(i);
        w.PutU8(0x01);
        w.PutVarU64(best_len);
        w.PutVarU64(best_dist);
        // Insert the skipped positions into the chains so later matches can
        // reference inside this match.
        const size_t match_end = i + best_len;
        while (i < match_end && i + kMinMatch <= n) {
          const uint32_t hh = Hash(input + i);
          prev[i] = head[hh];
          head[hh] = static_cast<uint32_t>(i);
          i++;
        }
        i = match_end;
        literal_start = i;
      } else {
        prev[i] = head[h];
        head[h] = static_cast<uint32_t>(i);
        i++;
      }
    }
    flush_literals(n);
    return Status::Ok();
  }

  Status Decompress(const uint8_t* input, size_t n, size_t decompressed_size,
                    Bytes* out) const override {
    return DecodeLzTokens(Name(), input, n, decompressed_size, out);
  }

  /// Decodes the token stream into exactly `size` bytes at `base`; returns
  /// null on success, else what is wrong with the stream.
  static const char* DecodeTokens(const uint8_t* ip, size_t n, uint8_t* base,
                                  size_t size) {
    const uint8_t* const iend = ip + n;
    uint8_t* op = base;
    uint8_t* const oend = base + size;
    while (ip < iend) {
      const uint8_t tag = *ip++;
      if (tag != 0x00 && tag != 0x01) return "unknown token tag";
      uint64_t len;
      if (!ReadVarint(&ip, iend, &len)) return "truncated varint";
      if (tag == 0x00) {
        if (len > static_cast<size_t>(iend - ip)) {
          return "truncated literals";
        }
        if (len > static_cast<size_t>(oend - op)) {
          return "literal overruns declared size";
        }
        if (len != 0) std::memcpy(op, ip, len);
        op += len;
        ip += len;
      } else {
        uint64_t dist;
        if (!ReadVarint(&ip, iend, &dist)) {
          return "truncated varint";
        }
        if (dist == 0 || dist > static_cast<size_t>(op - base)) {
          return "bad distance";
        }
        if (len > static_cast<size_t>(oend - op)) {
          return "match overruns declared size";
        }
        CopyMatch(op, dist, len);
        op += len;
      }
    }
    if (op != oend) return "output size mismatch";
    return nullptr;
  }

 private:
  /// LEB128 varint, same rules as ByteReader::GetVarU64: at most 64 bits of
  /// shift, fails when the input ends mid-varint.
  static bool ReadVarint(const uint8_t** ip, const uint8_t* iend, uint64_t* v) {
    uint64_t r = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (*ip == iend) return false;
      const uint8_t byte = *(*ip)++;
      r |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) {
        *v = r;
        return true;
      }
    }
    return false;
  }

  /// Copies `len` bytes from `dist` bytes back. When the source overlaps the
  /// destination (dist < len) the match repeats a period of `dist` bytes;
  /// each memcpy then copies everything produced so far since the source
  /// start, which doubles the period, so no single copy overlaps itself.
  static void CopyMatch(uint8_t* op, size_t dist, size_t len) {
    const uint8_t* src = op - dist;
    size_t chunk = dist;
    while (len > chunk) {
      std::memcpy(op, src, chunk);
      op += chunk;
      len -= chunk;
      chunk = static_cast<size_t>(op - src);
    }
    std::memcpy(op, src, len);
  }

  static uint32_t Hash(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  }
};

}  // namespace

Status DecodeLzTokens(const char* codec, const uint8_t* input, size_t n,
                      size_t decompressed_size, Bytes* out) {
  // The output is sized once; literals and matches are then copied with
  // memcpy through raw pointers. On error `out` is restored to its size on
  // entry, so a failed decode never leaves partial bytes behind.
  const size_t start = out->size();
  out->resize(start + decompressed_size);
  const char* const error = LzsCompressor::DecodeTokens(
      input, n, out->data() + start, decompressed_size);
  if (error == nullptr) return Status::Ok();
  out->resize(start);
  return Status::Corrupt(std::string(codec).append(": ").append(error));
}

const Compressor* GetLzsCompressor() {
  static const LzsCompressor instance;
  return &instance;
}

}  // namespace sword
