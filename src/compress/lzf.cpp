#include <cstring>

#include "compress/codecs.h"

namespace sword {
namespace {

// Fast greedy LZ codec (the "LZ4/Snappy-class" point in the codec space,
// where lzs is the "LZO-class" one). Single-probe hash table, no chains,
// LZ4-style literal-run skip acceleration. Emits the SAME token stream as
// lzs, so the two share a decoder (DecodeLzTokens):
//   literal token:  0x00 | varint(len) | bytes
//   match token:    0x01 | varint(len) varint(dist)
// How far it shrinks a trace depends on the workload: regular kernels'
// buffers compress by orders of magnitude, irregular ones (graph searches)
// barely at all.
//
// Give-up rule: every kGiveUpStride input bytes the encoder compares what the
// stream costs so far (tokens written plus the pending literal run) with the
// input consumed. If the stream has grown larger, the rest of the input goes
// out as one literal token and encoding stops, so incompressible buffers cost
// one stride of matching plus a memcpy. The rule depends only on the input,
// so re-encoding a buffer reproduces its stream byte for byte; WriteFrame
// then stores such a buffer as a raw frame.
class LzfCompressor final : public Compressor {
 public:
  static constexpr size_t kMinMatch = 4;
  static constexpr size_t kGiveUpStride = 16 << 10;
  static constexpr size_t kHashBits = 13;
  static constexpr size_t kHashSize = 1u << kHashBits;
  static constexpr uint32_t kNoPos = 0xffffffffu;

  const char* Name() const override { return "lzf"; }

  Status Compress(const uint8_t* input, size_t n, Bytes* out,
                  CompressScratch* /*scratch*/ = nullptr) const override {
    // The probe table lives on the stack (32 KB); no scratch needed.
    ByteWriter w(out);
    if (n == 0) return Status::Ok();
    out->reserve(out->size() + n / 2 + 64);
    const size_t out_start = out->size();
    size_t next_check = kGiveUpStride;

    uint32_t table[kHashSize];
    std::memset(table, 0xff, sizeof(table));

    size_t i = 0;
    size_t literal_start = 0;
    size_t literal_run = 0;

    auto flush_literals = [&](size_t end) {
      if (end > literal_start) {
        w.PutU8(0x00);
        w.PutVarU64(end - literal_start);
        w.PutRaw(input + literal_start, end - literal_start);
      }
    };

    while (i + kMinMatch <= n) {
      if (i >= next_check) {
        // The tokens written cover input [0, literal_start) and the pending
        // literals will cost at least their own length, so written bytes
        // beyond literal_start mean the stream already outgrew the input.
        if (out->size() - out_start > literal_start) break;
        next_check = i + kGiveUpStride;
      }
      const uint32_t h = Hash(input + i);
      const uint32_t cand = table[h];
      table[h] = static_cast<uint32_t>(i);

      uint32_t cand_head, cur_head;
      if (cand != kNoPos) {
        std::memcpy(&cand_head, input + cand, 4);
        std::memcpy(&cur_head, input + i, 4);
      }
      if (cand != kNoPos && cand_head == cur_head) {
        size_t len = 4;
        const size_t max_len = n - i;
        while (len < max_len && input[cand + len] == input[i + len]) len++;
        flush_literals(i);
        w.PutU8(0x01);
        w.PutVarU64(len);
        w.PutVarU64(i - cand);
        // Seed the table at the match end so periodic data keeps matching.
        i += len;
        literal_start = i;
        literal_run = 0;
        if (i + kMinMatch <= n) {
          table[Hash(input + i - 2)] = static_cast<uint32_t>(i - 2);
        }
      } else {
        // Literal: accelerate through incompressible stretches.
        i += 1 + (literal_run >> 6);
        literal_run++;
      }
    }
    flush_literals(n);
    return Status::Ok();
  }

  Status Decompress(const uint8_t* input, size_t n, size_t decompressed_size,
                    Bytes* out) const override {
    return DecodeLzTokens(Name(), input, n, decompressed_size, out);
  }

 private:
  static uint32_t Hash(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  }
};

}  // namespace

const Compressor* GetLzfCompressor() {
  static const LzfCompressor instance;
  return &instance;
}

}  // namespace sword
