// Block compressor interface.
//
// The paper flushes each thread's full trace buffer through a compressor
// before writing it to the log file, and reports that LZO, Snappy, and LZ4
// performed interchangeably (SWORD shipped LZO). This repo substitutes four
// from-scratch codecs behind the same interface:
//   raw  - identity (the "compression off" baseline)
//   rle  - byte-level run-length encoding
//   lzs  - LZ77-style with a hash-chain match finder (standing in for
//          LZO-class codecs)
//   lzf  - greedy single-probe LZ emitting lzs's token stream (the default,
//          standing in for LZ4/Snappy-class codecs)
// Whatever the configured codec, WriteFrame (compress/frame.h) stores a
// buffer the codec cannot shrink as a raw frame.
// bench_ablation_compression reproduces the paper's codec comparison.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace sword {

/// Reusable per-worker compression state. Codecs that need heap-allocated
/// working memory (lzs's hash-chain arrays) resize-and-reuse these vectors
/// instead of allocating per call; the flusher keeps one scratch per worker
/// so a steady stream of buffer flushes performs zero compression-side
/// allocations. `payload` is staging space for frame assembly
/// (compress/frame.*). Passing nullptr everywhere falls back to per-call
/// allocation, so scratch is purely an optimization.
struct CompressScratch {
  std::vector<uint32_t> chain_head;
  std::vector<uint32_t> chain_prev;
  Bytes payload;
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Stable codec name used in the frame header ("raw", "rle", "lzs", "lzf").
  virtual const char* Name() const = 0;

  /// Compresses `input` appending to `out` (which is not cleared). `scratch`
  /// optionally provides reusable working memory (see CompressScratch).
  virtual Status Compress(const uint8_t* input, size_t n, Bytes* out,
                          CompressScratch* scratch = nullptr) const = 0;

  /// Decompresses exactly `decompressed_size` bytes, appending them to `out`
  /// (which is not cleared). Malformed input returns kCorruptData.
  virtual Status Decompress(const uint8_t* input, size_t n, size_t decompressed_size,
                            Bytes* out) const = 0;
};

/// Returns the codec registered under `name`, or nullptr. Codecs are
/// stateless singletons; the returned pointer is never owned by the caller.
const Compressor* FindCompressor(const std::string& name);

/// All registered codec names, in registration order.
std::vector<std::string> CompressorNames();

/// The default codec used by the trace writer ("lzf", the fast LZ).
const Compressor* DefaultCompressor();

}  // namespace sword
