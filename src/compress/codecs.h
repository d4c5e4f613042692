// Accessors for the built-in codec singletons. Internal to src/compress;
// everything else goes through FindCompressor()/DefaultCompressor().
#pragma once

#include "compress/compressor.h"

namespace sword {

const Compressor* GetRawCompressor();
const Compressor* GetRleCompressor();
const Compressor* GetLzsCompressor();
const Compressor* GetLzfCompressor();

/// Decodes the lzs/lzf token stream of `input` and appends exactly
/// `decompressed_size` bytes to `out`. Errors name `codec`, the codec of the
/// frame being decoded; on error `out` keeps its size on entry.
Status DecodeLzTokens(const char* codec, const uint8_t* input, size_t n,
                      size_t decompressed_size, Bytes* out);

}  // namespace sword
