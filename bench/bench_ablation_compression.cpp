// Reproduces SIII-A's codec comparison: the paper tried LZO, Snappy, and
// LZ4, found "similar performance and compression ratios", and shipped LZO.
// Here the raw / rle / lzs / lzf codecs compress a real trace corpus
// (collected from a representative workload) and a synthetic worst case
// (seeded random bytes); the bench reports throughput, codec ratio and
// on-disk ratio (through WriteFrame's raw fallback) per codec, plus
// end-to-end collection time per codec on the live workload.
#include "bench/bench_util.h"
#include "common/fsutil.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "osl/label.h"
#include "trace/writer.h"

using namespace sword;
using namespace sword::bench;

int main() {
  Banner("SIII-A ablation - trace compression codecs",
         "codecs are interchangeable for collection speed; LZ-class wins on "
         "trace ratio (the paper shipped LZO for convenience)");

  // --- Corpus compression: run a workload, read its log back, recompress.
  const auto& w = Find("ompscr", "c_fft");
  harness::RunConfig base_config;
  base_config.tool = harness::ToolKind::kSword;
  base_config.params.threads = 8;
  base_config.codec = "raw";
  base_config.run_offline = false;
  base_config.trace_dir = "";

  TempDir corpus_dir("codec-corpus");
  base_config.trace_dir = corpus_dir.path();
  (void)harness::RunWorkload(w, base_config);

  // Concatenate the decompressed logs into one corpus.
  Bytes corpus;
  for (int t = 0;; t++) {
    const std::string path = corpus_dir.path() + "/sword_t" + std::to_string(t) + ".log";
    if (!FileExists(path)) break;
    auto data = ReadFileBytes(path);
    if (!data.ok()) break;
    ByteReader r(data.value());
    while (!r.AtEnd()) {
      FrameView view;
      if (!ReadFrame(r, &view).ok()) break;
      corpus.insert(corpus.end(), view.data.begin(), view.data.end());
    }
  }
  std::printf("trace corpus: %s of raw events from %s\n",
              FormatBytes(corpus.size()).c_str(), w.name.c_str());

  // The synthetic worst case: seeded random bytes no codec can shrink.
  Rng rng(0x5eed);
  Bytes noise(1 << 20);
  for (auto& b : noise) b = static_cast<uint8_t>(rng.Next());
  std::printf("incompressible corpus: %s of seeded random bytes\n\n",
              FormatBytes(noise.size()).c_str());

  // On-disk bytes when `data` is flushed as 2 MB buffers (the trace
  // writer's default) through WriteFrame, which stores raw what the codec
  // cannot shrink.
  auto framed_bytes = [](const Compressor& codec, const Bytes& data) {
    constexpr size_t kBuffer = 2 << 20;
    uint64_t total = 0;
    Bytes frame;
    for (size_t at = 0; at < data.size(); at += kBuffer) {
      frame.clear();
      (void)WriteFrame(codec, data.data() + at, std::min(kBuffer, data.size() - at),
                       &frame);
      total += frame.size();
    }
    return total;
  };

  TextTable table({"corpus", "codec", "codec ratio", "on-disk ratio", "compress MB/s",
                   "decompress MB/s", "end-to-end collection"});
  double best_ratio = 1.0;
  bool frames_bounded = true;

  for (const bool synthetic : {false, true}) {
    const Bytes& data = synthetic ? noise : corpus;
    const uint64_t raw_framed = framed_bytes(*FindCompressor("raw"), data);
    for (const auto& name : CompressorNames()) {
      const Compressor* codec = FindCompressor(name);
      Bytes compressed;
      Timer ct;
      (void)codec->Compress(data.data(), data.size(), &compressed);
      const double compress_s = ct.ElapsedSeconds();
      Bytes out;
      Timer dt;
      (void)codec->Decompress(compressed.data(), compressed.size(), data.size(), &out);
      const double decompress_s = dt.ElapsedSeconds();

      const double mb = static_cast<double>(data.size()) / (1 << 20);
      const double ratio = static_cast<double>(data.size()) /
                           std::max<size_t>(1, compressed.size());
      const uint64_t framed = framed_bytes(*codec, data);
      frames_bounded = frames_bounded && framed <= raw_framed;
      if (!synthetic) best_ratio = std::max(best_ratio, ratio);

      // End-to-end: collection time with this codec on the live workload.
      std::string collection = "-";
      if (!synthetic) {
        harness::RunConfig config = base_config;
        config.codec = name;
        config.trace_dir = "";
        collection = FormatSeconds(harness::RunWorkload(w, config).dynamic_seconds);
      }

      const double disk_ratio =
          static_cast<double>(data.size()) / static_cast<double>(framed);
      table.AddRow({synthetic ? "random" : w.name, name, FmtX(ratio, 2),
                    FmtX(disk_ratio, 2), Fmt(mb / std::max(compress_s, 1e-9), 0),
                    Fmt(mb / std::max(decompress_s, 1e-9), 0), collection});
    }
  }

  table.Print();
  std::printf("\n");

  // --- Format ablation: v2 delta/varint events vs v3 with the duplicate
  // filter + strided-run coalescer, on the same sweep-heavy access stream
  // (uncompressed, so the column isolates the FORMAT's contribution from
  // the codec's). bytes/event and ns/event are per instrumented access.
  TextTable fmt({"format", "accesses in", "events encoded", "bytes/event",
                 "encode ns/event"});
  double v2_bytes_per_event = 0, v3_bytes_per_event = 0;
  double v2_ns = 0, v3_ns = 0;
  for (const uint8_t format : {trace::kTraceFormatV2, trace::kTraceFormatV3}) {
    TempDir fmt_dir("codec-fmt");
    trace::Flusher flusher(/*async=*/false);
    trace::WriterConfig wc;
    wc.log_path = fmt_dir.File("t.log");
    wc.meta_path = fmt_dir.File("t.meta");
    wc.flusher = &flusher;
    wc.codec = FindCompressor("raw");
    wc.format = format;
    uint64_t accesses = 0, encoded = 0;
    double seconds = 0;
    {
      trace::ThreadTraceWriter writer(0, wc);
      trace::IntervalMeta meta;
      meta.label = osl::Label::Initial().Fork(0, 2);
      writer.BeginSegment(meta);
      Timer t;
      // Sweep-heavy stream with an accumulator re-access and a lock per
      // block - the shape array kernels actually log.
      for (uint64_t block = 0; block < 200; block++) {
        writer.Append(trace::RawEvent::MutexAcquire(1));
        for (uint64_t i = 0; i < 2048; i++) {
          writer.AppendAccess(0x100000 + i * 8, 8, /*flags=*/0, /*pc=*/21);
          writer.AppendAccess(0x80000, 8, /*flags=*/1, /*pc=*/22);
          accesses += 2;
        }
        writer.Append(trace::RawEvent::MutexRelease(1));
      }
      seconds = std::max(t.ElapsedSeconds(), 1e-9);
      writer.EndSegment();
      encoded = writer.events_logged();
      if (!writer.Finish().ok()) return 1;
    }
    uint64_t log_bytes = 0;
    if (auto size = FileSize(wc.log_path); size.ok()) log_bytes = size.value();
    const double bytes_per_event = static_cast<double>(log_bytes) / accesses;
    const double ns_per_event = seconds * 1e9 / static_cast<double>(accesses);
    if (format == trace::kTraceFormatV2) {
      v2_bytes_per_event = bytes_per_event;
      v2_ns = ns_per_event;
    } else {
      v3_bytes_per_event = bytes_per_event;
      v3_ns = ns_per_event;
    }
    fmt.AddRow({"v" + std::to_string(format), std::to_string(accesses),
                std::to_string(encoded), Fmt(bytes_per_event, 3),
                Fmt(ns_per_event)});
  }
  fmt.Print();
  std::printf("\n");

  Check(best_ratio > 2.0, "the LZ-class codec compresses trace data > 2x");
  Check(frames_bounded,
        "no codec's frames exceed raw size plus the frame header, random bytes "
        "included (WriteFrame stores what a codec cannot shrink as raw)");
  Check(v3_bytes_per_event * 2 < v2_bytes_per_event,
        "v3 coalescing+filtering halves bytes/event before the codec (" +
            Fmt(v3_bytes_per_event, 3) + " vs " + Fmt(v2_bytes_per_event, 3) + ")");
  Check(v3_ns < v2_ns,
        "v3 encodes cheaper per access than v2 (" + Fmt(v3_ns) + " vs " +
            Fmt(v2_ns) + " ns)");
  return 0;
}
