// Google-benchmark microbenchmarks for the performance-critical components:
// per-access costs (trace append, shadow check), summary operations
// (StreamingSetBuilder appends), OSL judgments,
// Diophantine solves and closed-form overlap decisions, codec throughput, and vector-clock joins. These are the constants behind every macro number in the tables.
//
// Three modes:
//   (default)            the google-benchmark suite below
//   --quick [--json F]   the online fast-path microbench: per-access ns on
//                        strided-sweep and reduction workloads, format v3
//                        (coalescer) vs v2 (one event per access), with
//                        suppressed/coalesced counters, plus the offline
//                        read layer's block decoder (ns per event) and
//                        "SW3H" frame checksum (bytes/s). This is the
//                        perf-smoke gate's tracing-side metric source.
//   --contention [--json F]
//                        the trace-plane coordination sweep: N producers
//                        hammering pool-Acquire + AppendFrame through the
//                        lock-free rings/freelist vs the mutex+condvar
//                        ablation at {2,4,8,16,24} threads. Gate metrics
//                        carry hardware-aware escape booleans so the sweep
//                        stays meaningful on small CI runners.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <source_location>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/table.h"

#include "common/rng.h"
#include "compress/compressor.h"
#include "compress/frame.h"
#include "hb/shadow.h"
#include "hb/vectorclock.h"
#include "ilp/diophantine.h"
#include "ilp/overlap.h"
#include "itree/streaming_builder.h"
#include "osl/label.h"
#include "somp/instr.h"
#include "somp/runtime.h"
#include "somp/srcloc.h"
#include "trace/event.h"
#include "trace/writer.h"
#include "common/fsutil.h"
#include "trace/flusher.h"

namespace {

using namespace sword;

void BM_EventEncode(benchmark::State& state) {
  Bytes buffer;
  buffer.reserve(1 << 20);
  ByteWriter w(&buffer);
  uint64_t addr = 0x1000;
  for (auto _ : state) {
    trace::EncodeEvent(trace::RawEvent::Access(addr, 8, 1, 42), w);
    addr += 8;
    if (buffer.size() > (1 << 20) - 16) buffer.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventEncode);

void BM_EventEncodeV2(benchmark::State& state) {
  // Delta/varint encoding of a strided access stream - the hot loop of every
  // v2 buffer flush. bytes_per_event is the compression the format itself
  // provides before the codec ever runs (acceptance: >= 2x vs the 16-byte v1).
  Bytes buffer;
  buffer.reserve(1 << 20);
  ByteWriter w(&buffer);
  trace::EventCodecState codec_state;
  uint64_t addr = 0x1000;
  uint64_t bytes = 0;
  for (auto _ : state) {
    const size_t before = buffer.size();
    trace::EncodeEventV2(trace::RawEvent::Access(addr, 8, 1, 42), codec_state, w);
    bytes += buffer.size() - before;
    addr += 8;
    if (buffer.size() > (1 << 20) - trace::kMaxEventBytesV2) {
      buffer.clear();
      codec_state = trace::EventCodecState{};
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_event"] =
      benchmark::Counter(static_cast<double>(bytes) / state.iterations());
}
BENCHMARK(BM_EventEncodeV2);

/// Decodes a whole delta-coded payload through the block decoder; returns
/// the number of accesses its events stand for (run counts included).
uint64_t DecodePayload(const Bytes& payload, uint8_t format) {
  trace::DeltaStream in{payload.data(), payload.data() + payload.size(), format, {}};
  trace::RawEvent block[trace::kDecodeBlockEvents];
  uint64_t accesses = 0;
  while (in.pos < in.end) {
    size_t n = 0;
    if (!trace::DecodeDeltaBlock(in, in.end, block, trace::kDecodeBlockEvents, &n).ok()) {
      std::abort();
    }
    for (size_t i = 0; i < n; i++) accesses += block[i].count;
  }
  return accesses;
}

void BM_EventDecodeV2(benchmark::State& state) {
  // Decode throughput of the offline reader's v2 hot loop.
  Bytes buffer;
  ByteWriter w(&buffer);
  trace::EventCodecState enc_state;
  constexpr uint64_t kEvents = 1 << 16;
  for (uint64_t i = 0; i < kEvents; i++) {
    trace::EncodeEventV2(trace::RawEvent::Access(0x1000 + i * 8, 8, 1, 42),
                         enc_state, w);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodePayload(buffer, trace::kTraceFormatV2));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kEvents);
  state.counters["bytes_per_event"] =
      benchmark::Counter(static_cast<double>(buffer.size()) / kEvents);
}
BENCHMARK(BM_EventDecodeV2);

void BM_EventEncodeV3Run(benchmark::State& state) {
  // One kAccessRun event standing for state.range(0) strided accesses - the
  // v3 coalescer's output. bytes_per_access is the format-level compression
  // a hot sweep loop gets before the codec runs.
  const uint64_t count = static_cast<uint64_t>(state.range(0));
  Bytes buffer;
  buffer.reserve(1 << 20);
  ByteWriter w(&buffer);
  trace::EventCodecState codec_state;
  uint64_t addr = 0x1000;
  uint64_t bytes = 0;
  for (auto _ : state) {
    const size_t before = buffer.size();
    trace::EncodeEventV3(trace::RawEvent::Run(addr, 8, count, 8, 1, 42),
                         codec_state, w);
    bytes += buffer.size() - before;
    addr += count * 8;
    if (buffer.size() > (1 << 20) - trace::kMaxEventBytesV3) {
      buffer.clear();
      codec_state = trace::EventCodecState{};
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
  state.counters["bytes_per_access"] = benchmark::Counter(
      static_cast<double>(bytes) / state.iterations() / count);
}
BENCHMARK(BM_EventEncodeV3Run)->Arg(16)->Arg(256);

void BM_EventDecodeV3Run(benchmark::State& state) {
  // Decode throughput of the v3 reader hot loop on run-dense payloads,
  // counted in represented accesses (count per run event).
  constexpr uint64_t kRuns = 1 << 12;
  constexpr uint64_t kCount = 64;
  Bytes buffer;
  ByteWriter w(&buffer);
  trace::EventCodecState enc_state;
  for (uint64_t i = 0; i < kRuns; i++) {
    trace::EncodeEventV3(
        trace::RawEvent::Run(0x1000 + i * kCount * 8, 8, kCount, 8, 1, 42),
        enc_state, w);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodePayload(buffer, trace::kTraceFormatV3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRuns * kCount);
  state.counters["bytes_per_access"] =
      benchmark::Counter(static_cast<double>(buffer.size()) / (kRuns * kCount));
}
BENCHMARK(BM_EventDecodeV3Run);

/// A v3 payload of graphsearch's vertex body as the writer logs it: per
/// vertex an own-slot load, the four random neighbour loads as count-2 runs
/// where a pair ascends and singles otherwise, and an own-slot store.
Bytes GraphSearchPayload(uint64_t vertices, uint64_t* events) {
  Rng rng(21);
  Bytes payload;
  ByteWriter w(&payload);
  trace::EventCodecState state;
  *events = 0;
  auto put = [&](const trace::RawEvent& e) {
    trace::EncodeEventV3(e, state, w);
    ++*events;
  };
  for (uint64_t v = 0; v < vertices; v++) {
    put(trace::RawEvent::Access(0x100000 + v * 8, 8, 0, 30));
    for (int pair = 0; pair < 2; pair++) {
      const uint64_t a = 0x100000 + rng.Below(vertices) * 8;
      const uint64_t b = 0x100000 + rng.Below(vertices) * 8;
      if (b > a) {
        put(trace::RawEvent::Run(a, b - a, 2, 8, 0, 31));
      } else {
        put(trace::RawEvent::Access(a, 8, 0, 31));
        put(trace::RawEvent::Access(b, 8, 0, 31));
      }
    }
    put(trace::RawEvent::Access(0x200000 + v * 8, 8, 1, 32));
  }
  return payload;
}

void BM_EventDecodeGraphSearch(benchmark::State& state) {
  uint64_t events = 0;
  const Bytes payload = GraphSearchPayload(16000, &events);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodePayload(payload, trace::kTraceFormatV3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * events));
}
BENCHMARK(BM_EventDecodeGraphSearch);

void BM_FrameChecksum(benchmark::State& state) {
  // Arg 0: FNV-1a ("SW3F" and older frames); arg 1: the word hash ("SW3H").
  const uint32_t magic = state.range(0) ? kFrameMagicV3Word : kFrameMagicV3;
  Rng rng(5);
  Bytes payload(1 << 20);
  for (uint8_t& b : payload) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(FrameChecksum(magic, payload.data(), payload.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * payload.size()));
  state.SetLabel(state.range(0) ? "word hash" : "fnv1a64");
}
BENCHMARK(BM_FrameChecksum)->Arg(0)->Arg(1);

void BM_TraceAppend(benchmark::State& state) {
  TempDir dir("bm-trace");
  trace::Flusher flusher(/*async=*/true);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.format = static_cast<uint8_t>(state.range(0));
  trace::ThreadTraceWriter writer(0, wc);
  trace::IntervalMeta meta;
  meta.label = osl::Label::Initial().Fork(0, 2);
  writer.BeginSegment(meta);
  uint64_t addr = 0x4000;
  for (auto _ : state) {
    writer.Append(trace::RawEvent::Access(addr, 8, 1, 7));
    addr += 8;
  }
  writer.EndSegment();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string("v").append(std::to_string(state.range(0))));
}
BENCHMARK(BM_TraceAppend)
    ->Arg(trace::kTraceFormatV1)
    ->Arg(trace::kTraceFormatV2)
    ->Arg(trace::kTraceFormatV3);

void BM_TraceAppendAccess(benchmark::State& state) {
  // The instrumented-access fast path on a strided sweep: format v3's run
  // coalescer vs v2's one event per access (the arg is the format). The gap
  // is the per-access win of the fast path; the --quick mode gates it in CI.
  TempDir dir("bm-appendaccess");
  trace::Flusher flusher(/*async=*/true);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.format = static_cast<uint8_t>(state.range(0));
  trace::ThreadTraceWriter writer(0, wc);
  trace::IntervalMeta meta;
  meta.label = osl::Label::Initial().Fork(0, 2);
  writer.BeginSegment(meta);
  uint64_t addr = 0x4000;
  for (auto _ : state) {
    writer.AppendAccess(addr, 8, 1, 7);
    addr += 8;
  }
  writer.EndSegment();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string("v").append(std::to_string(state.range(0))));
}
BENCHMARK(BM_TraceAppendAccess)
    ->Arg(trace::kTraceFormatV2)
    ->Arg(trace::kTraceFormatV3);

/// Addresses of graphsearch's neighbour loads: four random slots per vertex
/// of a `nodes`-element int64 array (the pattern that folds into count-2
/// runs).
std::vector<uint64_t> RandomNeighbours(uint64_t nodes) {
  Rng rng(21);
  std::vector<uint64_t> addrs(4 * nodes);
  for (uint64_t& a : addrs) a = 0x100000 + rng.Below(nodes) * 8;
  return addrs;
}

/// Graphsearch's vertex body for vertex `v` at the writer layer: an
/// ascending own-slot load, four loads of random neighbours (one site:
/// ascending pairs fold into count-2 runs, the rest stay singles) and an
/// ascending own-slot store. Six accesses.
void AppendVertex(trace::ThreadTraceWriter& writer, uint64_t v,
                  const std::vector<uint64_t>& neighbours) {
  writer.AppendAccess(0x100000 + v * 8, 8, /*flags=*/0, /*pc=*/30);
  for (uint64_t d = 0; d < 4; d++) {
    writer.AppendAccess(neighbours[v * 4 + d], 8, /*flags=*/0, /*pc=*/31);
  }
  writer.AppendAccess(0x200000 + v * 8, 8, /*flags=*/1, /*pc=*/32);
}

void BM_TraceAppendAccessRandomPairs(benchmark::State& state) {
  // AppendVertex through a v3 writer: every random load reaches the encoder.
  TempDir dir("bm-randompairs");
  trace::Flusher flusher(/*async=*/true);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  trace::ThreadTraceWriter writer(0, wc);
  trace::IntervalMeta meta;
  meta.label = osl::Label::Initial().Fork(0, 2);
  writer.BeginSegment(meta);
  constexpr uint64_t kNodes = 16000;
  const std::vector<uint64_t> neighbours = RandomNeighbours(kNodes);
  uint64_t v = 0;
  for (auto _ : state) {
    AppendVertex(writer, v, neighbours);
    if (++v == kNodes) v = 0;
  }
  writer.EndSegment();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 6);
}
BENCHMARK(BM_TraceAppendAccessRandomPairs);

void BM_FlusherThroughput(benchmark::State& state) {
  // End-to-end pipeline throughput: 8 producers handing pool-acquired
  // buffers to the worker pool for compress+append. The worker count is the
  // arg; scaling past 1 worker is the tentpole's reason to exist (8
  // producers through the parallel pool >= 2x one worker on a multi-core
  // host; on a single-core host the worker counts tie, like the other
  // parallel-phase benches).
  constexpr int kProducers = 8;
  constexpr int kJobsPerProducer = 24;
  constexpr size_t kBufferBytes = 256 * 1024;
  const Compressor* codec = FindCompressor("lzs");

  // Compressible, trace-like payload template.
  Bytes pattern;
  ByteWriter w(&pattern);
  trace::EventCodecState cs;
  while (pattern.size() + trace::kMaxEventBytesV2 <= kBufferBytes) {
    trace::EncodeEventV2(
        trace::RawEvent::Access(0x1000 + pattern.size() * 8, 8, 1, 42), cs, w);
  }

  for (auto _ : state) {
    state.PauseTiming();
    TempDir dir("bm-flush");
    state.ResumeTiming();
    trace::FlusherConfig fc;
    fc.async = true;
    fc.workers = static_cast<uint32_t>(state.range(0));
    trace::Flusher flusher(fc);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; p++) {
      producers.emplace_back([&, p] {
        const std::string path =
            dir.File(std::string("p").append(std::to_string(p)).append(".log"));
        for (int j = 0; j < kJobsPerProducer; j++) {
          Bytes buf = flusher.pool().Acquire(kBufferBytes);
          buf.assign(pattern.begin(), pattern.end());
          flusher.AppendFrame(path, std::move(buf), codec,
                              trace::kTraceFormatV2);
        }
      });
    }
    for (auto& t : producers) t.join();
    flusher.Drain();
    if (!flusher.status().ok()) std::abort();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kProducers *
                          kJobsPerProducer * static_cast<int64_t>(pattern.size()));
  state.SetLabel(std::to_string(state.range(0)) + " worker(s)");
}
BENCHMARK(BM_FlusherThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ShadowProcessAccess(benchmark::State& state) {
  MemoryScope memory("bm-shadow");
  hb::ShadowMemory shadow(4, &memory);
  hb::VectorClock clock;
  clock.Tick(0);
  auto sink = [](const RaceReport&) {};
  uint64_t addr = 0x10000;
  for (auto _ : state) {
    hb::AccessRecord rec{0, 1, addr, 8, 1, 9};
    benchmark::DoNotOptimize(shadow.ProcessAccess(rec, clock, sink));
    addr += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowProcessAccess);

void BM_ItreeAddAccessSummarizing(benchmark::State& state) {
  itree::StreamingSetBuilder builder;
  itree::AccessKey key;
  key.pc = 1;
  key.flags = itree::kWrite;
  key.size = 8;
  uint64_t addr = 0x100000;
  for (auto _ : state) {
    builder.AddAccess(addr, key);
    addr += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ItreeAddAccessSummarizing);

void BM_ItreeAddAccessScattered(benchmark::State& state) {
  itree::StreamingSetBuilder builder;
  Rng rng(3);
  for (auto _ : state) {
    itree::AccessKey key;
    key.pc = static_cast<uint32_t>(rng.Below(64));
    key.flags = itree::kWrite;
    key.size = 8;
    builder.AddAccess(0x100000 + rng.Below(1 << 24) * 8, key);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ItreeAddAccessScattered);

void BM_OslConcurrent(benchmark::State& state) {
  const osl::Label a = osl::Label::Initial().Fork(1, 8).AfterBarrier().Fork(0, 2);
  const osl::Label b = osl::Label::Initial().Fork(3, 8).AfterBarrier().Fork(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(osl::Concurrent(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OslConcurrent);

void BM_DiophantineSolve(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::SolveBoundedDiophantine(
        8, -static_cast<int64_t>(1 + rng.Below(16)), static_cast<int64_t>(rng.Below(64)),
        0, 1000, 0, 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiophantineSolve);

void BM_OverlapIntersect(benchmark::State& state) {
  // Arg 0: Fig. 4's equal strides; arg 1: sparse strides 24 and 40. Neither
  // pair shares a byte, so every candidate offset is solved.
  const bool unequal = state.range(0) != 0;
  const ilp::StridedInterval a{10, unequal ? 24u : 8u, 500, 4};
  const ilp::StridedInterval b{14, unequal ? 40u : 8u, 500, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::Intersect(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(unequal ? "unequal strides" : "equal strides");
}
BENCHMARK(BM_OverlapIntersect)->Arg(0)->Arg(1);

void BM_CodecCompress(benchmark::State& state) {
  const auto names = CompressorNames();
  const Compressor* codec = FindCompressor(names[static_cast<size_t>(state.range(0))]);
  ByteWriter w;
  for (uint64_t i = 0; i < 25000; i++) {
    trace::EncodeEvent(trace::RawEvent::Access(0x1000 + i * 8, 8, 1, 77), w);
  }
  const Bytes& input = w.buffer();
  for (auto _ : state) {
    Bytes out;
    benchmark::DoNotOptimize(codec->Compress(input.data(), input.size(), &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
  state.SetLabel(codec->Name());
}
BENCHMARK(BM_CodecCompress)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SompRegionForkJoin(benchmark::State& state) {
  // Cost of one empty parallel region at the given width - the constant
  // behind LULESH's region-count-dominated profile (Fig. 7c / Table V).
  somp::RuntimeConfig rc;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  const uint32_t span = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    somp::Parallel(span, [](somp::Ctx&) {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SompRegionForkJoin)->Arg(2)->Arg(4)->Arg(8);

void BM_SompBarrier(benchmark::State& state) {
  somp::RuntimeConfig rc;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  const int64_t barriers = 64;
  for (auto _ : state) {
    somp::Parallel(4, [&](somp::Ctx& ctx) {
      for (int64_t b = 0; b < barriers; b++) ctx.Barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * barriers);
}
BENCHMARK(BM_SompBarrier);

void BM_SompCritical(benchmark::State& state) {
  somp::RuntimeConfig rc;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  const int64_t acquisitions = 256;
  for (auto _ : state) {
    somp::Parallel(4, [&](somp::Ctx& ctx) {
      for (int64_t k = 0; k < acquisitions; k++) {
        ctx.Critical("bm-crit", [] {});
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * acquisitions * 4);
}
BENCHMARK(BM_SompCritical);

void BM_InstrumentedLoad(benchmark::State& state) {
  // Per-access cost of the shim WITHOUT any tool (the "baseline" column's
  // instrumentation overhead).
  somp::RuntimeConfig rc;
  somp::Runtime::Get().ResetIds();
  somp::Runtime::Get().Configure(rc);
  std::vector<double> data(1024, 1.0);
  somp::Parallel(1, [&](somp::Ctx&) {
    size_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(instr::load(data[i++ & 1023]));
    }
  });
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstrumentedLoad);

/// Four sites of one loop body, for timing the pc-interning hit path every
/// instrumented access pays (after the first call, each is in the calling
/// thread's pc cache).
std::array<std::source_location, 4> LoopBodySites() {
  return {std::source_location::current(), std::source_location::current(),
          std::source_location::current(), std::source_location::current()};
}

void BM_InternSrcLoc(benchmark::State& state) {
  const std::array<std::source_location, 4> sites = LoopBodySites();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(somp::InternSrcLoc(sites[i++ & 3]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InternSrcLoc);

void BM_VectorClockJoin(benchmark::State& state) {
  hb::VectorClock a, b;
  for (uint32_t i = 0; i < 32; i++) {
    a.Set(i, i * 3);
    b.Set(i, 100 - i);
  }
  for (auto _ : state) {
    hb::VectorClock c = a;
    c.Join(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VectorClockJoin);

// ---------------------------------------------------------------------------
// --quick mode: the online fast-path microbench behind the perf-smoke gate.
// Measures per-access ns at the ThreadTraceWriter layer (the exact code the
// TLS event sink dispatches into) on two shapes:
//   strided sweep   repeated ascending stride-8 store sweeps - pure
//                   coalescer territory (each sweep folds into one run);
//   reduction loop  a[i] load + accumulator load + accumulator store per
//                   iteration - the accumulator re-accesses repeat their
//                   site's pending run and are suppressed, while the a[i]
//                   site folds into its own run;
//   interleaved     a loop body of 2 or 4 strided store sites, one access
//                   each per iteration - per-site coalescer territory (each
//                   site folds into one run). Reported only, not gated.
//   random pairs    graphsearch's vertex body: an own-slot load, four loads
//                   of random neighbours, an own-slot store. The neighbour
//                   site logs count-2 runs and singles, so this is the
//                   encoder-bound shape; v3 only, floor-gated.
// Besides the writer shapes it times the pc-interning hit path
// (InternSrcLoc on four cached sites), which every access pays first, and
// the two byte-level costs of reading a trace back: DecodeDeltaBlock on a
// graphsearch-shaped v3 payload and the word-hash frame checksum.
// Each shape runs under format v3 and v2 (the plain writer), so the JSON
// carries both the speedup ratio (machine-independent) and absolute
// accesses/sec (floor-gated with tolerance).

struct SweepMetrics {
  double ns_per_access = 0;
  double accesses_per_sec = 0;
  uint64_t accesses = 0;
  uint64_t logged = 0;
  uint64_t suppressed = 0;
  uint64_t coalesced = 0;
  uint64_t runs = 0;
  uint64_t log_bytes = 0;
};

enum class SweepShape { kStrided, kReduction, kInterleaved, kRandomPairs };

SweepMetrics MeasureSweep(SweepShape shape, uint8_t format, uint64_t sweeps,
                          uint64_t elems, uint32_t sites = 1) {
  TempDir dir("bm-fastpath");
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.codec = FindCompressor("raw");  // measure the format, not the codec
  wc.format = format;
  SweepMetrics m;
  {
    trace::ThreadTraceWriter writer(0, wc);
    trace::IntervalMeta meta;
    meta.label = osl::Label::Initial().Fork(0, 2);
    writer.BeginSegment(meta);
    constexpr uint64_t kBase = 0x100000;
    constexpr uint64_t kAcc = 0x80000;  // the reduction accumulator
    // The random-pairs neighbours, drawn before the clock starts.
    const std::vector<uint64_t> neighbours =
        shape == SweepShape::kRandomPairs ? RandomNeighbours(elems)
                                          : std::vector<uint64_t>();
    Timer t;
    if (shape == SweepShape::kStrided) {
      for (uint64_t s = 0; s < sweeps; s++) {
        for (uint64_t i = 0; i < elems; i++) {
          writer.AppendAccess(kBase + i * 8, 8, /*flags=*/1, /*pc=*/7);
        }
      }
      m.accesses = sweeps * elems;
    } else if (shape == SweepShape::kInterleaved) {
      for (uint64_t s = 0; s < sweeps; s++) {
        for (uint64_t i = 0; i < elems; i++) {
          for (uint32_t site = 0; site < sites; site++) {
            writer.AppendAccess(kBase + site * 0x100000 + i * 8, 8,
                                /*flags=*/1, /*pc=*/20 + site);
          }
        }
      }
      m.accesses = sweeps * elems * sites;
    } else if (shape == SweepShape::kRandomPairs) {
      for (uint64_t s = 0; s < sweeps; s++) {
        for (uint64_t v = 0; v < elems; v++) AppendVertex(writer, v, neighbours);
      }
      m.accesses = sweeps * elems * 6;
    } else {
      for (uint64_t s = 0; s < sweeps; s++) {
        for (uint64_t i = 0; i < elems; i++) {
          writer.AppendAccess(kBase + i * 8, 8, /*flags=*/0, /*pc=*/11);
          writer.AppendAccess(kAcc, 8, /*flags=*/0, /*pc=*/12);
          writer.AppendAccess(kAcc, 8, /*flags=*/1, /*pc=*/13);
        }
      }
      m.accesses = sweeps * elems * 3;
    }
    const double seconds = std::max(t.ElapsedSeconds(), 1e-9);
    writer.EndSegment();
    m.ns_per_access = seconds * 1e9 / static_cast<double>(m.accesses);
    m.accesses_per_sec = static_cast<double>(m.accesses) / seconds;
    m.logged = writer.events_logged();
    m.suppressed = writer.events_suppressed();
    m.coalesced = writer.events_coalesced();
    m.runs = writer.runs_emitted();
    if (!writer.Finish().ok()) std::abort();
  }
  auto size = FileSize(wc.log_path);
  m.log_bytes = size.ok() ? size.value() : 0;
  return m;
}

int RunFastPathQuick(const ArgParser& args) {
  using sword::bench::Check;
  const bool quick = args.GetBool("quick");
  const std::string json_path = args.GetString("json", "");
  const uint64_t sweeps = quick ? 200 : 2000;
  const uint64_t elems = 4096;

  sword::bench::Banner(
      "Online fast path - per-access cost, v3 vs the plain v2 writer",
      "duplicate suppression + strided-run coalescing >= 2x per-access "
      "throughput on sweep loops, at fewer logged bytes");

  SweepMetrics strided_v3, strided_v2, reduction_v3, reduction_v2;
  for (const SweepShape shape : {SweepShape::kStrided, SweepShape::kReduction}) {
    const bool is_strided = shape == SweepShape::kStrided;
    SweepMetrics& v3 = is_strided ? strided_v3 : reduction_v3;
    SweepMetrics& v2 = is_strided ? strided_v2 : reduction_v2;
    v3 = MeasureSweep(shape, trace::kTraceFormatV3, sweeps, elems);
    v2 = MeasureSweep(shape, trace::kTraceFormatV2, sweeps, elems);
    TextTable table({is_strided ? "strided sweep" : "reduction loop",
                     "per-access ns", "accesses/s", "events logged",
                     "suppressed", "coalesced", "runs", "log bytes"});
    auto add_row = [&table](const char* name, const SweepMetrics& m) {
      table.AddRow({name, Fmt(m.ns_per_access),
                    std::to_string(static_cast<uint64_t>(m.accesses_per_sec)),
                    std::to_string(m.logged), std::to_string(m.suppressed),
                    std::to_string(m.coalesced), std::to_string(m.runs),
                    std::to_string(m.log_bytes)});
    };
    add_row("v3", v3);
    add_row("v2", v2);
    table.Print();
    std::printf("\n");
  }

  // Interleaved sites: a per-access cost and how many events each access
  // costs in the log, for v3 (each site folds into one run per sweep) and
  // v2 (one event per access).
  SweepMetrics interleaved[2];
  {
    TextTable table({"interleaved sites", "per-access ns", "accesses/s",
                     "events logged", "events/access", "runs", "log bytes"});
    const uint32_t kSiteCounts[2] = {2, 4};
    for (int k = 0; k < 2; k++) {
      const uint32_t sites = kSiteCounts[k];
      for (const uint8_t format : {trace::kTraceFormatV3, trace::kTraceFormatV2}) {
        const SweepMetrics m = MeasureSweep(SweepShape::kInterleaved, format,
                                            sweeps / sites, elems, sites);
        if (format == trace::kTraceFormatV3) interleaved[k] = m;
        table.AddRow({std::to_string(sites) + " sites, v" + std::to_string(format),
                      Fmt(m.ns_per_access),
                      std::to_string(static_cast<uint64_t>(m.accesses_per_sec)),
                      std::to_string(m.logged),
                      Fmt(static_cast<double>(m.logged) /
                              std::max<uint64_t>(1, m.accesses),
                          6),
                      std::to_string(m.runs), std::to_string(m.log_bytes)});
      }
    }
    table.Print();
    std::printf("\n");
  }

  // Graphsearch's vertex body (v3) and the pc-interning hit path.
  const SweepMetrics random_pairs = MeasureSweep(
      SweepShape::kRandomPairs, trace::kTraceFormatV3, quick ? 20 : 200, 16000);
  double intern_ns = 0;
  {
    const std::array<std::source_location, 4> sites = LoopBodySites();
    const uint64_t calls = quick ? 20'000'000 : 200'000'000;
    uint64_t sum = 0;
    Timer t;
    for (uint64_t i = 0; i < calls; i++) sum += somp::InternSrcLoc(sites[i & 3]);
    intern_ns = t.ElapsedSeconds() * 1e9 / static_cast<double>(calls);
    benchmark::DoNotOptimize(sum);
  }
  // The offline read path's two byte-level costs: the block decoder on the
  // graphsearch payload, and the "SW3H" frame checksum over 1.7 MB (the
  // size of graphsearch-ranged's whole trace), each the best of 9 reps.
  uint64_t decode_events = 0;
  const Bytes decode_payload = GraphSearchPayload(16000, &decode_events);
  const double decode_s = sword::bench::BestOfReps(
      9,
      [&] {
        Timer t;
        benchmark::DoNotOptimize(DecodePayload(decode_payload, trace::kTraceFormatV3));
        return t.ElapsedSeconds();
      },
      [](double s) { return s; });
  const double block_decode_ns = decode_s * 1e9 / static_cast<double>(decode_events);
  Bytes checksum_payload(1714678);
  {
    Rng rng(5);
    for (uint8_t& b : checksum_payload) b = static_cast<uint8_t>(rng.Next());
  }
  const double checksum_s = sword::bench::BestOfReps(
      9,
      [&] {
        Timer t;
        benchmark::DoNotOptimize(FrameChecksum(
            kFrameMagicV3Word, checksum_payload.data(), checksum_payload.size()));
        return t.ElapsedSeconds();
      },
      [](double s) { return s; });
  const double checksum_bytes_per_sec =
      static_cast<double>(checksum_payload.size()) / std::max(checksum_s, 1e-9);
  {
    TextTable table({"offline read layer", "per-event ns", "events/s", "bytes/s"});
    table.AddRow({"block decode (graphsearch v3 payload)", Fmt(block_decode_ns),
                  std::to_string(static_cast<uint64_t>(1e9 / block_decode_ns)), "-"});
    table.AddRow({"SW3H frame checksum", "-", "-",
                  std::to_string(static_cast<uint64_t>(checksum_bytes_per_sec))});
    table.Print();
    std::printf("\n");
  }

  {
    TextTable table({"online layer", "per-access ns", "accesses/s",
                     "events logged", "runs", "log bytes"});
    table.AddRow({"random pairs (v3 writer)", Fmt(random_pairs.ns_per_access),
                  std::to_string(static_cast<uint64_t>(random_pairs.accesses_per_sec)),
                  std::to_string(random_pairs.logged), std::to_string(random_pairs.runs),
                  std::to_string(random_pairs.log_bytes)});
    table.AddRow({"InternSrcLoc hit", Fmt(intern_ns), "-", "-", "-", "-"});
    table.Print();
    std::printf("\n");
  }

  const double strided_speedup =
      strided_v2.ns_per_access / std::max(strided_v3.ns_per_access, 1e-9);
  const double reduction_speedup =
      reduction_v2.ns_per_access / std::max(reduction_v3.ns_per_access, 1e-9);
  const double bytes_v3 = static_cast<double>(strided_v3.log_bytes) /
                          std::max<uint64_t>(1, strided_v3.accesses);
  const double bytes_v2 = static_cast<double>(strided_v2.log_bytes) /
                          std::max<uint64_t>(1, strided_v2.accesses);

  // Every check below is a gate: the exit code fails if any one fails.
  bool ok = true;
  auto gate = [&ok](bool pass, const std::string& what) {
    Check(pass, what);
    ok = ok && pass;
  };
  gate(strided_speedup >= 2.0, "strided sweep >= 2x per-access throughput (" +
                                   FmtX(strided_speedup, 1) + ")");
  gate(reduction_speedup >= 2.0,
       "reduction loop >= 2x per-access throughput (" +
           FmtX(reduction_speedup, 1) + ")");
  gate(strided_v3.log_bytes * 10 < strided_v2.log_bytes,
       "coalesced log >= 10x smaller on sweeps (" +
           FormatBytes(strided_v3.log_bytes) + " vs " +
           FormatBytes(strided_v2.log_bytes) + ")");
  gate(reduction_v3.suppressed > 0 && strided_v3.coalesced > 0,
       "both fast-path mechanisms engaged (suppressed=" +
           std::to_string(reduction_v3.suppressed) +
           ", coalesced=" + std::to_string(strided_v3.coalesced) + ")");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"micro_components\",\"quick\":"
        << (quick ? "true" : "false")
        << ",\"strided_default_ns\":" << strided_v3.ns_per_access
        << ",\"strided_v2_ns\":" << strided_v2.ns_per_access
        << ",\"reduction_default_ns\":" << reduction_v3.ns_per_access
        << ",\"reduction_v2_ns\":" << reduction_v2.ns_per_access
        << ",\"fast_path_speedup\":" << strided_speedup
        << ",\"reduction_speedup\":" << reduction_speedup
        << ",\"default_accesses_per_sec\":" << strided_v3.accesses_per_sec
        << ",\"events_suppressed\":" << reduction_v3.suppressed
        << ",\"events_coalesced\":" << strided_v3.coalesced
        << ",\"runs_emitted\":" << strided_v3.runs
        << ",\"bytes_per_access_default\":" << bytes_v3
        << ",\"bytes_per_access_v2\":" << bytes_v2
        << ",\"interleaved2_ns\":" << interleaved[0].ns_per_access
        << ",\"interleaved4_ns\":" << interleaved[1].ns_per_access
        << ",\"interleaved2_events_per_access\":"
        << static_cast<double>(interleaved[0].logged) /
               std::max<uint64_t>(1, interleaved[0].accesses)
        << ",\"interleaved4_events_per_access\":"
        << static_cast<double>(interleaved[1].logged) /
               std::max<uint64_t>(1, interleaved[1].accesses)
        << ",\"random_pairs_ns\":" << random_pairs.ns_per_access
        << ",\"random_pairs_accesses_per_sec\":" << random_pairs.accesses_per_sec
        << ",\"intern_hit_ns\":" << intern_ns
        << ",\"block_decode_ns_per_event\":" << block_decode_ns
        << ",\"block_decode_events_per_sec\":" << 1e9 / block_decode_ns
        << ",\"frame_checksum_bytes_per_sec\":" << checksum_bytes_per_sec
        << "}\n";
  }
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --contention mode: the trace-plane coordination sweep. N producer threads
// cycle pool-acquired buffers through AppendFrame as fast as they can; the
// raw codec and small frames keep the worker side to a memcpy+append so the
// measured quantity is the coordination plane (ring lanes, credits, buffer
// free list), not compression or disk. Aggregate appends/sec and ns/append
// per thread count.

struct ContentionPoint {
  double ops_per_sec = 0;
  double ns_per_op = 0;
  uint64_t producer_blocks = 0;
};

ContentionPoint MeasureContention(uint32_t threads, uint64_t total_frames) {
  constexpr size_t kFrameBytes = 4096;
  const Compressor* codec = FindCompressor("raw");
  const uint64_t per_thread = std::max<uint64_t>(1, total_frames / threads);
  ContentionPoint best;
  // Best-of-3: contention sweeps are scheduler-noisy, and the gate cares
  // about capability (can the plane sustain the rate), not the noise floor.
  for (int rep = 0; rep < 3; rep++) {
    TempDir dir("bm-contention");
    trace::FlusherConfig fc;
    fc.async = true;
    fc.workers = 2;
    fc.max_queued_jobs = 64;
    trace::Flusher flusher(fc);
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    producers.reserve(threads);
    for (uint32_t p = 0; p < threads; p++) {
      producers.emplace_back([&, p] {
        const std::string path =
            dir.File(std::string("p").append(std::to_string(p)).append(".log"));
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (uint64_t j = 0; j < per_thread; j++) {
          Bytes buf = flusher.pool().Acquire(kFrameBytes);
          buf.resize(kFrameBytes, 0x5a);
          flusher.AppendFrame(path, std::move(buf), codec,
                              trace::kTraceFormatV2);
        }
      });
    }
    Timer t;
    go.store(true, std::memory_order_release);
    for (auto& th : producers) th.join();
    flusher.Drain();
    if (!flusher.status().ok()) std::abort();
    const double seconds = std::max(t.ElapsedSeconds(), 1e-9);
    const double ops = static_cast<double>(per_thread * threads);
    if (ops / seconds > best.ops_per_sec) {
      best.ops_per_sec = ops / seconds;
      best.ns_per_op = seconds * 1e9 / ops;
      best.producer_blocks = flusher.stats().producer_blocks;
    }
  }
  return best;
}

int RunContention(const ArgParser& args) {
  using sword::bench::Check;
  const std::string json_path = args.GetString("json", "");
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::vector<uint32_t> sweep = {2, 4, 8, 16, 24};
  // Fixed total work per point so the sweep compares aggregate throughput,
  // not per-thread quotas (divisible by every sweep width).
  const uint64_t total_frames = 1920;

  sword::bench::Banner(
      "Trace-plane contention - lock-free lanes and buffer pool",
      "lock-free coordination keeps aggregate append throughput from "
      "collapsing as producers scale");
  std::printf("hardware threads: %u\n\n", hw);

  std::vector<ContentionPoint> points;
  TextTable table({"producers", "ops/s", "ns/op", "stalls"});
  for (uint32_t threads : sweep) {
    points.push_back(MeasureContention(threads, total_frames));
    const ContentionPoint& a = points.back();
    table.AddRow({std::to_string(threads),
                  std::to_string(static_cast<uint64_t>(a.ops_per_sec)),
                  Fmt(a.ns_per_op), std::to_string(a.producer_blocks)});
  }
  table.Print();
  std::printf("\n");

  // Gate metrics. Indexes into the sweep: 8 -> [2], 16 -> [3], 24 -> [4].
  // The absolute throughput at 16 producers is gated by perf_baseline.json
  // (lockfree_ops_per_sec_16); the ratio below needs no reference box.
  const double flatness_8_24 =
      points[4].ops_per_sec / std::max(points[2].ops_per_sec, 1e-9);
  // On hosts with fewer than 4 cores there is no real parallelism: the
  // producers serialize on the scheduler and the ratio is noise, so the
  // boolean passes vacuously there (CI runners have >= 4).
  const bool scaling_ok = flatness_8_24 >= 0.5 || hw < 4;

  Check(scaling_ok,
        "aggregate throughput holds 8 -> 24 producers (" +
            FmtX(flatness_8_24, 2) + (hw < 4 ? ", waived: <4 hw threads)" : ")"));

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    auto list = [&out, &points](bool ns) {
      for (size_t i = 0; i < points.size(); i++) {
        out << (i ? "," : "") << (ns ? points[i].ns_per_op : points[i].ops_per_sec);
      }
    };
    out << "{\"bench\":\"micro_contention\",\"hw_threads\":" << hw
        << ",\"threads\":[2,4,8,16,24],\"lockfree_ops_per_sec\":[";
    list(false);
    out << "],\"lockfree_ns_per_op\":[";
    list(true);
    out << "],\"lockfree_ops_per_sec_16\":" << points[3].ops_per_sec
        << ",\"flatness_8_24\":" << flatness_8_24
        << ",\"scaling_ok\":" << (scaling_ok ? "true" : "false") << "}\n";
  }
  return scaling_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick / --contention / --json bypass google-benchmark: the perf-smoke
  // job wants deterministic measurements with machine-readable output.
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--contention") == 0) {
      sword::ArgParser args(argc, argv);
      return RunContention(args);
    }
    if (std::strcmp(argv[i], "--quick") == 0 ||
        std::strcmp(argv[i], "--json") == 0) {
      sword::ArgParser args(argc, argv);
      return RunFastPathQuick(args);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
