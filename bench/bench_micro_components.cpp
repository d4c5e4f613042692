// Google-benchmark microbenchmarks for the performance-critical components:
// per-access costs (trace append, shadow check), summary operations
// (StreamingSetBuilder appends, frozen-set queries), OSL judgments,
// Diophantine/ILP solves, codec throughput, and vector-clock joins. These are the constants behind every macro number in the tables.
//
// Three modes:
//   (default)            the google-benchmark suite below
//   --quick [--json F]   the online fast-path microbench: per-access ns on
//                        strided-sweep and reduction workloads, format v3
//                        default vs ablation (no filter, no coalescer) vs
//                        v2, with suppressed/coalesced counters. This is the
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
#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/args.h"
#include "common/table.h"

#include "common/rng.h"
#include "compress/compressor.h"
#include "hb/shadow.h"
#include "hb/vectorclock.h"
#include "ilp/diophantine.h"
#include "ilp/overlap.h"
#include "itree/frozen_set.h"
#include "itree/streaming_builder.h"
#include "osl/label.h"
#include "somp/instr.h"
#include "somp/runtime.h"
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
    ByteReader r(buffer);
    trace::EventCodecState dec_state;
    trace::RawEvent e;
    uint64_t n = 0;
    while (!r.AtEnd()) {
      if (!trace::DecodeEventV2(r, dec_state, &e).ok()) std::abort();
      n++;
    }
    benchmark::DoNotOptimize(n);
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
    ByteReader r(buffer);
    trace::EventCodecState dec_state;
    trace::RawEvent e;
    uint64_t accesses = 0;
    while (!r.AtEnd()) {
      if (!trace::DecodeEventV3(r, dec_state, &e).ok()) std::abort();
      accesses += e.count;
    }
    benchmark::DoNotOptimize(accesses);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRuns * kCount);
  state.counters["bytes_per_access"] =
      benchmark::Counter(static_cast<double>(buffer.size()) / (kRuns * kCount));
}
BENCHMARK(BM_EventDecodeV3Run);

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
  state.SetLabel("v" + std::to_string(state.range(0)));
}
BENCHMARK(BM_TraceAppend)
    ->Arg(trace::kTraceFormatV1)
    ->Arg(trace::kTraceFormatV2)
    ->Arg(trace::kTraceFormatV3);

void BM_TraceAppendAccess(benchmark::State& state) {
  // The instrumented-access fast path on a strided sweep: format v3 with the
  // duplicate filter + coalescer (arg 1) vs the same format with both
  // ablated (arg 0). The gap is the per-access win the online tentpole
  // claims; the --quick mode gates it in CI.
  const bool fast = state.range(0) != 0;
  TempDir dir("bm-appendaccess");
  trace::Flusher flusher(/*async=*/true);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.format = trace::kTraceFormatV3;
  wc.access_filter = fast;
  wc.coalesce = fast;
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
  state.SetLabel(fast ? "filter+coalesce" : "ablated");
}
BENCHMARK(BM_TraceAppendAccess)->Arg(0)->Arg(1);

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
        const std::string path = dir.File("p" + std::to_string(p) + ".log");
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

void BM_ItreeQuery(benchmark::State& state) {
  Rng rng(5);
  itree::AccessKey key;
  key.pc = 1;
  std::vector<itree::AccessNode> nodes;
  for (int i = 0; i < 100000; i++) {
    const ilp::StridedInterval iv{0x100000 + rng.Below(1 << 24), 8,
                                  1 + rng.Below(16), 8};
    nodes.push_back({iv, key, iv.count});
  }
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const itree::AccessNode& l, const itree::AccessNode& r) {
                     return l.interval.lo() < r.interval.lo();
                   });
  const itree::FrozenIntervalSet set =
      itree::FrozenIntervalSet::FromSorted(std::move(nodes));
  for (auto _ : state) {
    const uint64_t lo = 0x100000 + rng.Below(1 << 24);
    uint64_t found = 0;
    set.QueryRange(lo, lo + 256, [&](uint32_t) {
      found++;
      return true;
    });
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ItreeQuery);

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
  const bool use_ilp = state.range(0) != 0;
  const ilp::OverlapEngine engine =
      use_ilp ? ilp::OverlapEngine::kIlp : ilp::OverlapEngine::kDiophantine;
  const ilp::StridedInterval a{10, 8, 500, 4};
  const ilp::StridedInterval b{14, 8, 500, 4};  // Fig. 4: no intersection
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::Intersect(a, b, engine));
  }
  state.SetItemsProcessed(state.iterations());
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
//                   iteration - the accumulator re-accesses are duplicate-
//                   filter territory, and suppressing them is also what
//                   keeps the a[i] run unbroken;
//   interleaved     a loop body of 2 or 4 strided store sites, one access
//                   each per iteration - per-site coalescer territory (each
//                   site folds into one run). Reported only, not gated.
// Each gated shape runs under format v3 default, v3 with filter+coalescer ablated,
// and v2, so the JSON carries both the speedup ratio (machine-independent)
// and absolute accesses/sec (floor-gated with tolerance).

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

enum class SweepShape { kStrided, kReduction, kInterleaved };

SweepMetrics MeasureSweep(SweepShape shape, uint8_t format, bool filter,
                          bool coalesce, uint64_t sweeps, uint64_t elems,
                          uint32_t sites = 1) {
  TempDir dir("bm-fastpath");
  trace::Flusher flusher(/*async=*/false);
  trace::WriterConfig wc;
  wc.log_path = dir.File("t.log");
  wc.meta_path = dir.File("t.meta");
  wc.flusher = &flusher;
  wc.codec = FindCompressor("raw");  // measure the format, not the codec
  wc.format = format;
  wc.access_filter = filter;
  wc.coalesce = coalesce;
  SweepMetrics m;
  {
    trace::ThreadTraceWriter writer(0, wc);
    trace::IntervalMeta meta;
    meta.label = osl::Label::Initial().Fork(0, 2);
    writer.BeginSegment(meta);
    constexpr uint64_t kBase = 0x100000;
    constexpr uint64_t kAcc = 0x80000;  // the reduction accumulator
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
      "Online fast path - per-access cost, v3 default vs ablation",
      "duplicate filtering + strided-run coalescing >= 2x per-access "
      "throughput on sweep loops, at fewer logged bytes");

  struct Row {
    const char* name;
    SweepMetrics m;
  };
  auto measure = [&](SweepShape shape) {
    return std::vector<Row>{
        {"v3 default", MeasureSweep(shape, trace::kTraceFormatV3, true, true,
                                    sweeps, elems)},
        {"v3 ablated", MeasureSweep(shape, trace::kTraceFormatV3, false, false,
                                    sweeps, elems)},
        {"v2", MeasureSweep(shape, trace::kTraceFormatV2, false, false, sweeps,
                            elems)},
    };
  };

  SweepMetrics strided_default, strided_ablated, reduction_default,
      reduction_ablated;
  for (const SweepShape shape : {SweepShape::kStrided, SweepShape::kReduction}) {
    const bool is_strided = shape == SweepShape::kStrided;
    TextTable table({is_strided ? "strided sweep" : "reduction loop",
                     "per-access ns", "accesses/s", "events logged",
                     "suppressed", "coalesced", "runs", "log bytes"});
    for (const Row& row : measure(shape)) {
      table.AddRow({row.name, Fmt(row.m.ns_per_access),
                    std::to_string(static_cast<uint64_t>(row.m.accesses_per_sec)),
                    std::to_string(row.m.logged),
                    std::to_string(row.m.suppressed),
                    std::to_string(row.m.coalesced), std::to_string(row.m.runs),
                    std::to_string(row.m.log_bytes)});
      if (std::strcmp(row.name, "v3 default") == 0) {
        (is_strided ? strided_default : reduction_default) = row.m;
      } else if (std::strcmp(row.name, "v3 ablated") == 0) {
        (is_strided ? strided_ablated : reduction_ablated) = row.m;
      }
    }
    table.Print();
    std::printf("\n");
  }

  // Interleaved sites: a per-access cost and how many events each access
  // costs in the log, for the v3 default (each site folds into one run per
  // sweep) and the ablated writer (one event per access).
  SweepMetrics interleaved[2];
  {
    TextTable table({"interleaved sites", "per-access ns", "accesses/s",
                     "events logged", "events/access", "runs", "log bytes"});
    const uint32_t kSiteCounts[2] = {2, 4};
    for (int k = 0; k < 2; k++) {
      const uint32_t sites = kSiteCounts[k];
      for (const bool ablated : {false, true}) {
        const SweepMetrics m =
            MeasureSweep(SweepShape::kInterleaved, trace::kTraceFormatV3,
                         !ablated, !ablated, sweeps / sites, elems, sites);
        if (!ablated) interleaved[k] = m;
        table.AddRow({std::to_string(sites) + " sites, v3 " +
                          (ablated ? "ablated" : "default"),
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

  const double strided_speedup =
      strided_ablated.ns_per_access / std::max(strided_default.ns_per_access, 1e-9);
  const double reduction_speedup = reduction_ablated.ns_per_access /
                                   std::max(reduction_default.ns_per_access, 1e-9);
  const double bytes_default =
      static_cast<double>(strided_default.log_bytes) /
      std::max<uint64_t>(1, strided_default.accesses);
  const double bytes_ablated =
      static_cast<double>(strided_ablated.log_bytes) /
      std::max<uint64_t>(1, strided_ablated.accesses);

  Check(strided_speedup >= 2.0,
        "strided sweep >= 2x per-access throughput (" +
            FmtX(strided_speedup, 1) + ")");
  Check(reduction_speedup >= 2.0,
        "reduction loop >= 2x per-access throughput (" +
            FmtX(reduction_speedup, 1) + ")");
  Check(strided_default.log_bytes * 10 < strided_ablated.log_bytes,
        "coalesced log >= 10x smaller on sweeps (" +
            FormatBytes(strided_default.log_bytes) + " vs " +
            FormatBytes(strided_ablated.log_bytes) + ")");
  Check(reduction_default.suppressed > 0 && strided_default.coalesced > 0,
        "both fast-path mechanisms engaged (suppressed=" +
            std::to_string(reduction_default.suppressed) +
            ", coalesced=" + std::to_string(strided_default.coalesced) + ")");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\"bench\":\"micro_components\",\"quick\":"
        << (quick ? "true" : "false")
        << ",\"strided_default_ns\":" << strided_default.ns_per_access
        << ",\"strided_ablated_ns\":" << strided_ablated.ns_per_access
        << ",\"reduction_default_ns\":" << reduction_default.ns_per_access
        << ",\"reduction_ablated_ns\":" << reduction_ablated.ns_per_access
        << ",\"fast_path_speedup\":" << strided_speedup
        << ",\"reduction_speedup\":" << reduction_speedup
        << ",\"default_accesses_per_sec\":" << strided_default.accesses_per_sec
        << ",\"events_suppressed\":" << reduction_default.suppressed
        << ",\"events_coalesced\":" << strided_default.coalesced
        << ",\"runs_emitted\":" << strided_default.runs
        << ",\"bytes_per_access_default\":" << bytes_default
        << ",\"bytes_per_access_ablated\":" << bytes_ablated
        << ",\"interleaved2_ns\":" << interleaved[0].ns_per_access
        << ",\"interleaved4_ns\":" << interleaved[1].ns_per_access
        << ",\"interleaved2_events_per_access\":"
        << static_cast<double>(interleaved[0].logged) /
               std::max<uint64_t>(1, interleaved[0].accesses)
        << ",\"interleaved4_events_per_access\":"
        << static_cast<double>(interleaved[1].logged) /
               std::max<uint64_t>(1, interleaved[1].accesses)
        << "}\n";
  }
  return (strided_speedup >= 2.0 && reduction_speedup >= 2.0) ? 0 : 1;
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
        const std::string path = dir.File("p" + std::to_string(p) + ".log");
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
