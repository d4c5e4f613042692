// Reproduces SIII-A's buffer-size tuning: sweep the per-thread trace buffer
// and measure collection time, flush count, and bounded memory on an
// access-heavy kernel. The paper settled on ~2 MB ("easily fits within
// modern L3 caches"); the reproducible part of the claim is the trade-off
// curve: tiny buffers flush constantly, large buffers buy little and cost
// memory, and the bound is always N x (buffer + aux).
#include "bench/bench_util.h"

using namespace sword;
using namespace sword::bench;

int main() {
  Banner("SIII-A ablation - trace buffer size",
         "flush count falls ~linearly with buffer size; memory bound is "
         "N x (buffer + aux); ~2 MB is past the knee");

  const auto& w = Find("hpc", "HPCCG");
  constexpr uint64_t kSize = 6000;
  constexpr uint32_t kThreads = 8;

  TextTable table({"buffer", "dynamic time", "flushes", "trace on disk",
                   "sword memory", "races"});

  uint64_t flushes_64k = 0, flushes_2m = 0;
  bool memory_tracks_buffer = true;

  for (uint64_t kb : {16u, 64u, 256u, 1024u, 2048u, 8192u}) {
    harness::RunConfig config;
    config.tool = harness::ToolKind::kSword;
    config.params.threads = kThreads;
    config.params.size = kSize;
    config.sword.buffer_bytes = kb * 1024;
    config.sword.async_flush = false;  // keep I/O on the critical path: the knob
                                 // being measured is the flush frequency
    const auto r = harness::RunWorkload(w, config);

    table.AddRow({std::to_string(kb) + " KB", FormatSeconds(r.dynamic_seconds),
                  std::to_string(r.flushes), FormatBytes(r.log_bytes_on_disk),
                  FormatBytes(r.tool_peak_bytes), std::to_string(r.races)});

    if (kb == 64) flushes_64k = r.flushes;
    if (kb == 2048) flushes_2m = r.flushes;
    const uint64_t expected =
        kThreads * (kb * 1024 + 1340 * 1024);
    if (r.tool_peak_bytes != expected) memory_tracks_buffer = false;
  }

  table.Print();
  std::printf("\n");
  Check(flushes_64k > 8 * flushes_2m,
        "small buffers flush far more often (64 KB vs 2 MB)");
  Check(memory_tracks_buffer,
        "memory bound is exactly N x (buffer + 1.31 MB aux) at every size");
  return 0;
}
