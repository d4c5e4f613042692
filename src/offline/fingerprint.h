// Segment-stream fingerprints for repeated-subtrace memoization.
//
// Region-heavy OpenMP programs (LULESH runs ~300k near-identical regions)
// produce huge numbers of (thread, label) groups whose DECODED event streams
// are byte-for-byte equal: same access pattern, same pcs, same locksets,
// different label. The analyzer fingerprints every group's canonical event
// stream while it is being decoded anyway; groups with equal fingerprints
// inside a bucket share one frozen interval set, and concurrent pairs whose
// ordered fingerprint pair was already checked replay the first pair's
// verdicts by reference (offline/analysis.cpp).
//
// The fingerprint covers exactly the inputs that determine a group's frozen
// set and race verdicts: each segment's initial lockset (meta-recovered) and
// every decoded event's kind/flags/size/pc/address geometry - the POST-delta
// canonical stream, not the raw frame bytes (delta state is frame-position
// dependent, so equal streams can have unequal encodings). MutexSetTable
// interning is content-addressed, so equal streams summarize to equal
// mutex-set ids regardless of which group was decoded first.
//
// 128 bits of well-mixed state: two independent splitmix64 chains. A
// collision would silently merge two distinct subtraces, so the width is
// chosen to make that probability negligible (~2^-64 even at billions of
// segments), and the property tests cross-check dedup'd output against the
// memoization-free path.
//
// Each event enters each chain through ONE mix of a per-event digest. The
// digests depend on the event alone, so MixBlock computes them off the
// serial chain, and a stream folds to the same value however it is cut
// into blocks. Each half's digest is injective in every event field while
// the others stay fixed, and the two halves combine the fields differently,
// so two distinct events collide in both only by chance.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "trace/event.h"

namespace sword::offline {

struct SegmentFingerprint {
  // Fractional bits of sqrt(2) and sqrt(3): nothing-up-my-sleeve seeds (the
  // digest keys in MixBlock are fractional bits of pi).
  uint64_t a = 0x6a09e667f3bcc908ULL;
  uint64_t b = 0xbb67ae8584caa73bULL;

  static uint64_t Mix64(uint64_t h) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

  void Mix(uint64_t v) {
    a = Mix64(a ^ v);
    b = Mix64(b + v + 0x9e3779b97f4a7c15ULL);
  }

  /// Folds decoded events, in order. Mutex events contribute their lock id;
  /// runs contribute their full (base, stride, count) geometry. Every
  /// decoder writes stride 0 and count 1 for events that are not runs, so
  /// the run terms need no branch.
  void MixBlock(std::span<const trace::RawEvent> events) {
    uint64_t x = a, y = b;
    for (const trace::RawEvent& e : events) {
      const uint64_t head = (static_cast<uint64_t>(e.kind) << 48) |
                            (static_cast<uint64_t>(e.flags) << 40) |
                            (static_cast<uint64_t>(e.size) << 32) | e.pc;
      // With head and address fixed, the two run terms collide only for
      // strides and counts that both differ by 2^63: K3 * K4 = 3 mod 4.
      const uint64_t da = Mix64(head ^ 0x243f6a8885a308d3ULL) ^ e.addr ^
                          (e.stride * 0xa4093822299f31d1ULL + e.count);
      const uint64_t db = Mix64(e.addr ^ 0x13198a2e03707344ULL) + head +
                          (e.count * 0x082efa98ec4e6c8bULL + e.stride);
      x = Mix64(x ^ da);
      y = Mix64(y + db + 0x9e3779b97f4a7c15ULL);
    }
    a = x;
    b = y;
  }

  /// Marks a segment boundary and folds its meta-recovered initial lockset
  /// (sorted lock-id content). Two groups concatenating the same events
  /// across DIFFERENT segment boundaries must not collide.
  template <typename LockIdRange>
  void BeginSegment(const LockIdRange& lockset) {
    Mix(0x5345474dULL);  // "SEGM"
    uint64_t n = 0;
    for (const auto id : lockset) {
      Mix(static_cast<uint64_t>(id));
      n++;
    }
    Mix(n);
  }

  std::string Hex() const {
    char buf[36];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b));
    return buf;
  }

  friend bool operator==(const SegmentFingerprint&,
                         const SegmentFingerprint&) = default;
  friend bool operator<(const SegmentFingerprint& x, const SegmentFingerprint& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }
};

}  // namespace sword::offline
