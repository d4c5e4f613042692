#include "osl/label.h"

#include <cassert>

namespace sword::osl {

Label Label::Fork(uint32_t index, uint32_t span) const {
  assert(span >= 1 && index < span);
  std::vector<Pair> pairs = pairs_;
  pairs.push_back(Pair{index, span, 0});
  return Label(std::move(pairs));
}

Label Label::AfterBarrier() const {
  assert(!pairs_.empty());
  std::vector<Pair> pairs = pairs_;
  pairs.back().phase += 1;
  return Label(std::move(pairs));
}

Label Label::AfterJoin() const {
  assert(!pairs_.empty());
  std::vector<Pair> pairs = pairs_;
  pairs.back().offset += pairs.back().span;
  return Label(std::move(pairs));
}

Label Label::Parent() const {
  assert(pairs_.size() > 1);
  std::vector<Pair> pairs = pairs_;
  pairs.pop_back();
  return Label(std::move(pairs));
}

uint32_t Label::Lane() const {
  assert(!pairs_.empty());
  return pairs_.back().offset % pairs_.back().span;
}

uint32_t Label::Phase() const {
  assert(!pairs_.empty());
  return pairs_.back().phase;
}

uint32_t Label::Span() const {
  assert(!pairs_.empty());
  return pairs_.back().span;
}

std::string Label::ToString() const {
  std::string out;
  for (const Pair& p : pairs_) {
    out.append("[")
        .append(std::to_string(p.offset))
        .append(",")
        .append(std::to_string(p.span))
        .append("@")
        .append(std::to_string(p.phase))
        .append("]");
  }
  return out;
}

void Label::Serialize(ByteWriter& w) const {
  w.PutVarU64(pairs_.size());
  for (const Pair& p : pairs_) {
    w.PutVarU64(p.offset);
    w.PutVarU64(p.span);
    w.PutVarU64(p.phase);
  }
}

Status Label::Deserialize(ByteReader& r, Label* out) {
  uint64_t n;
  SWORD_RETURN_IF_ERROR(r.GetVarU64(&n));
  // Each pair takes at least three bytes; a larger count is damage, and
  // reserving it would throw instead of failing cleanly.
  if (n > r.remaining() / 3) return Status::Corrupt("osl: implausible label length");
  std::vector<Pair> pairs;
  pairs.reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t offset, span, phase;
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&offset));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&span));
    SWORD_RETURN_IF_ERROR(r.GetVarU64(&phase));
    if (offset > UINT32_MAX || span > UINT32_MAX || phase > UINT32_MAX) {
      return Status::Corrupt("osl: label field out of range");
    }
    if (span == 0) return Status::Corrupt("osl: zero span");
    pairs.push_back(Pair{static_cast<uint32_t>(offset), static_cast<uint32_t>(span),
                         static_cast<uint32_t>(phase)});
  }
  *out = Label(std::move(pairs));
  return Status::Ok();
}

bool Sequential(const Label& a, const Label& b) {
  const auto& pa = a.pairs();
  const auto& pb = b.pairs();

  // Find the first position where the labels differ.
  const size_t n = std::min(pa.size(), pb.size());
  size_t i = 0;
  while (i < n && pa[i] == pb[i]) i++;

  // Case 1: prefix (or equal) - ancestor ordering.
  if (i == pa.size() || i == pb.size()) return true;

  const Pair& x = pa[i];
  const Pair& y = pb[i];
  if (x.span != y.span) return false;  // cannot arise from one team instance

  // Case 2a: a team barrier separates different phases, for ANY two lanes.
  if (x.phase != y.phase) return true;

  // Case 2b: the same lane continued across nested joins (mod-span rule).
  return (x.offset % x.span) == (y.offset % y.span);
}

bool Concurrent(const Label& a, const Label& b) { return !Sequential(a, b); }

}  // namespace sword::osl
