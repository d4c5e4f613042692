#include "common/faultfs.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace sword {
namespace testing {

void FaultFile::TransientErrors(uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  transient_left_ = count;
}

void FaultFile::ShortWrites(size_t max_bytes_per_call) {
  std::lock_guard<std::mutex> lock(mu_);
  short_write_max_ = max_bytes_per_call;
}

void FaultFile::EnospcAfterBytes(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_at_ = n;
  fail_code_ = ErrorCode::kNoSpace;
}

void FaultFile::EnospcAppends(uint64_t from_call, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  storm_from_ = from_call;
  storm_count_ = count;
}

void FaultFile::FailAfterBytes(uint64_t n, ErrorCode code) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_at_ = n;
  fail_code_ = code;
}

void FaultFile::FlipBit(uint64_t stream_offset, uint8_t mask) {
  std::lock_guard<std::mutex> lock(mu_);
  flips_.push_back({stream_offset, mask});
}

void FaultFile::TruncateAfterBytes(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  truncate_at_ = n;
}

void FaultFile::SlowAppends(uint32_t usec, uint64_t from_call, uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_usec_ = usec;
  slow_from_ = from_call;
  slow_count_ = count;
}

void FaultFile::SyncTransientErrors(uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  sync_transient_left_ = count;
}

void FaultFile::RaiseAtAppend(int signo, uint64_t nth_call) {
  std::lock_guard<std::mutex> lock(mu_);
  raise_signo_ = signo;
  raise_at_call_ = nth_call;
}

void FaultFile::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  transient_left_ = 0;
  short_write_max_ = 0;
  fail_at_ = UINT64_MAX;
  fail_code_ = ErrorCode::kNoSpace;
  storm_from_ = 0;
  storm_count_ = 0;
  truncate_at_ = UINT64_MAX;
  slow_usec_ = 0;
  slow_from_ = 0;
  slow_count_ = 0;
  sync_transient_left_ = 0;
  raise_signo_ = 0;
  raise_at_call_ = 0;
  flips_.clear();
  bytes_written_ = 0;
  bytes_lost_ = 0;
  append_calls_ = 0;
  sync_calls_ = 0;
  fired_ = 0;
}

uint64_t FaultFile::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

uint64_t FaultFile::bytes_lost() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_lost_;
}

uint64_t FaultFile::append_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_calls_;
}

uint64_t FaultFile::sync_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_calls_;
}

uint32_t FaultFile::fired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

Status FaultFile::Append(const std::string& path, const uint8_t* data,
                         size_t n, size_t* written) {
  uint32_t sleep_usec = 0;
  int raise_signo = 0;
  uint64_t call = 0;
  {
    // Decide call-numbered faults under the lock, act on them outside it: a
    // raised signal can run a handler (crash drain, sealer) that re-enters
    // this backend, and sleeping here would serialize unrelated lanes.
    std::lock_guard<std::mutex> lock(mu_);
    call = ++append_calls_;
    if (slow_count_ > 0 && call >= slow_from_ && call < slow_from_ + slow_count_) {
      sleep_usec = slow_usec_;
      fired_ |= kFaultSlow;
    }
    if (raise_signo_ != 0 && call == raise_at_call_) {
      raise_signo = raise_signo_;
      raise_signo_ = 0;
      fired_ |= kFaultRaise;
    }
  }
  if (sleep_usec > 0) ::usleep(sleep_usec);
  if (raise_signo != 0) ::raise(raise_signo);

  std::lock_guard<std::mutex> lock(mu_);
  *written = 0;

  if (transient_left_ > 0) {
    --transient_left_;
    fired_ |= kFaultTransient;
    return Status::Unavailable("injected transient error: " + path);
  }
  // The storm window is tested against this call's own number: a
  // concurrent append between the two locked sections has already bumped
  // append_calls_, and reading it here would let both calls skip a
  // one-call window.
  if (storm_count_ > 0 && call >= storm_from_ && call < storm_from_ + storm_count_) {
    fired_ |= kFaultEnospcStorm;
    return Status::NoSpace("injected ENOSPC storm: " + path);
  }

  size_t allow = n;
  bool fail_after = false;
  if (bytes_written_ + allow > fail_at_) {
    // Write only the prefix that fits below the failure threshold.
    allow = fail_at_ > bytes_written_
                ? static_cast<size_t>(fail_at_ - bytes_written_)
                : 0;
    fail_after = true;
    fired_ |= kFaultFailAtBytes;
  }
  bool short_after = false;
  if (short_write_max_ > 0 && allow > short_write_max_) {
    allow = short_write_max_;
    short_after = true;
    fired_ |= kFaultShortWrite;
  }

  // Apply bit flips inside the window, then split around the truncation
  // threshold: bytes below it are forwarded, bytes above are swallowed but
  // still reported as written.
  Bytes chunk(data, data + allow);
  for (const BitFlip& f : flips_) {
    if (f.offset >= bytes_written_ && f.offset < bytes_written_ + allow) {
      chunk[static_cast<size_t>(f.offset - bytes_written_)] ^= f.mask;
      fired_ |= kFaultFlip;
    }
  }
  size_t forward = chunk.size();
  if (bytes_written_ + forward > truncate_at_) {
    forward = truncate_at_ > bytes_written_
                  ? static_cast<size_t>(truncate_at_ - bytes_written_)
                  : 0;
  }

  if (forward > 0) {
    size_t got = 0;
    Status st = base_->Append(path, chunk.data(), forward, &got);
    *written = got;
    bytes_written_ += got;
    if (!st.ok() || got < forward) return st;
  }
  // Swallowed tail: pretend it was written.
  const size_t swallowed = chunk.size() - forward;
  if (swallowed > 0) fired_ |= kFaultTruncate;
  *written += swallowed;
  bytes_written_ += swallowed;
  bytes_lost_ += swallowed;

  if (fail_after) {
    if (fail_code_ == ErrorCode::kNoSpace) {
      return Status::NoSpace("injected ENOSPC: " + path);
    }
    return Status(fail_code_, "injected failure: " + path);
  }
  if (short_after) return Status::Ok();  // short success; caller continues
  return Status::Ok();
}

Status FaultFile::WriteWhole(const std::string& path, const Bytes& data) {
  // Whole-file writes (meta checkpoints) bypass the byte-stream faults --
  // they model a different file. Only the transient knob applies, so tests
  // can exercise checkpoint failure too.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (transient_left_ > 0) {
      --transient_left_;
      fired_ |= kFaultTransient;
      return Status::Unavailable("injected transient error: " + path);
    }
  }
  return base_->WriteWhole(path, data);
}

Status FaultFile::Rename(const std::string& from, const std::string& to) {
  return base_->Rename(from, to);
}

Status FaultFile::Truncate(const std::string& path, uint64_t size) {
  // The cumulative stream position deliberately does NOT rewind: a disk
  // that hit ENOSPC stays full after the roll-back truncation, so retries
  // keep failing at offset zero until the test lifts the threshold.
  return base_->Truncate(path, size);
}

Status FaultFile::Sync(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sync_calls_;
    if (sync_transient_left_ > 0) {
      --sync_transient_left_;
      fired_ |= kFaultSyncTransient;
      return Status::Unavailable("injected fsync EINTR: " + path);
    }
  }
  return base_->Sync(path);
}

// ------------------------------------------------------------------ FaultPlan

void FaultPlan::ApplyTo(FaultFile& file) const {
  if (transient) file.TransientErrors(transient);
  if (sync_transient) file.SyncTransientErrors(sync_transient);
  if (short_writes) file.ShortWrites(short_writes);
  if (enospc_after_bytes != UINT64_MAX) file.EnospcAfterBytes(enospc_after_bytes);
  if (io_fail_after_bytes != UINT64_MAX) {
    file.FailAfterBytes(io_fail_after_bytes, ErrorCode::kIoError);
  }
  if (storm_count) file.EnospcAppends(storm_from, storm_count);
  if (truncate_after_bytes != UINT64_MAX) {
    file.TruncateAfterBytes(truncate_after_bytes);
  }
  if (flip_offset != UINT64_MAX) file.FlipBit(flip_offset, flip_mask);
  if (slow_count) file.SlowAppends(slow_usec, slow_from, slow_count);
  if (raise_signo) file.RaiseAtAppend(raise_signo, raise_at_call);
}

uint32_t FaultPlan::kinds() const {
  uint32_t k = 0;
  if (transient) k |= kFaultTransient;
  if (sync_transient) k |= kFaultSyncTransient;
  if (short_writes) k |= kFaultShortWrite;
  if (enospc_after_bytes != UINT64_MAX || io_fail_after_bytes != UINT64_MAX) {
    k |= kFaultFailAtBytes;
  }
  if (storm_count) k |= kFaultEnospcStorm;
  if (truncate_after_bytes != UINT64_MAX) k |= kFaultTruncate;
  if (flip_offset != UINT64_MAX) k |= kFaultFlip;
  if (slow_count) k |= kFaultSlow;
  if (raise_signo) k |= kFaultRaise;
  if (alloc_fail_count) k |= kFaultAllocFail;
  return k;
}

namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

/// "F+C" window → (from, count); a bare "F" means count = 1.
bool ParseWindow(const std::string& s, uint64_t* from, uint64_t* count) {
  const size_t plus = s.find('+');
  if (plus == std::string::npos) {
    if (!ParseU64(s, from)) return false;
    *count = 1;
    return true;
  }
  return ParseU64(s.substr(0, plus), from) &&
         ParseU64(s.substr(plus + 1), count);
}

int SignalFromName(const std::string& name) {
  if (name == "segv") return SIGSEGV;
  if (name == "bus") return SIGBUS;
  if (name == "abrt") return SIGABRT;
  if (name == "fpe") return SIGFPE;
  if (name == "ill") return SIGILL;
  if (name == "term") return SIGTERM;
  if (name == "int") return SIGINT;
  return 0;
}

uint64_t Splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Expands `seed=N` into a deterministic fault mix. The same N always makes
/// the same plan, so a CI failure replays from the plan string alone.
void ExpandSeed(uint64_t seed, FaultPlan* plan) {
  uint64_t s = seed * 0x2545f4914f6cdd1dull + 0x9e3779b97f4a7c15ull;
  const uint64_t kinds = Splitmix64(s) % 3 + 1;  // 1..3 faults per seed
  for (uint64_t i = 0; i < kinds; ++i) {
    switch (Splitmix64(s) % 6) {
      case 0:
        plan->transient = 1 + Splitmix64(s) % 4;
        break;
      case 1:
        plan->short_writes = 64 << (Splitmix64(s) % 5);
        break;
      case 2:
        plan->enospc_after_bytes = 1024 + Splitmix64(s) % (64 * 1024);
        break;
      case 3:
        plan->storm_from = 2 + Splitmix64(s) % 8;
        plan->storm_count = 2 + Splitmix64(s) % 8;
        break;
      case 4:
        plan->slow_usec = 500 + Splitmix64(s) % 2000;
        plan->slow_from = 1 + Splitmix64(s) % 4;
        plan->slow_count = 4 + Splitmix64(s) % 8;
        break;
      case 5:
        plan->sync_transient = 1 + Splitmix64(s) % 3;
        break;
    }
  }
}

}  // namespace

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  plan.spec = spec;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(";,", pos);
    if (end == std::string::npos) end = spec.size();
    const std::string op = spec.substr(pos, end - pos);
    pos = end + 1;
    if (op.empty()) continue;

    const size_t eq = op.find('=');
    const size_t at = op.find('@');
    const std::string name = op.substr(0, std::min(eq, at));
    const auto bad = [&op]() {
      return Status::Invalid("bad fault-plan op: " + op);
    };

    if (name == "transient") {
      uint64_t v;
      if (eq == std::string::npos || !ParseU64(op.substr(eq + 1), &v)) return bad();
      plan.transient = static_cast<uint32_t>(v);
    } else if (name == "sync_fail") {
      uint64_t v;
      if (eq == std::string::npos || !ParseU64(op.substr(eq + 1), &v)) return bad();
      plan.sync_transient = static_cast<uint32_t>(v);
    } else if (name == "short") {
      uint64_t v;
      if (eq == std::string::npos || !ParseU64(op.substr(eq + 1), &v)) return bad();
      plan.short_writes = static_cast<size_t>(v);
    } else if (name == "enospc") {
      if (at == std::string::npos || !ParseU64(op.substr(at + 1), &plan.enospc_after_bytes)) {
        return bad();
      }
    } else if (name == "io") {
      if (at == std::string::npos || !ParseU64(op.substr(at + 1), &plan.io_fail_after_bytes)) {
        return bad();
      }
    } else if (name == "enospc_calls") {
      if (at == std::string::npos ||
          !ParseWindow(op.substr(at + 1), &plan.storm_from, &plan.storm_count)) {
        return bad();
      }
    } else if (name == "trunc") {
      if (at == std::string::npos || !ParseU64(op.substr(at + 1), &plan.truncate_after_bytes)) {
        return bad();
      }
    } else if (name == "flip") {
      // flip=OFFSET:MASK (mask decimal; 0 < mask < 256)
      if (eq == std::string::npos) return bad();
      const std::string rest = op.substr(eq + 1);
      const size_t colon = rest.find(':');
      uint64_t off, mask;
      if (colon == std::string::npos || !ParseU64(rest.substr(0, colon), &off) ||
          !ParseU64(rest.substr(colon + 1), &mask) || mask == 0 || mask > 255) {
        return bad();
      }
      plan.flip_offset = off;
      plan.flip_mask = static_cast<uint8_t>(mask);
    } else if (name == "slow") {
      // slow=USEC@FROM+COUNT
      if (eq == std::string::npos || at == std::string::npos || at < eq) return bad();
      uint64_t usec;
      if (!ParseU64(op.substr(eq + 1, at - eq - 1), &usec) ||
          !ParseWindow(op.substr(at + 1), &plan.slow_from, &plan.slow_count)) {
        return bad();
      }
      plan.slow_usec = static_cast<uint32_t>(usec);
    } else if (name == "raise") {
      // raise=SIG@NTH
      if (eq == std::string::npos || at == std::string::npos || at < eq) return bad();
      const int signo = SignalFromName(op.substr(eq + 1, at - eq - 1));
      if (signo == 0 || !ParseU64(op.substr(at + 1), &plan.raise_at_call)) return bad();
      plan.raise_signo = signo;
    } else if (name == "alloc_fail") {
      if (at == std::string::npos ||
          !ParseWindow(op.substr(at + 1), &plan.alloc_fail_from,
                       &plan.alloc_fail_count)) {
        return bad();
      }
    } else if (name == "read_transient") {
      uint64_t v;
      if (eq == std::string::npos || !ParseU64(op.substr(eq + 1), &v)) return bad();
      plan.read_transient = static_cast<uint32_t>(v);
    } else if (name == "read_fail") {
      // read_fail@FROM+COUNT (ingest read calls, 1-based)
      if (at == std::string::npos ||
          !ParseWindow(op.substr(at + 1), &plan.read_fail_from,
                       &plan.read_fail_count)) {
        return bad();
      }
    } else if (name == "read_slow") {
      // read_slow=USEC@FROM+COUNT
      if (eq == std::string::npos || at == std::string::npos || at < eq) return bad();
      uint64_t usec;
      if (!ParseU64(op.substr(eq + 1, at - eq - 1), &usec) ||
          !ParseWindow(op.substr(at + 1), &plan.read_slow_from,
                       &plan.read_slow_count)) {
        return bad();
      }
      plan.read_slow_usec = static_cast<uint32_t>(usec);
    } else if (name == "seed") {
      uint64_t v;
      if (eq == std::string::npos || !ParseU64(op.substr(eq + 1), &v)) return bad();
      ExpandSeed(v, &plan);
    } else {
      return bad();
    }
  }
  return plan;
}

}  // namespace testing
}  // namespace sword
