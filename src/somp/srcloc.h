// Source-location interning.
//
// The LLVM pass in the paper tags every instrumented load/store with its
// program counter; race reports then map PCs back to file:line. Our
// instrumentation shim uses std::source_location instead, interned into
// dense 32-bit PcIds. Interning is on the access hot path, so each thread
// keeps a bounded cache of (file-name pointer, line, column) -> id: 256
// slots in 4-way sets, in constant-initialized TLS, so a hit is a hash and
// a few compares with no TLS init guard, and the cache never grows. A miss
// asks the shared table, which gives each site its id on the site's first
// access from any thread; the cache only remembers those ids, so ids do not
// depend on it.
#pragma once

#include <cstdint>
#include <source_location>
#include <string>

namespace sword::somp {

using PcId = uint32_t;

struct SrcLoc {
  std::string file;
  std::string function;
  uint32_t line = 0;
  uint32_t column = 0;

  /// "file.cpp:42" - what race reports print.
  std::string ToString() const;
};

/// Interns the site (`file`, `line`, `column`), returning its process-wide
/// dense id. `file` is the key by pointer, so it must stay valid and must be
/// the same pointer on every call for one site (source_location's
/// file_name() is); `function` is copied on the site's first intern only.
/// Thread-safe.
PcId InternSite(const char* file, uint32_t line, uint32_t column,
                const char* function);

/// Interns `loc` (InternSite of its fields).
inline PcId InternSrcLoc(const std::source_location& loc) {
  return InternSite(loc.file_name(), loc.line(), loc.column(), loc.function_name());
}

/// Reverse lookup; ids are never recycled. Returns a stable reference.
const SrcLoc& LookupSrcLoc(PcId id);

/// Number of interned sites (tests).
size_t SrcLocCount();

}  // namespace sword::somp
