// Two-level data TLB (ISSUE 10 tentpole, part 1).
//
// The cache hierarchy of ISSUE 5 models line residency but assumes free
// address translation. This class adds the translation side: an L1 DTLB
// backed by an L2 TLB, both plain set-associative LRU tag arrays reusing
// Cache keyed on virtual page numbers instead of line numbers. An access
// returns the translation latency to add on top of the cache latency:
// 0 on an L1-TLB hit, `l2Latency` on an L2-TLB hit, `walkLatency` for a
// full page walk (which fills both levels).
//
// Like the caches, the TLB is a pure timing/tag model over the virtual
// addresses the retire pipeline carries; there is no physical mapping, so
// the cross-ISA identity argument extends unchanged from line sets to
// page sets (same addresses => same pages => same walks).
#pragma once

#include <cstdint>

#include "uarch/mem/cache.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp::uarch::mem {

/// Counters for one TLB instance. Walks are L2-TLB misses; every walk
/// costs `walkLatency` cycles, accumulated in walkCycles.
struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1Hits = 0;
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Hits = 0;
  std::uint64_t walks = 0;
  std::uint64_t walkCycles = 0;

  bool operator==(const TlbStats&) const = default;
};

/// Where a translation was found.
enum class TlbLevel : std::uint8_t { L1, L2, Walk };

class Tlb {
 public:
  struct Outcome {
    TlbLevel level = TlbLevel::L1;
    std::uint32_t latency = 0;  ///< added translation cycles
  };

  /// `config` must already be validated (validateCacheConfig checks the
  /// embedded TlbConfig when present).
  explicit Tlb(const TlbConfig& config);

  /// Translate `page` (a pre-shifted virtual page number).
  Outcome access(std::uint64_t page);

  [[nodiscard]] const TlbStats& stats() const { return stats_; }
  [[nodiscard]] const TlbConfig& config() const { return config_; }

  /// Page numbers a byte access touches under this TLB's page size.
  [[nodiscard]] UnitRange pagesOf(std::uint64_t addr,
                                  std::uint32_t size) const {
    return unitsCovered(addr, size, pageShift_);
  }


 private:
  TlbConfig config_;
  std::uint32_t pageShift_;
  Cache l1_;
  Cache l2_;
  TlbStats stats_;
};

}  // namespace riscmp::uarch::mem
