// Memory-system analyzer (ISSUE 10 tentpole): TLBs, finite MSHRs with a
// peak-bandwidth occupancy model, and a shared-L2 multi-core contention
// model, driven from the retired-instruction stream in one pass.
//
// Three layers on top of the ISSUE 5 hierarchy:
//
//  1. A two-level data TLB (uarch/mem/tlb.hpp) translating every demand
//     access, with per-kernel walk attribution and order-independent
//     page-set digests extending the E11 cross-ISA identity argument from
//     line sets to page sets.
//  2. Occupancy bounds over the single-core demand+prefetch traffic: with
//     M MSHRs at most M misses overlap, so cycles >= missCycles / M; with
//     a peak memory bandwidth of B bytes/cycle, cycles >= bytesMoved / B
//     (fills *and* prefetch fills *and* write-backs move bytes). The
//     engine reports both so a bench can name the binding resource in
//     max(CP, port, issue, MSHR, bandwidth).
//  3. A shared-L2 scaling model: N simulated cores with private L1s and a
//     shared L2, fed by round-robin interleaving N copies of the retired
//     stream at disjoint address offsets (the deterministic equivalent of
//     N per-core Machines running the same kernel — see DESIGN.md §16).
//     The offsets keep every private L1 a shifted copy of one L1, so the
//     analyzer walks one L1 per line and feeds each core count's shared
//     L2 from it. Per-core hit/miss/latency attribution opens 1/2/4-core
//     scaling curves with an exact miss-conservation invariant.
//
// Like every analyzer in this repo the model is a pure timing/tag layer:
// it never changes architectural state, and all counters are deterministic
// functions of the retired stream.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "isa/trace.hpp"
#include "support/flat_hash.hpp"
#include "uarch/mem/hierarchy.hpp"
#include "uarch/mem/tlb.hpp"

namespace riscmp::uarch::mem {

/// Per-kernel translation traffic and page-set identity (the page-set
/// analogue of CacheModelAnalyzer::KernelStats).
struct MemKernelStats {
  std::string name;
  std::uint64_t instructions = 0;
  std::uint64_t tlbAccesses = 0;
  std::uint64_t tlbWalks = 0;
  std::uint64_t footprintPages = 0;  ///< distinct pages touched
  std::uint64_t pageSetDigest = 0;   ///< order-independent set digest

  bool operator==(const MemKernelStats&) const = default;
};

/// One simulated core's share of a shared-L2 scaling point.
struct CoreShare {
  std::uint64_t accesses = 0;  ///< demand line accesses
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Hits = 0;
  std::uint64_t l2Misses = 0;
  std::uint64_t latencyCycles = 0;  ///< summed per-access latency

  bool operator==(const CoreShare&) const = default;
};

/// Shared-L2 contention outcome for one core count. The shared counters
/// are accumulated inside the shared-L2 path independently of the
/// per-core shares, so sum(perCore.l1Misses) == sharedL2Accesses and
/// sum(perCore.l2Misses) == sharedL2Misses are non-vacuous conservation
/// checks (E14 asserts both).
struct ScalingPoint {
  std::uint32_t cores = 1;
  std::vector<CoreShare> perCore;
  std::uint64_t sharedL2Accesses = 0;
  std::uint64_t sharedL2Hits = 0;
  std::uint64_t sharedL2Misses = 0;
  std::uint64_t sharedWritebacksToMem = 0;
  std::uint64_t bytesFromMem = 0;  ///< fills + write-backs, in bytes
  std::uint64_t bandwidthBoundCycles = 0;
  std::uint64_t mshrBoundCycles = 0;

  bool operator==(const ScalingPoint&) const = default;
};

/// Whole-program memory-system summary: TLB totals, page-set identity,
/// bytes moved, and the two single-core occupancy bounds.
struct MemSummary {
  TlbStats tlb;
  std::uint64_t footprintPages = 0;
  std::uint64_t pageSetDigest = 0;
  std::uint64_t demandFillBytes = 0;    ///< demand L2 misses x line size
  std::uint64_t prefetchFillBytes = 0;  ///< prefetch fills x line size
  std::uint64_t writebackBytes = 0;     ///< dirty spills to memory x line size
  std::uint64_t missCycles = 0;  ///< serialized L1-miss latency, no overlap
  std::uint64_t mshrBoundCycles = 0;       ///< ceil(missCycles / mshrs)
  std::uint64_t bandwidthBoundCycles = 0;  ///< ceil(totalBytes / B)

  bool operator==(const MemSummary&) const = default;

  [[nodiscard]] std::uint64_t totalBytes() const {
    return demandFillBytes + prefetchFillBytes + writebackBytes;
  }
};

class MemSystemAnalyzer final : public TraceObserver {
 public:
  /// `coreCounts` selects the shared-L2 scaling points (e.g. {1, 2, 4});
  /// duplicates and zeros are ignored. Kernel regions come from the
  /// program's symbol table exactly as in CacheModelAnalyzer. Throws
  /// ConfigError for invalid geometry and ValidationFault for overlapping
  /// kernel regions. A missing `config.tlb` falls back to TlbConfig{}
  /// defaults so page-set digests are always defined.
  MemSystemAnalyzer(const CacheConfig& config, const Program& program,
                    std::span<const unsigned> coreCounts);

  void onRetireBlock(std::span<const RetiredInst> block) override;

  /// Finalized summary with the occupancy bounds computed from the
  /// current counters (cheap; callable at any point).
  [[nodiscard]] MemSummary summary() const;
  [[nodiscard]] const std::vector<MemKernelStats>& kernels() const {
    return kernels_;
  }
  /// Scaling points in the ctor's coreCounts order, bounds filled in.
  [[nodiscard]] std::vector<ScalingPoint> scaling() const;
  [[nodiscard]] const HierarchyStats& hierarchyTotals() const {
    return hierarchy_.stats();
  }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }


 private:
  /// One core count's shared L2 and its tallies, demand-only (prefetch
  /// behaviour under contention is out of scope; see DESIGN.md §16). The
  /// cores' private L1s are the analyzer's one coreL1_ walk, shifted.
  struct SharedHierarchy {
    Cache l2;
    ScalingPoint point;

    SharedHierarchy(const CacheConfig& config, std::uint32_t cores);
    /// Each core's share of one line, in core order: on an L1 miss, the
    /// L2 access, then the write-back of the dirty L1 victim, both at the
    /// core's offset.
    void accessLine(const CacheConfig& config, std::uint64_t line,
                    bool l1Hit, const Cache::Eviction& victim);
  };

  void translate(const MemAccess& access, std::int32_t kernel);
  void accessSharedLines(const MemAccess& access, bool write);

  CacheConfig config_;
  MemoryHierarchy hierarchy_;  ///< private single-core replica for bounds
  Tlb tlb_;
  /// The one L1 walk: core `c`'s private L1 would be this one with every
  /// line shifted by `c * 2^24`, so it stands for all of them (DESIGN.md
  /// §16).
  Cache coreL1_;
  std::vector<SharedHierarchy> shared_;
  std::uint64_t instructions_ = 0;
  std::uint64_t footprintPages_ = 0;
  std::uint64_t pageSetDigest_ = 0;

  KernelMap kernelMap_;
  std::vector<MemKernelStats> kernels_;  ///< one per KernelMap slot
  /// Page membership sets: one per kernel, plus the whole program last.
  std::vector<FlatHashMap64<std::uint8_t>> pageSets_;
};

}  // namespace riscmp::uarch::mem
