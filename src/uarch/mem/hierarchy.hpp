// Config-driven L1D + unified L2 memory hierarchy (ISSUE 5 tentpole).
//
// The paper's scaled critical-path and OoO models use one flat LOAD latency
// from the core-model YAML (§5.1) and explicitly leave real memory
// behaviour out of scope (§6.1). This hierarchy is the next analysis layer:
// a set-associative, write-back/write-allocate L1D backed by a unified L2,
// with an optional address-stream prefetcher, driven by the addresses the
// retire pipeline already carries in RetiredInst::loads/stores.
//
// Geometry, latencies, and the prefetcher come from the `caches:` section
// of the core-model YAML (parsed and validated in core_model.cpp). The
// class itself is a pure timing/tag model: every access returns the level
// it hit and the resulting load-to-use latency, and accumulates the global
// hit/miss/write-back/prefetch counters the E11 report aggregates.
//
// This header is the one home of the cache rules every analyzer shares:
// the record walk (MemoryHierarchy::retire), the lines or pages a byte
// access covers (unitsCovered), the non-inclusive L2 fill and write-back
// (fillL2, writeBackToL2), and the footprint-set digest (insertFootprint).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "isa/trace.hpp"
#include "support/bits.hpp"
#include "support/flat_hash.hpp"
#include "uarch/mem/cache.hpp"
#include "uarch/mem/prefetcher.hpp"

namespace riscmp::uarch::mem {

/// log2 of a power-of-two unit size (line or page bytes): the shift from
/// a byte address to its unit number.
inline std::uint32_t shiftFor(std::uint64_t unitBytes) {
  std::uint32_t shift = 0;
  while ((std::uint64_t{1} << shift) < unitBytes) ++shift;
  return shift;
}

/// Inclusive range of unit numbers (cache lines or pages).
struct UnitRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};

/// The units of `1 << shift` bytes that a byte access covers: an access
/// straddling a boundary covers both sides, and a zero-size access still
/// touches the unit of its address.
inline UnitRange unitsCovered(std::uint64_t addr, std::uint32_t size,
                              std::uint32_t shift) {
  return {addr >> shift,
          (addr + std::max<std::uint64_t>(size, 1) - 1) >> shift};
}

/// Geometry and hit latency of one cache level. Sizes are bytes so tests
/// can build tiny (sub-KiB) caches; the YAML loader converts `size_kib`.
struct LevelConfig {
  std::uint64_t sizeBytes = 0;
  std::uint32_t ways = 0;
  std::uint32_t latency = 0;  ///< load-to-use cycles on a hit at this level

  bool operator==(const LevelConfig&) const = default;
};

/// The `tlb:` subsection of a `caches:` section: a two-level data TLB
/// keyed on virtual page numbers. Entry counts are total entries; the set
/// count (entries / ways) must be a power of two, so a fully-associative
/// level is written entries == ways.
struct TlbConfig {
  std::uint32_t pageBytes = 4096;
  std::uint32_t l1Entries = 48;
  std::uint32_t l1Ways = 48;  ///< == l1Entries -> fully associative
  std::uint32_t l2Entries = 1024;
  std::uint32_t l2Ways = 8;
  std::uint32_t l2Latency = 5;    ///< added cycles on an L1-TLB miss
  std::uint32_t walkLatency = 30; ///< added cycles on a full page walk

  bool operator==(const TlbConfig&) const = default;

  [[nodiscard]] std::uint32_t l1Sets() const { return l1Entries / l1Ways; }
  [[nodiscard]] std::uint32_t l2Sets() const { return l2Entries / l2Ways; }
};

/// The `caches:` section of a core-model YAML. Defaults mirror the
/// TX2-like geometry the configs ship (32 KiB/8-way L1D, 256 KiB/8-way
/// unified L2, 64 B lines).
struct CacheConfig {
  std::uint32_t lineBytes = 64;
  LevelConfig l1d{32 * 1024, 8, 4};
  LevelConfig l2{256 * 1024, 8, 12};
  std::uint32_t memoryLatency = 80;
  PrefetchKind prefetch = PrefetchKind::None;
  /// Miss-level parallelism and memory bandwidth for the occupancy bounds
  /// (ISSUE 10): how many outstanding misses overlap, and how many bytes
  /// per cycle the memory interface sustains at peak.
  std::uint32_t mshrs = 8;
  std::uint32_t memBytesPerCycle = 16;
  std::optional<TlbConfig> tlb;

  bool operator==(const CacheConfig&) const = default;

  [[nodiscard]] std::uint32_t l1Sets() const {
    return static_cast<std::uint32_t>(l1d.sizeBytes / (std::uint64_t{lineBytes} * l1d.ways));
  }
  [[nodiscard]] std::uint32_t l2Sets() const {
    return static_cast<std::uint32_t>(l2.sizeBytes / (std::uint64_t{lineBytes} * l2.ways));
  }
};

/// Validate geometry the way core_model.cpp does for YAML documents, but
/// for programmatically-built configs: throws riscmp::ConfigError (no
/// file/line provenance) on zero ways, non-power-of-two line size or set
/// counts, sizes not divisible into whole sets, or an L2 smaller than L1.
void validateCacheConfig(const CacheConfig& config);

/// Where a demand access was satisfied.
enum class HitLevel : std::uint8_t { L1, L2, Memory };

/// Outcome of one demand load/store: the worst level any touched line had
/// to reach (an access straddling a line boundary probes every line it
/// covers), the resulting latency, and how many lines missed at each level
/// so per-kernel MPKI attribution stays exact for straddling accesses.
struct AccessOutcome {
  HitLevel level = HitLevel::L1;
  std::uint32_t latency = 0;
  std::uint32_t l1LineMisses = 0;
  std::uint32_t l2LineMisses = 0;
};

/// Whole-hierarchy counters (demand traffic only; prefetch fills are
/// tracked separately and never count as demand hits or misses).
struct HierarchyStats {
  std::uint64_t loads = 0;   ///< demand load accesses (per MemAccess record)
  std::uint64_t stores = 0;  ///< demand store accesses
  std::uint64_t l1Hits = 0;
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Hits = 0;
  std::uint64_t l2Misses = 0;  ///< lines fetched from memory
  std::uint64_t writebacksToL2 = 0;   ///< dirty L1 victims
  std::uint64_t writebacksToMem = 0;  ///< dirty L2 victims
  std::uint64_t prefetchesIssued = 0;
  std::uint64_t prefetchesUseful = 0;  ///< prefetched lines later demanded
  /// Prefetched lines that missed L2 and were fetched from memory; demand
  /// misses alone undercount memory traffic, so the bandwidth-bound model
  /// (ISSUE 10) adds these fills to the bytes-moved total.
  std::uint64_t prefetchFillsFromMem = 0;

  bool operator==(const HierarchyStats&) const = default;

  [[nodiscard]] double prefetchAccuracy() const {
    return prefetchesIssued == 0
               ? 0.0
               : static_cast<double>(prefetchesUseful) /
                     static_cast<double>(prefetchesIssued);
  }
};

/// Install `line` (not resident) into a non-inclusive L2. Returns true
/// when the fill displaced a dirty line, i.e. wrote one back to memory.
bool fillL2(Cache& l2, std::uint64_t line, bool dirty);

/// Absorb a dirty L1 victim into a non-inclusive L2: dirty the line in
/// place when L2 still holds it, otherwise re-install it dirty. Returns
/// true when the re-install spilled a dirty L2 line to memory.
bool writeBackToL2(Cache& l2, std::uint64_t line);

/// Add `id` (a line or page number) to a footprint `set`. The first time
/// it is seen, count it and add mix64(id) to `digest`: a commutative sum,
/// so two runs that touch the same set in any order agree.
inline void insertFootprint(FlatHashMap64<std::uint8_t>& set,
                            std::uint64_t id, std::uint64_t& count,
                            std::uint64_t& digest) {
  std::uint8_t& seen = set.findOrInsert(id, 0);
  if (seen != 0) return;
  seen = 1;
  ++count;
  digest += mix64(id);
}

class MemoryHierarchy {
 public:
  /// Throws riscmp::ConfigError when the geometry is invalid (same checks
  /// as validateCacheConfig).
  explicit MemoryHierarchy(const CacheConfig& config);

  /// Simulate a demand load/store of `size` bytes at `addr`. Both are
  /// write-allocate: a store miss fetches the line before dirtying it.
  AccessOutcome load(std::uint64_t addr, std::uint32_t size);
  AccessOutcome store(std::uint64_t addr, std::uint32_t size);

  /// Run one retired record through the hierarchy: its loads, then its
  /// stores, handing each to `visit(access, write, outcome)`. Returns the
  /// slowest load's load-to-use latency, 0 when the record loads nothing.
  template <typename Visit>
  std::uint32_t retire(const RetiredInst& inst, Visit&& visit) {
    std::uint32_t loadLatency = 0;
    for (const MemAccess& access : inst.loads) {
      const AccessOutcome outcome = load(access.addr, access.size);
      loadLatency = std::max(loadLatency, outcome.latency);
      visit(access, /*write=*/false, outcome);
    }
    for (const MemAccess& access : inst.stores) {
      visit(access, /*write=*/true, store(access.addr, access.size));
    }
    return loadLatency;
  }
  std::uint32_t retire(const RetiredInst& inst) {
    return retire(inst, [](const MemAccess&, bool, const AccessOutcome&) {});
  }

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  /// Line numbers a byte access touches (for footprint tracking).
  [[nodiscard]] UnitRange linesOf(std::uint64_t addr,
                                  std::uint32_t size) const {
    return unitsCovered(addr, size, lineShift_);
  }

 private:
  AccessOutcome accessLines(std::uint64_t addr, std::uint32_t size,
                            bool write);
  /// One demand line access, including L2 fill and write-back accounting.
  HitLevel accessLine(std::uint64_t line, bool write);
  /// Install `line` into L1, pushing any dirty victim into L2.
  void fillL1(std::uint64_t line, bool dirty, bool prefetched);
  void prefetchLine(std::uint64_t line);

  CacheConfig config_;
  std::uint32_t lineShift_;
  Cache l1_;
  Cache l2_;
  std::optional<Prefetcher> prefetcher_;
  HierarchyStats stats_;
};

}  // namespace riscmp::uarch::mem
