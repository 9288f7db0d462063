#include "uarch/mem/mem_system.hpp"

#include <algorithm>

#include "support/bits.hpp"

namespace riscmp::uarch::mem {
namespace {

constexpr std::uint64_t ceilDiv(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0 : (n + d - 1) / d;
}

/// Line-number offset separating simulated cores' address spaces (1 GiB
/// at 64 B lines): each core runs the same kernel over its own arena, so
/// the shared L2 sees capacity/conflict contention between disjoint
/// working sets rather than artificial sharing.
constexpr std::uint64_t kCoreOffsetLines = std::uint64_t{1} << 24;

}  // namespace

MemSystemAnalyzer::SharedHierarchy::SharedHierarchy(const CacheConfig& config,
                                                    std::uint32_t cores)
    : l2(config.l2Sets(), config.l2.ways) {
  l1.reserve(cores);
  for (std::uint32_t c = 0; c < cores; ++c) {
    l1.emplace_back(config.l1Sets(), config.l1d.ways);
  }
  point.cores = cores;
  point.perCore.resize(cores);
}

void MemSystemAnalyzer::SharedHierarchy::accessLine(const CacheConfig& config,
                                                    std::uint32_t core,
                                                    std::uint64_t line,
                                                    bool write) {
  CoreShare& share = point.perCore[core];
  ++share.accesses;
  if (l1[core].access(line, write).hit) {
    share.latencyCycles += config.l1d.latency;
    return;
  }
  ++share.l1Misses;

  // Shared-L2 path: counted independently of the per-core shares so the
  // E14 conservation checks compare two distinct tallies.
  ++point.sharedL2Accesses;
  if (l2.access(line, /*write=*/false).hit) {
    ++point.sharedL2Hits;
    ++share.l2Hits;
    share.latencyCycles += config.l2.latency;
    fillL1(core, line, write);
    return;
  }
  ++point.sharedL2Misses;
  ++share.l2Misses;
  share.latencyCycles += config.memoryLatency;
  const Cache::Eviction victim =
      l2.fill(line, /*dirty=*/false, /*prefetched=*/false);
  if (victim.valid && victim.dirty) ++point.sharedWritebacksToMem;
  fillL1(core, line, write);
}

void MemSystemAnalyzer::SharedHierarchy::fillL1(std::uint32_t core,
                                                std::uint64_t line,
                                                bool dirty) {
  const Cache::Eviction victim =
      l1[core].fill(line, dirty, /*prefetched=*/false);
  if (!victim.valid || !victim.dirty) return;
  // Non-inclusive write-back, as in MemoryHierarchy::fillL1.
  if (l2.contains(victim.line)) {
    l2.access(victim.line, /*write=*/true);
  } else {
    const Cache::Eviction spilled =
        l2.fill(victim.line, /*dirty=*/true, /*prefetched=*/false);
    if (spilled.valid && spilled.dirty) ++point.sharedWritebacksToMem;
  }
}

MemSystemAnalyzer::MemSystemAnalyzer(const CacheConfig& config,
                                     const Program& program,
                                     std::span<const unsigned> coreCounts)
    : config_((validateCacheConfig(config), config)),
      hierarchy_(config),
      tlb_(config.tlb ? *config.tlb : TlbConfig{}),
      kernelMap_(program) {
  for (const unsigned cores : coreCounts) {
    if (cores == 0) continue;
    const bool seen =
        std::any_of(shared_.begin(), shared_.end(),
                    [cores](const SharedHierarchy& s) {
                      return s.point.cores == cores;
                    });
    if (!seen) shared_.emplace_back(config_, cores);
  }

  for (const std::string& name : kernelMap_.names()) {
    MemKernelStats stats;
    stats.name = name;
    kernels_.push_back(std::move(stats));
  }
  pageSets_.resize(kernels_.size() + 1);  // last slot = whole program
}

void MemSystemAnalyzer::onRetire(const RetiredInst& inst) { retireOne(inst); }

void MemSystemAnalyzer::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) retireOne(inst);
}

void MemSystemAnalyzer::accessMemory(std::uint64_t addr, std::uint32_t size,
                                     bool write, std::int32_t kernel) {
  MemKernelStats* stats =
      kernel < 0 ? nullptr : &kernels_[static_cast<std::size_t>(kernel)];

  // Single-core hierarchy replica feeding the MSHR/bandwidth bounds.
  if (write) {
    hierarchy_.store(addr, size);
  } else {
    hierarchy_.load(addr, size);
  }

  // Translation: an access straddling a page boundary looks up every page
  // it covers (the straddle test pins this at exactly two).
  const std::uint64_t firstPage = tlb_.pageOf(addr);
  const std::uint64_t lastPage = tlb_.pageOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t page = firstPage; page <= lastPage; ++page) {
    const Tlb::Outcome outcome = tlb_.access(page);
    if (stats != nullptr) {
      ++stats->tlbAccesses;
      if (outcome.level == TlbLevel::Walk) ++stats->tlbWalks;
    }

    FlatHashMap64<std::uint8_t>& program = pageSets_.back();
    if (program.find(page) == nullptr) {
      program.assign(page, 1);
      ++footprintPages_;
      pageSetDigest_ += mix64(page);
    }
    if (stats != nullptr) {
      FlatHashMap64<std::uint8_t>& set =
          pageSets_[static_cast<std::size_t>(kernel)];
      if (set.find(page) == nullptr) {
        set.assign(page, 1);
        ++stats->footprintPages;
        stats->pageSetDigest += mix64(page);
      }
    }
  }

  // Shared-L2 scaling: round-robin interleave N copies of this access at
  // disjoint per-core offsets (core order fixed -> deterministic).
  const std::uint64_t firstLine = hierarchy_.lineOf(addr);
  const std::uint64_t lastLine =
      hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t line = firstLine; line <= lastLine; ++line) {
    for (SharedHierarchy& sharedHierarchy : shared_) {
      for (std::uint32_t core = 0; core < sharedHierarchy.point.cores;
           ++core) {
        sharedHierarchy.accessLine(config_, core,
                                   line + core * kCoreOffsetLines, write);
      }
    }
  }
}

void MemSystemAnalyzer::retireOne(const RetiredInst& inst) {
  ++instructions_;
  const std::int32_t kernel = kernelMap_.slotOf(inst);
  if (kernel >= 0) ++kernels_[static_cast<std::size_t>(kernel)].instructions;

  for (const MemAccess& access : inst.loads) {
    accessMemory(access.addr, access.size, /*write=*/false, kernel);
  }
  for (const MemAccess& access : inst.stores) {
    accessMemory(access.addr, access.size, /*write=*/true, kernel);
  }
}

MemSummary MemSystemAnalyzer::summary() const {
  const HierarchyStats& h = hierarchy_.stats();
  MemSummary summary;
  summary.tlb = tlb_.stats();
  summary.footprintPages = footprintPages_;
  summary.pageSetDigest = pageSetDigest_;
  summary.demandFillBytes = h.l2Misses * config_.lineBytes;
  summary.prefetchFillBytes = h.prefetchFillsFromMem * config_.lineBytes;
  summary.writebackBytes = h.writebacksToMem * config_.lineBytes;
  summary.missCycles = h.l2Hits * config_.l2.latency +
                       h.l2Misses * config_.memoryLatency;
  summary.mshrBoundCycles = ceilDiv(summary.missCycles, config_.mshrs);
  summary.bandwidthBoundCycles =
      ceilDiv(summary.totalBytes(), config_.memBytesPerCycle);
  return summary;
}

std::vector<ScalingPoint> MemSystemAnalyzer::scaling() const {
  std::vector<ScalingPoint> points;
  points.reserve(shared_.size());
  for (const SharedHierarchy& sharedHierarchy : shared_) {
    ScalingPoint point = sharedHierarchy.point;
    point.bytesFromMem =
        (point.sharedL2Misses + point.sharedWritebacksToMem) *
        config_.lineBytes;
    point.bandwidthBoundCycles =
        ceilDiv(point.bytesFromMem, config_.memBytesPerCycle);
    std::uint64_t missCycles = 0;
    for (const CoreShare& share : point.perCore) {
      missCycles += share.l2Hits * config_.l2.latency +
                    share.l2Misses * config_.memoryLatency;
    }
    // Each core brings its own MSHRs, so N cores overlap N x mshrs misses.
    point.mshrBoundCycles =
        ceilDiv(missCycles, std::uint64_t{config_.mshrs} * point.cores);
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace riscmp::uarch::mem
