#include "uarch/mem/mem_system.hpp"

#include <algorithm>

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
  point.cores = cores;
  point.perCore.resize(cores);
}

void MemSystemAnalyzer::SharedHierarchy::accessLine(
    const CacheConfig& config, std::uint64_t line, bool l1Hit,
    const Cache::Eviction& victim) {
  for (std::uint32_t core = 0; core < point.cores; ++core) {
    CoreShare& share = point.perCore[core];
    ++share.accesses;
    if (l1Hit) {
      share.latencyCycles += config.l1d.latency;
      continue;
    }
    ++share.l1Misses;

    // Shared-L2 path: counted independently of the per-core shares so the
    // E14 conservation checks compare two distinct tallies.
    const std::uint64_t offset = core * kCoreOffsetLines;
    ++point.sharedL2Accesses;
    if (l2.access(line + offset, /*write=*/false).hit) {
      ++point.sharedL2Hits;
      ++share.l2Hits;
      share.latencyCycles += config.l2.latency;
    } else {
      ++point.sharedL2Misses;
      ++share.l2Misses;
      share.latencyCycles += config.memoryLatency;
      if (fillL2(l2, line + offset, /*dirty=*/false)) {
        ++point.sharedWritebacksToMem;
      }
    }
    if (victim.dirty && writeBackToL2(l2, victim.line + offset)) {
      ++point.sharedWritebacksToMem;
    }
  }
}

MemSystemAnalyzer::MemSystemAnalyzer(const CacheConfig& config,
                                     const Program& program,
                                     std::span<const unsigned> coreCounts)
    : config_((validateCacheConfig(config), config)),
      hierarchy_(config),
      tlb_(config.tlb ? *config.tlb : TlbConfig{}),
      coreL1_(config.l1Sets(), config.l1d.ways),
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

void MemSystemAnalyzer::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) {
    ++instructions_;
    const std::int32_t kernel = kernelMap_.slotOf(inst);
    if (kernel >= 0) ++kernels_[static_cast<std::size_t>(kernel)].instructions;

    // The single-core replica feeds the MSHR/bandwidth bounds; every access
    // it walks is also translated and fed to the shared-L2 scaling model.
    hierarchy_.retire(inst, [&](const MemAccess& access, bool write,
                                const AccessOutcome&) {
      translate(access, kernel);
      accessSharedLines(access, write);
    });
  }
}

void MemSystemAnalyzer::translate(const MemAccess& access,
                                  std::int32_t kernel) {
  MemKernelStats* stats =
      kernel < 0 ? nullptr : &kernels_[static_cast<std::size_t>(kernel)];
  // An access straddling a page boundary looks up every page it covers
  // (the straddle test pins this at exactly two).
  const UnitRange pages = tlb_.pagesOf(access.addr, access.size);
  for (std::uint64_t page = pages.first; page <= pages.last; ++page) {
    const Tlb::Outcome outcome = tlb_.access(page);
    insertFootprint(pageSets_.back(), page, footprintPages_, pageSetDigest_);
    if (stats == nullptr) continue;
    ++stats->tlbAccesses;
    if (outcome.level == TlbLevel::Walk) ++stats->tlbWalks;
    insertFootprint(pageSets_[static_cast<std::size_t>(kernel)], page,
                    stats->footprintPages, stats->pageSetDigest);
  }
}

void MemSystemAnalyzer::accessSharedLines(const MemAccess& access,
                                          bool write) {
  // Round-robin interleave N copies of each line at disjoint per-core
  // offsets (core order fixed -> deterministic).
  const UnitRange lines = hierarchy_.linesOf(access.addr, access.size);
  for (std::uint64_t line = lines.first; line <= lines.last; ++line) {
    const bool l1Hit = coreL1_.access(line, write).hit;
    const Cache::Eviction victim =
        l1Hit ? Cache::Eviction{}
              : coreL1_.fill(line, write, /*prefetched=*/false);
    for (SharedHierarchy& sharedHierarchy : shared_) {
      sharedHierarchy.accessLine(config_, line, l1Hit, victim);
    }
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
