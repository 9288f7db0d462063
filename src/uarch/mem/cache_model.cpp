#include "uarch/mem/cache_model.hpp"

namespace riscmp::uarch::mem {

CacheModelAnalyzer::CacheModelAnalyzer(const CacheConfig& config,
                                       const Program& program)
    : hierarchy_(config), kernelMap_(program) {
  for (const std::string& name : kernelMap_.names()) {
    KernelStats stats;
    stats.name = name;
    kernels_.push_back(std::move(stats));
  }
  lineSets_.resize(kernels_.size() + 1);  // last slot = whole program
}

void CacheModelAnalyzer::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) {
    ++instructions_;
    const std::int32_t kernel = kernelMap_.slotOf(inst);
    KernelStats* stats =
        kernel < 0 ? nullptr : &kernels_[static_cast<std::size_t>(kernel)];
    if (stats != nullptr) ++stats->instructions;

    hierarchy_.retire(inst, [&](const MemAccess& access, bool write,
                                const AccessOutcome& outcome) {
      recordLines(access.addr, access.size, kernel);
      if (stats == nullptr) return;
      ++(write ? stats->stores : stats->loads);
      stats->l1Misses += outcome.l1LineMisses;
      stats->l2Misses += outcome.l2LineMisses;
    });
  }
}

void CacheModelAnalyzer::recordLines(std::uint64_t addr, std::uint32_t size,
                                     std::int32_t kernel) {
  const UnitRange lines = hierarchy_.linesOf(addr, size);
  for (std::uint64_t line = lines.first; line <= lines.last; ++line) {
    insertFootprint(lineSets_.back(), line, footprintLines_, lineSetDigest_);
    if (kernel < 0) continue;
    KernelStats& stats = kernels_[static_cast<std::size_t>(kernel)];
    insertFootprint(lineSets_[static_cast<std::size_t>(kernel)], line,
                    stats.footprintLines, stats.lineSetDigest);
  }
}

}  // namespace riscmp::uarch::mem
