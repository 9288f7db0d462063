#include "uarch/mem/cache_model.hpp"

#include <algorithm>

#include "support/bits.hpp"

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

void CacheModelAnalyzer::onRetire(const RetiredInst& inst) { retireOne(inst); }

void CacheModelAnalyzer::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) retireOne(inst);
}

void CacheModelAnalyzer::recordLines(std::uint64_t addr, std::uint32_t size,
                                     std::int32_t kernel) {
  const std::uint64_t first = hierarchy_.lineOf(addr);
  const std::uint64_t last =
      hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    FlatHashMap64<std::uint8_t>& program = lineSets_.back();
    if (program.find(line) == nullptr) {
      program.assign(line, 1);
      ++footprintLines_;
      lineSetDigest_ += mix64(line);
    }
    if (kernel < 0) continue;
    FlatHashMap64<std::uint8_t>& set =
        lineSets_[static_cast<std::size_t>(kernel)];
    if (set.find(line) == nullptr) {
      set.assign(line, 1);
      KernelStats& stats = kernels_[static_cast<std::size_t>(kernel)];
      ++stats.footprintLines;
      stats.lineSetDigest += mix64(line);
    }
  }
}

void CacheModelAnalyzer::retireOne(const RetiredInst& inst) {
  ++instructions_;
  const std::int32_t kernel = kernelMap_.slotOf(inst);
  KernelStats* stats =
      kernel < 0 ? nullptr : &kernels_[static_cast<std::size_t>(kernel)];
  if (stats != nullptr) ++stats->instructions;

  for (const MemAccess& access : inst.loads) {
    const AccessOutcome outcome = hierarchy_.load(access.addr, access.size);
    recordLines(access.addr, access.size, kernel);
    if (stats == nullptr) continue;
    ++stats->loads;
    stats->l1Misses += outcome.l1LineMisses;
    stats->l2Misses += outcome.l2LineMisses;
  }
  for (const MemAccess& access : inst.stores) {
    const AccessOutcome outcome = hierarchy_.store(access.addr, access.size);
    recordLines(access.addr, access.size, kernel);
    if (stats == nullptr) continue;
    ++stats->stores;
    stats->l1Misses += outcome.l1LineMisses;
    stats->l2Misses += outcome.l2LineMisses;
  }
}

}  // namespace riscmp::uarch::mem
