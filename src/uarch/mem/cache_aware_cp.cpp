#include "uarch/mem/cache_aware_cp.hpp"

#include <algorithm>

// Memory dependencies use the chunk rule of analysis/dependencies.hpp, the
// same granularity as CriticalPathAnalyzer, so the two modes differ only in
// load cost, never in chain shape.
namespace riscmp::uarch::mem {

CacheAwareCpAnalyzer::CacheAwareCpAnalyzer(const LatencyTable& latencies,
                                           const CacheConfig& config)
    : hierarchy_(config), latencies_(latencies) {}

void CacheAwareCpAnalyzer::onRetire(const RetiredInst& inst) {
  retireOne(inst);
}

void CacheAwareCpAnalyzer::onRetireBlock(
    std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) retireOne(inst);
}

void CacheAwareCpAnalyzer::retireOne(const RetiredInst& inst) {
  ++instructions_;

  std::uint64_t depth = 0;
  for (const Reg& reg : inst.srcs) {
    depth = std::max(depth, regDepth_[reg.dense()]);
  }
  for (const MemAccess& access : inst.loads) {
    const auto [first, last] = chunkRange(access);
    for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
      if (const std::uint64_t* found = memDepth_.find(chunk)) {
        depth = std::max(depth, *found);
      }
    }
  }

  // Memory-aware cost: loads contribute their dynamic load-to-use latency;
  // stores stay at 1 (store forwarding) but still update cache state.
  std::uint64_t cost;
  if (!inst.loads.empty()) {
    std::uint32_t latency = 0;
    for (const MemAccess& access : inst.loads) {
      latency = std::max(
          latency, hierarchy_.load(access.addr, access.size).latency);
    }
    cost = latency;
  } else if (!inst.stores.empty()) {
    cost = 1;
  } else {
    cost = latencies_[static_cast<std::size_t>(inst.group)];
  }
  for (const MemAccess& access : inst.stores) {
    hierarchy_.store(access.addr, access.size);
  }
  depth += cost;

  for (const Reg& reg : inst.dsts) {
    regDepth_[reg.dense()] = depth;
  }
  for (const MemAccess& access : inst.stores) {
    const auto [first, last] = chunkRange(access);
    for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
      memDepth_.assign(chunk, depth);
    }
  }
  maxDepth_ = std::max(maxDepth_, depth);
}

void CacheAwareCpAnalyzer::reset() {
  hierarchy_.reset();
  regDepth_.fill(0);
  memDepth_.clear();
  maxDepth_ = 0;
  instructions_ = 0;
}

}  // namespace riscmp::uarch::mem
