#include "uarch/mem/cache_aware_cp.hpp"

namespace riscmp::uarch::mem {

CacheAwareCpAnalyzer::CacheAwareCpAnalyzer(const LatencyTable& latencies,
                                           const CacheConfig& config)
    : hierarchy_(config), costs_(costTable(&latencies)) {}

std::uint64_t CacheAwareCpAnalyzer::cost(const RetiredInst& inst,
                                         std::uint8_t costClass) {
  std::uint32_t loadLatency = 0;
  for (const MemAccess& access : inst.loads) {
    loadLatency = std::max(loadLatency,
                           hierarchy_.load(access.addr, access.size).latency);
  }
  for (const MemAccess& access : inst.stores) {
    hierarchy_.store(access.addr, access.size);
  }
  return inst.loads.empty() ? costs_[costClass] : loadLatency;
}

}  // namespace riscmp::uarch::mem
