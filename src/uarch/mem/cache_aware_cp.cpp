#include "uarch/mem/cache_aware_cp.hpp"

namespace riscmp::uarch::mem {

CacheAwareCpAnalyzer::CacheAwareCpAnalyzer(const LatencyTable& latencies,
                                           const CacheConfig& config)
    : hierarchy_(config), costs_(costTable(&latencies)) {}

std::uint64_t CacheAwareCpAnalyzer::cost(const RetiredInst& inst,
                                         std::uint8_t costClass) {
  const std::uint32_t loadLatency = hierarchy_.retire(inst);
  return inst.loads.empty() ? costs_[costClass] : loadLatency;
}

}  // namespace riscmp::uarch::mem
