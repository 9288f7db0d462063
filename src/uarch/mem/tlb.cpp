#include "uarch/mem/tlb.hpp"

namespace riscmp::uarch::mem {

Tlb::Tlb(const TlbConfig& config)
    : config_(config),
      pageShift_(shiftFor(config.pageBytes)),
      l1_(config.l1Sets(), config.l1Ways),
      l2_(config.l2Sets(), config.l2Ways) {}

Tlb::Outcome Tlb::access(std::uint64_t page) {
  ++stats_.accesses;
  if (l1_.access(page, /*write=*/false).hit) {
    ++stats_.l1Hits;
    return {TlbLevel::L1, 0};
  }
  ++stats_.l1Misses;

  if (l2_.access(page, /*write=*/false).hit) {
    ++stats_.l2Hits;
    l1_.fill(page, /*dirty=*/false, /*prefetched=*/false);
    return {TlbLevel::L2, config_.l2Latency};
  }

  // Page walk: install the translation in both levels. Evictions carry no
  // write-back cost (TLB entries are clean by construction).
  ++stats_.walks;
  stats_.walkCycles += config_.walkLatency;
  l2_.fill(page, /*dirty=*/false, /*prefetched=*/false);
  l1_.fill(page, /*dirty=*/false, /*prefetched=*/false);
  return {TlbLevel::Walk, config_.walkLatency};
}

}  // namespace riscmp::uarch::mem
