#include "uarch/mem/hierarchy.hpp"

#include <algorithm>
#include <string>

#include "support/fault.hpp"

namespace riscmp::uarch::mem {
namespace {

constexpr bool isPowerOfTwo(std::uint64_t value) {
  return value != 0 && (value & (value - 1)) == 0;
}

void requirePositive(std::uint64_t value, const char* key) {
  if (value == 0) {
    throw ConfigError("must be a positive integer, got 0", {}, 0, key);
  }
}

void checkLevel(const LevelConfig& level, const CacheConfig& config,
                const std::string& name) {
  requirePositive(level.ways, (name + ".ways").c_str());
  requirePositive(level.latency, (name + ".latency").c_str());
  requirePositive(level.sizeBytes, (name + ".size_kib").c_str());
  const std::uint64_t waySize =
      std::uint64_t{config.lineBytes} * level.ways;
  if (level.sizeBytes % waySize != 0) {
    throw ConfigError(
        "size " + std::to_string(level.sizeBytes) +
            " B is not divisible into whole sets of " +
            std::to_string(level.ways) + " x " +
            std::to_string(config.lineBytes) + " B lines",
        {}, 0, name + ".size_kib");
  }
  const std::uint64_t sets = level.sizeBytes / waySize;
  if (!isPowerOfTwo(sets)) {
    throw ConfigError("set count " + std::to_string(sets) +
                          " must be a power of two",
                      {}, 0, name + ".size_kib");
  }
}

void checkTlbLevel(std::uint32_t entries, std::uint32_t ways,
                   const std::string& name) {
  requirePositive(entries, (name + "_entries").c_str());
  requirePositive(ways, (name + "_ways").c_str());
  if (entries % ways != 0) {
    throw ConfigError(std::to_string(entries) +
                          " entries are not divisible into sets of " +
                          std::to_string(ways) + " ways",
                      {}, 0, name + "_entries");
  }
  if (!isPowerOfTwo(entries / ways)) {
    throw ConfigError("set count " + std::to_string(entries / ways) +
                          " must be a power of two",
                      {}, 0, name + "_entries");
  }
}

}  // namespace

void validateCacheConfig(const CacheConfig& config) {
  if (!isPowerOfTwo(config.lineBytes) || config.lineBytes < 8 ||
      config.lineBytes > 4096) {
    throw ConfigError("line size must be a power of two in [8, 4096], got " +
                          std::to_string(config.lineBytes),
                      {}, 0, "line_bytes");
  }
  checkLevel(config.l1d, config, "l1d");
  checkLevel(config.l2, config, "l2");
  requirePositive(config.memoryLatency, "memory_latency");
  requirePositive(config.mshrs, "mshrs");
  requirePositive(config.memBytesPerCycle, "mem_bytes_per_cycle");
  if (config.tlb) {
    const TlbConfig& tlb = *config.tlb;
    if (!isPowerOfTwo(tlb.pageBytes) || tlb.pageBytes < config.lineBytes) {
      throw ConfigError(
          "page size must be a power of two no smaller than the line size (" +
              std::to_string(config.lineBytes) + " B), got " +
              std::to_string(tlb.pageBytes),
          {}, 0, "tlb.page_bytes");
    }
    checkTlbLevel(tlb.l1Entries, tlb.l1Ways, "tlb.l1");
    checkTlbLevel(tlb.l2Entries, tlb.l2Ways, "tlb.l2");
    requirePositive(tlb.l2Latency, "tlb.l2_latency");
    requirePositive(tlb.walkLatency, "tlb.walk_latency");
  }
  if (config.l2.sizeBytes < config.l1d.sizeBytes) {
    throw ConfigError("L2 (" + std::to_string(config.l2.sizeBytes) +
                          " B) must be at least as large as L1D (" +
                          std::to_string(config.l1d.sizeBytes) + " B)",
                      {}, 0, "l2.size_kib");
  }
}

MemoryHierarchy::MemoryHierarchy(const CacheConfig& config)
    : config_((validateCacheConfig(config), config)),
      lineShift_(shiftFor(config.lineBytes)),
      l1_(config.l1Sets(), config.l1d.ways),
      l2_(config.l2Sets(), config.l2.ways) {
  if (config_.prefetch != PrefetchKind::None) {
    prefetcher_.emplace(config_.prefetch, config_.lineBytes);
  }
}

AccessOutcome MemoryHierarchy::load(std::uint64_t addr, std::uint32_t size) {
  ++stats_.loads;
  return accessLines(addr, size, /*write=*/false);
}

AccessOutcome MemoryHierarchy::store(std::uint64_t addr, std::uint32_t size) {
  ++stats_.stores;
  return accessLines(addr, size, /*write=*/true);
}

AccessOutcome MemoryHierarchy::accessLines(std::uint64_t addr,
                                           std::uint32_t size, bool write) {
  const UnitRange lines = linesOf(addr, size);
  AccessOutcome outcome;
  for (std::uint64_t line = lines.first; line <= lines.last; ++line) {
    const HitLevel level = accessLine(line, write);
    if (level != HitLevel::L1) ++outcome.l1LineMisses;
    if (level == HitLevel::Memory) ++outcome.l2LineMisses;
    outcome.level = std::max(outcome.level, level);

    if (prefetcher_) {
      for (const std::uint64_t target :
           prefetcher_->observe(line, level != HitLevel::L1)) {
        prefetchLine(target);
      }
    }
  }

  switch (outcome.level) {
    case HitLevel::L1:
      outcome.latency = config_.l1d.latency;
      break;
    case HitLevel::L2:
      outcome.latency = config_.l2.latency;
      break;
    case HitLevel::Memory:
      outcome.latency = config_.memoryLatency;
      break;
  }
  return outcome;
}

HitLevel MemoryHierarchy::accessLine(std::uint64_t line, bool write) {
  const Cache::Lookup l1 = l1_.access(line, write);
  if (l1.hit) {
    ++stats_.l1Hits;
    if (l1.firstUseOfPrefetch) ++stats_.prefetchesUseful;
    return HitLevel::L1;
  }
  ++stats_.l1Misses;

  HitLevel level = HitLevel::L2;
  if (l2_.access(line, /*write=*/false).hit) {
    ++stats_.l2Hits;
  } else {
    ++stats_.l2Misses;
    if (fillL2(l2_, line, /*dirty=*/false)) ++stats_.writebacksToMem;
    level = HitLevel::Memory;
  }
  fillL1(line, write, /*prefetched=*/false);
  return level;
}

void MemoryHierarchy::fillL1(std::uint64_t line, bool dirty, bool prefetched) {
  const Cache::Eviction victim = l1_.fill(line, dirty, prefetched);
  if (!victim.dirty) return;
  ++stats_.writebacksToL2;
  if (writeBackToL2(l2_, victim.line)) ++stats_.writebacksToMem;
}

void MemoryHierarchy::prefetchLine(std::uint64_t line) {
  if (l1_.contains(line)) return;  // filtered before issue, not counted
  ++stats_.prefetchesIssued;
  if (!l2_.access(line, /*write=*/false).hit) {
    ++stats_.prefetchFillsFromMem;
    if (fillL2(l2_, line, /*dirty=*/false)) ++stats_.writebacksToMem;
  }
  fillL1(line, /*dirty=*/false, /*prefetched=*/true);
}

bool fillL2(Cache& l2, std::uint64_t line, bool dirty) {
  return l2.fill(line, dirty, /*prefetched=*/false).dirty;
}

bool writeBackToL2(Cache& l2, std::uint64_t line) {
  if (!l2.contains(line)) return fillL2(l2, line, /*dirty=*/true);
  l2.access(line, /*write=*/true);
  return false;
}

}  // namespace riscmp::uarch::mem
