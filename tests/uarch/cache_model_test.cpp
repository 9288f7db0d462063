// Unit tests for the ISSUE 5 memory hierarchy: golden hit/miss sequences
// on tiny caches, LRU replacement order, write-allocate and write-back
// accounting, prefetcher accuracy, geometry validation, and the
// cache-aware critical path's dynamic load latencies.
#include <gtest/gtest.h>

#include "analysis/critical_path.hpp"
#include "support/fault.hpp"
#include "uarch/mem/cache_aware_cp.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp::uarch::mem {
namespace {

/// Tiny geometry so tests exercise conflict misses with a handful of
/// accesses: byte sizes, 64 B lines, latencies 4 / 12 / 80.
CacheConfig tinyConfig(std::uint64_t l1Bytes, std::uint32_t l1Ways,
                       std::uint64_t l2Bytes, std::uint32_t l2Ways,
                       PrefetchKind prefetch = PrefetchKind::None) {
  CacheConfig config;
  config.lineBytes = 64;
  config.l1d = {l1Bytes, l1Ways, 4};
  config.l2 = {l2Bytes, l2Ways, 12};
  config.memoryLatency = 80;
  config.prefetch = prefetch;
  return config;
}

RetiredInst loadInst(unsigned addrReg, std::uint64_t addr, unsigned dst) {
  RetiredInst inst;
  inst.group = InstGroup::Load;
  inst.srcs.push_back(Reg::gp(addrReg));
  inst.dsts.push_back(Reg::gp(dst));
  inst.loads.push_back(MemAccess{addr, 8});
  return inst;
}

RetiredInst storeInst(unsigned addrReg, unsigned dataReg,
                      std::uint64_t addr) {
  RetiredInst inst;
  inst.group = InstGroup::Store;
  inst.srcs.push_back(Reg::gp(addrReg));
  inst.srcs.push_back(Reg::gp(dataReg));
  inst.stores.push_back(MemAccess{addr, 8});
  return inst;
}

RetiredInst aluInst(unsigned src, unsigned dst) {
  RetiredInst inst;
  inst.group = InstGroup::IntSimple;
  inst.srcs.push_back(Reg::gp(src));
  inst.dsts.push_back(Reg::gp(dst));
  return inst;
}

TEST(MemoryHierarchy, DirectMappedGoldenSequence) {
  // 256 B direct-mapped L1 (4 sets), 1 KiB 2-way L2 (8 sets).
  MemoryHierarchy h(tinyConfig(256, 1, 1024, 2));

  AccessOutcome out = h.load(0x0, 8);  // cold: memory
  EXPECT_EQ(out.level, HitLevel::Memory);
  EXPECT_EQ(out.latency, 80u);

  out = h.load(0x0, 8);  // resident: L1 hit
  EXPECT_EQ(out.level, HitLevel::L1);
  EXPECT_EQ(out.latency, 4u);

  // Line 4 maps to L1 set 0, evicting line 0 (direct-mapped conflict).
  out = h.load(0x100, 8);
  EXPECT_EQ(out.level, HitLevel::Memory);

  out = h.load(0x0, 8);  // evicted from L1, still in L2
  EXPECT_EQ(out.level, HitLevel::L2);
  EXPECT_EQ(out.latency, 12u);

  out = h.load(0x8, 8);  // same line as 0x0: back in L1
  EXPECT_EQ(out.level, HitLevel::L1);

  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.loads, 5u);
  EXPECT_EQ(s.stores, 0u);
  EXPECT_EQ(s.l1Hits, 2u);
  EXPECT_EQ(s.l1Misses, 3u);
  EXPECT_EQ(s.l2Hits, 1u);
  EXPECT_EQ(s.l2Misses, 2u);
}

TEST(MemoryHierarchy, LruEvictsLeastRecentlyUsedWay) {
  // One 2-way L1 set: lines 0 and 1 fill it; touching 0 again makes 1 the
  // LRU victim when line 2 arrives.
  MemoryHierarchy h(tinyConfig(128, 2, 512, 2));
  h.load(0x0, 8);   // line 0 (miss)
  h.load(0x40, 8);  // line 1 (miss)
  EXPECT_EQ(h.load(0x0, 8).level, HitLevel::L1);  // refresh line 0
  h.load(0x80, 8);  // line 2 evicts line 1, not line 0
  EXPECT_EQ(h.load(0x0, 8).level, HitLevel::L1);
  EXPECT_EQ(h.load(0x40, 8).level, HitLevel::L2);  // line 1 was the victim
}

TEST(MemoryHierarchy, WriteAllocateAndWritebackAccounting) {
  // Single-line L1 and single-line L2: every conflict spills dirty data.
  MemoryHierarchy h(tinyConfig(64, 1, 64, 1));
  EXPECT_EQ(h.store(0x0, 8).level, HitLevel::Memory);  // write-allocate
  h.store(0x40, 8);  // line 1 displaces dirty line 0 into L2
  h.store(0x0, 8);   // line 0 back (L2 hit), dirty line 1 spills

  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.stores, 3u);
  EXPECT_EQ(s.l1Misses, 3u);
  EXPECT_EQ(s.l1Hits, 0u);
  EXPECT_EQ(s.l2Hits, 1u);
  EXPECT_EQ(s.l2Misses, 2u);
  EXPECT_EQ(s.writebacksToL2, 2u);  // both dirty L1 victims
  EXPECT_EQ(s.writebacksToMem, 1u);
}

TEST(MemoryHierarchy, StraddlingAccessProbesEveryLine) {
  MemoryHierarchy h(tinyConfig(256, 1, 1024, 2));
  const AccessOutcome out = h.load(0x3c, 8);  // spans lines 0 and 1
  EXPECT_EQ(out.l1LineMisses, 2u);
  EXPECT_EQ(out.l2LineMisses, 2u);
  EXPECT_EQ(out.level, HitLevel::Memory);
  EXPECT_EQ(h.stats().loads, 1u);  // one demand access, two line probes
  EXPECT_EQ(h.stats().l1Misses, 2u);
}

TEST(MemoryHierarchy, NextLinePrefetchTurnsMissIntoHit) {
  MemoryHierarchy h(tinyConfig(512, 2, 2048, 4, PrefetchKind::NextLine));
  EXPECT_EQ(h.load(0x0, 8).level, HitLevel::Memory);  // miss: prefetch L+1
  EXPECT_EQ(h.load(0x40, 8).level, HitLevel::L1);     // prefetched
  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.prefetchesIssued, 1u);
  EXPECT_EQ(s.prefetchesUseful, 1u);
  EXPECT_DOUBLE_EQ(s.prefetchAccuracy(), 1.0);
}

TEST(MemoryHierarchy, StridePrefetcherConfirmsThenCovers) {
  // Stride of 2 lines within one 4 KiB page: the detector needs two deltas
  // to confirm, then every access prefetches the next target.
  MemoryHierarchy h(tinyConfig(4096, 8, 16384, 8, PrefetchKind::Stride));
  for (std::uint64_t i = 0; i < 10; ++i) h.load(i * 128, 8);
  const HierarchyStats& s = h.stats();
  EXPECT_EQ(s.l1Misses, 3u);  // accesses 0..2 miss; 3..9 covered
  EXPECT_EQ(s.l1Hits, 7u);
  EXPECT_EQ(s.prefetchesIssued, 8u);  // accesses 2..9 each issue one
  EXPECT_EQ(s.prefetchesUseful, 7u);  // the last target is never demanded
  EXPECT_NEAR(s.prefetchAccuracy(), 7.0 / 8.0, 1e-12);
}

TEST(CacheConfigValidation, RejectsBadGeometry) {
  auto expectKey = [](CacheConfig config, const std::string& key) {
    try {
      validateCacheConfig(config);
      FAIL() << "expected rejection for key " << key;
    } catch (const ConfigError& e) {
      EXPECT_EQ(e.key(), key);
    }
  };

  CacheConfig zeroWays = tinyConfig(256, 1, 1024, 2);
  zeroWays.l1d.ways = 0;
  expectKey(zeroWays, "l1d.ways");

  CacheConfig badLine = tinyConfig(256, 1, 1024, 2);
  badLine.lineBytes = 48;
  expectKey(badLine, "line_bytes");

  // 24 KiB / (8 x 64 B) = 48 sets: divisible but not a power of two.
  CacheConfig badSets = tinyConfig(24 * 1024, 8, 256 * 1024, 8);
  expectKey(badSets, "l1d.size_kib");

  // 32 KiB does not divide into whole sets of 3 x 64 B.
  CacheConfig indivisible = tinyConfig(32 * 1024, 3, 256 * 1024, 8);
  expectKey(indivisible, "l1d.size_kib");

  CacheConfig l2Small = tinyConfig(32 * 1024, 8, 16 * 1024, 8);
  expectKey(l2Small, "l2.size_kib");
}

TEST(CacheAwareCp, LoadsContributeDynamicLatency) {
  LatencyTable table = unitLatencies();
  table[static_cast<std::size_t>(InstGroup::Load)] = 4;

  CacheAwareCpAnalyzer analyzer(table, tinyConfig(256, 1, 1024, 2));
  analyzer.onRetire(loadInst(1, 0x0, 2));  // cold miss: depth 80
  analyzer.onRetire(aluInst(2, 3));        // dependent: depth 81
  analyzer.onRetire(loadInst(1, 0x0, 4));  // L1 hit: depth 4
  EXPECT_EQ(analyzer.criticalPath(), 81u);
  EXPECT_EQ(analyzer.instructions(), 3u);
  EXPECT_EQ(analyzer.cacheStats().l1Misses, 1u);

  // The flat scaled chain over the same trace charges the table's LOAD
  // latency: the memory-aware mode must dominate it on a cold miss.
  CriticalPathAnalyzer flat(table);
  flat.onRetire(loadInst(1, 0x0, 2));
  flat.onRetire(aluInst(2, 3));
  flat.onRetire(loadInst(1, 0x0, 4));
  EXPECT_LT(flat.criticalPath(), analyzer.criticalPath());
}

TEST(CacheAwareCp, StoresForwardAtUnitCostButWarmTheCache) {
  LatencyTable table = unitLatencies();
  CacheAwareCpAnalyzer analyzer(table, tinyConfig(256, 1, 1024, 2));
  analyzer.onRetire(storeInst(1, 2, 0x0));  // depth 1, write-allocates
  analyzer.onRetire(loadInst(3, 0x0, 4));   // forwarded chunk + L1 hit
  EXPECT_EQ(analyzer.criticalPath(), 1u + 4u);
  EXPECT_EQ(analyzer.cacheStats().stores, 1u);
  EXPECT_EQ(analyzer.cacheStats().l1Hits, 1u);
}

}  // namespace
}  // namespace riscmp::uarch::mem
