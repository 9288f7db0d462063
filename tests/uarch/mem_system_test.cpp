// Unit tests for the ISSUE 10 memory system: golden TLB hit/walk
// sequences, page-boundary straddles, TLB geometry validation, the
// stride-prefetcher wraparound edge at the ends of the address space, the
// MSHR/bandwidth occupancy bounds, the shared-L2 scaling model's
// conservation and single-core-equivalence invariants, and a differential
// check of the scaling model against a private-L1-per-core reference.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/machine.hpp"
#include "kgen/compile.hpp"
#include "support/fault.hpp"
#include "uarch/mem/mem_system.hpp"
#include "uarch/mem/tlb.hpp"
#include "workloads/workloads.hpp"

namespace riscmp::uarch::mem {
namespace {

/// Tiny TLB: 2-entry fully-associative L1 over a 4-entry fully-associative
/// L2, 4 KiB pages, 5-cycle L2 / 30-cycle walk.
TlbConfig tinyTlb() {
  TlbConfig tlb;
  tlb.pageBytes = 4096;
  tlb.l1Entries = 2;
  tlb.l1Ways = 2;
  tlb.l2Entries = 4;
  tlb.l2Ways = 4;
  tlb.l2Latency = 5;
  tlb.walkLatency = 30;
  return tlb;
}

/// Tiny cache geometry as in cache_model_test, with the memory-system
/// knobs (MSHRs, bandwidth, TLB) set to test-friendly values.
CacheConfig tinyConfig(PrefetchKind prefetch = PrefetchKind::None) {
  CacheConfig config;
  config.lineBytes = 64;
  config.l1d = {256, 1, 4};
  config.l2 = {1024, 2, 12};
  config.memoryLatency = 80;
  config.prefetch = prefetch;
  config.mshrs = 4;
  config.memBytesPerCycle = 16;
  config.tlb = tinyTlb();
  return config;
}

RetiredInst loadAt(std::uint64_t pc, std::uint64_t addr,
                   std::uint8_t size = 8) {
  RetiredInst inst;
  inst.pc = pc;
  inst.group = InstGroup::Load;
  inst.srcs.push_back(Reg::gp(1));
  inst.dsts.push_back(Reg::gp(2));
  inst.loads.push_back(MemAccess{addr, size});
  return inst;
}

/// One named kernel covering [0x10000, 0x10040); code left empty so
/// attribution exercises the pc-range fallback.
Program kernelProgram() {
  Program program;
  program.kernels.push_back(Symbol{"edge", 0x10000, 0x40});
  return program;
}

TEST(Tlb, GoldenHitWalkSequence) {
  Tlb tlb(tinyTlb());

  EXPECT_EQ(tlb.access(0).level, TlbLevel::Walk);  // cold
  EXPECT_EQ(tlb.access(0).level, TlbLevel::L1);
  EXPECT_EQ(tlb.access(0).latency, 0u);
  EXPECT_EQ(tlb.access(1).level, TlbLevel::Walk);

  // Page 2 fills the 2-entry L1, evicting LRU page 0; page 0 then hits
  // the L2 (which still holds all three) and refills the L1.
  EXPECT_EQ(tlb.access(2).level, TlbLevel::Walk);
  const Tlb::Outcome back = tlb.access(0);
  EXPECT_EQ(back.level, TlbLevel::L2);
  EXPECT_EQ(back.latency, 5u);
  EXPECT_EQ(tlb.access(0).level, TlbLevel::L1);

  const TlbStats& s = tlb.stats();
  EXPECT_EQ(s.accesses, 7u);
  EXPECT_EQ(s.l1Hits, 3u);
  EXPECT_EQ(s.l1Misses, 4u);
  EXPECT_EQ(s.l2Hits, 1u);
  EXPECT_EQ(s.walks, 3u);
  EXPECT_EQ(s.walkCycles, 3u * 30u);
}

TEST(Tlb, L2CapacityEvictionForcesRewalk) {
  Tlb tlb(tinyTlb());
  // Five distinct pages through a 4-entry L2: page 0 is the LRU victim.
  for (std::uint64_t page = 0; page < 5; ++page) {
    EXPECT_EQ(tlb.access(page).level, TlbLevel::Walk);
  }
  EXPECT_EQ(tlb.access(0).level, TlbLevel::Walk);  // evicted everywhere
  EXPECT_EQ(tlb.stats().walks, 6u);
}

TEST(TlbValidation, RejectsBadGeometry) {
  CacheConfig config = tinyConfig();

  config.tlb->pageBytes = 48;  // not a power of two
  EXPECT_THROW(validateCacheConfig(config), ConfigError);

  config.tlb = tinyTlb();
  config.tlb->pageBytes = 32;  // smaller than the 64 B line
  EXPECT_THROW(validateCacheConfig(config), ConfigError);

  config.tlb = tinyTlb();
  config.tlb->l2Entries = 6;  // 6 entries / 4 ways: not whole sets
  try {
    validateCacheConfig(config);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key(), "tlb.l2_entries");
  }

  config.tlb = tinyTlb();
  config.tlb->l1Entries = 12;  // 12/2 = 6 sets: not a power of two
  try {
    validateCacheConfig(config);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.key(), "tlb.l1_entries");
  }

  config.tlb = tinyTlb();
  config.tlb->walkLatency = 0;
  EXPECT_THROW(validateCacheConfig(config), ConfigError);

  config.tlb = tinyTlb();
  config.mshrs = 0;
  EXPECT_THROW(validateCacheConfig(config), ConfigError);

  config = tinyConfig();
  config.memBytesPerCycle = 0;
  EXPECT_THROW(validateCacheConfig(config), ConfigError);
}

TEST(MemSystem, PageBoundaryStraddleTranslatesBothPages) {
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{1};
  MemSystemAnalyzer analyzer(tinyConfig(), program, cores);

  // An 8-byte load at pageBytes-4 covers the last 4 bytes of page 0 and
  // the first 4 of page 1: one cache access, TWO translations, two walks.
  analyzer.onRetire(loadAt(0x10000, 4096 - 4));

  const MemSummary summary = analyzer.summary();
  EXPECT_EQ(summary.tlb.accesses, 2u);
  EXPECT_EQ(summary.tlb.walks, 2u);
  EXPECT_EQ(summary.footprintPages, 2u);

  ASSERT_EQ(analyzer.kernels().size(), 1u);
  const MemKernelStats& kernel = analyzer.kernels()[0];
  EXPECT_EQ(kernel.name, "edge");
  EXPECT_EQ(kernel.tlbAccesses, 2u);
  EXPECT_EQ(kernel.tlbWalks, 2u);
  EXPECT_EQ(kernel.footprintPages, 2u);

  // The same access straddles a cache line too (line size divides page
  // size), so the hierarchy saw two line probes but one demand load.
  EXPECT_EQ(analyzer.hierarchyTotals().loads, 1u);
  EXPECT_EQ(analyzer.hierarchyTotals().l1Misses, 2u);
}

TEST(MemSystem, PageInteriorAccessTranslatesOnce) {
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{1};
  MemSystemAnalyzer analyzer(tinyConfig(), program, cores);
  analyzer.onRetire(loadAt(0x10000, 128));
  EXPECT_EQ(analyzer.summary().tlb.accesses, 1u);
  EXPECT_EQ(analyzer.summary().footprintPages, 1u);
}

TEST(MemSystem, StridePrefetchWrapsAtAddressSpaceEnd) {
  // Ascending stride right at the top of the address space: after lines
  // N-3, N-2, N-1 confirm a +1 stride, the prefetcher targets line N,
  // which wraps to line 0. The hierarchy must take it in stride (pun
  // intended) rather than trap on the overflow.
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{1};
  MemSystemAnalyzer analyzer(tinyConfig(PrefetchKind::Stride), program,
                             cores);

  const std::uint64_t top = ~std::uint64_t{0} - 255;  // last 4 lines
  for (std::uint64_t offset = 0; offset < 4; ++offset) {
    analyzer.onRetire(loadAt(0x10000, top + offset * 64, 8));
  }
  const HierarchyStats& h = analyzer.hierarchyTotals();
  EXPECT_EQ(h.loads, 4u);
  EXPECT_GT(h.prefetchesIssued, 0u);  // the wrapped line 0 fill
  // Prefetches bypass translation: only the 4 demand loads hit the TLB
  // (all within the same final page).
  EXPECT_EQ(analyzer.summary().tlb.accesses, 4u);
  EXPECT_EQ(analyzer.summary().footprintPages, 1u);
}

TEST(MemSystem, StridePrefetchWrapsBelowZero) {
  // Descending through line 0: the confirmed -1 stride targets line -1 ==
  // 2^64-1. Again: counted, filled, no trap.
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{1};
  MemSystemAnalyzer analyzer(tinyConfig(PrefetchKind::Stride), program,
                             cores);
  for (std::int64_t line = 3; line >= 0; --line) {
    analyzer.onRetire(
        loadAt(0x10000, static_cast<std::uint64_t>(line) * 64, 8));
  }
  EXPECT_GT(analyzer.hierarchyTotals().prefetchesIssued, 0u);
  EXPECT_EQ(analyzer.hierarchyTotals().loads, 4u);
}

TEST(MemSystem, OccupancyBoundsFollowTheFormulas) {
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{1};
  const CacheConfig config = tinyConfig();
  MemSystemAnalyzer analyzer(config, program, cores);

  // 8 cold lines, all L2 misses, no write-backs, no prefetches.
  for (std::uint64_t line = 0; line < 8; ++line) {
    analyzer.onRetire(loadAt(0x10000, line * 64, 8));
  }
  const MemSummary summary = analyzer.summary();
  const HierarchyStats& h = analyzer.hierarchyTotals();
  EXPECT_EQ(h.l2Misses, 8u);
  EXPECT_EQ(summary.demandFillBytes, 8u * 64u);
  EXPECT_EQ(summary.prefetchFillBytes, 0u);
  EXPECT_EQ(summary.writebackBytes, 0u);
  // missCycles = l2Hits*12 + l2Misses*80 = 640; mshrs=4 -> 160.
  EXPECT_EQ(summary.missCycles, 640u);
  EXPECT_EQ(summary.mshrBoundCycles, 160u);
  // 512 bytes at 16 B/cycle -> 32 cycles.
  EXPECT_EQ(summary.bandwidthBoundCycles, 32u);
}

/// Compiled-workload fixture shared by the scaling tests.
MemSystemAnalyzer runStream(const CacheConfig& config,
                            std::span<const unsigned> cores,
                            Arch arch = Arch::Rv64) {
  const kgen::Module module = workloads::makeStream({.n = 600, .reps = 2});
  const kgen::Compiled compiled =
      kgen::compile(module, arch, kgen::CompilerEra::Gcc12);
  MemSystemAnalyzer analyzer(config, compiled.program, cores);
  Machine machine(compiled.program);
  machine.addObserver(analyzer);
  machine.run();
  return analyzer;
}

TEST(MemSystem, SharedL2ConservesPerCoreMisses) {
  CacheConfig config = tinyConfig();
  config.l1d = {4 * 1024, 8, 4};
  config.l2 = {32 * 1024, 8, 12};
  const std::vector<unsigned> cores{1, 2, 4};
  const MemSystemAnalyzer analyzer = runStream(config, cores);

  const std::vector<ScalingPoint> points = analyzer.scaling();
  ASSERT_EQ(points.size(), 3u);
  for (const ScalingPoint& point : points) {
    ASSERT_EQ(point.perCore.size(), point.cores);
    std::uint64_t l1MissSum = 0;
    std::uint64_t l2MissSum = 0;
    std::uint64_t l2HitSum = 0;
    for (const CoreShare& share : point.perCore) {
      EXPECT_GT(share.accesses, 0u);
      l1MissSum += share.l1Misses;
      l2MissSum += share.l2Misses;
      l2HitSum += share.l2Hits;
    }
    EXPECT_EQ(l1MissSum, point.sharedL2Accesses) << point.cores << " cores";
    EXPECT_EQ(l2MissSum, point.sharedL2Misses) << point.cores << " cores";
    EXPECT_EQ(l2HitSum, point.sharedL2Hits) << point.cores << " cores";
    EXPECT_EQ(point.sharedL2Hits + point.sharedL2Misses,
              point.sharedL2Accesses)
        << point.cores << " cores";
    EXPECT_GT(point.sharedL2Misses, 0u);  // non-vacuous
  }
  // Contention is real: 4 cores through one L2 miss at least as much in
  // total as 4x the single-core point would.
  EXPECT_GE(points[2].sharedL2Misses, 4 * points[0].sharedL2Misses);
}

TEST(MemSystem, SingleCoreScalingMatchesPrivateHierarchy) {
  // With no prefetcher the 1-core shared model and the private replica
  // see the identical demand stream, so their miss counts must agree —
  // two independent code paths computing one number.
  CacheConfig config = tinyConfig();
  config.l1d = {4 * 1024, 8, 4};
  config.l2 = {32 * 1024, 8, 12};
  const std::vector<unsigned> cores{1};
  const MemSystemAnalyzer analyzer = runStream(config, cores);

  const std::vector<ScalingPoint> points = analyzer.scaling();
  ASSERT_EQ(points.size(), 1u);
  const CoreShare& share = points[0].perCore[0];
  const HierarchyStats& h = analyzer.hierarchyTotals();
  EXPECT_EQ(share.l1Misses, h.l1Misses);
  EXPECT_EQ(share.l2Hits, h.l2Hits);
  EXPECT_EQ(share.l2Misses, h.l2Misses);
  EXPECT_EQ(share.latencyCycles,
            (share.accesses - share.l1Misses) * config.l1d.latency +
                share.l2Hits * config.l2.latency +
                share.l2Misses * config.memoryLatency);
}

TEST(MemSystem, PageSetsAreIsaInvariant) {
  CacheConfig config = tinyConfig();
  config.l1d = {4 * 1024, 8, 4};
  config.l2 = {32 * 1024, 8, 12};
  const std::vector<unsigned> cores{1};
  const MemSystemAnalyzer a64 = runStream(config, cores, Arch::AArch64);
  const MemSystemAnalyzer rv64 = runStream(config, cores, Arch::Rv64);

  EXPECT_EQ(a64.summary().footprintPages, rv64.summary().footprintPages);
  EXPECT_EQ(a64.summary().pageSetDigest, rv64.summary().pageSetDigest);
  EXPECT_EQ(a64.summary().tlb.walks, rv64.summary().tlb.walks);
  ASSERT_EQ(a64.kernels().size(), rv64.kernels().size());
  for (std::size_t k = 0; k < a64.kernels().size(); ++k) {
    EXPECT_EQ(a64.kernels()[k].name, rv64.kernels()[k].name);
    EXPECT_EQ(a64.kernels()[k].tlbWalks, rv64.kernels()[k].tlbWalks);
    EXPECT_EQ(a64.kernels()[k].pageSetDigest,
              rv64.kernels()[k].pageSetDigest);
  }
  EXPECT_GT(a64.summary().footprintPages, 1u);  // non-vacuous
}

TEST(MemSystem, FreshAnalyzerListsKernelNamesAndCoreCounts) {
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{1, 2};
  MemSystemAnalyzer analyzer(tinyConfig(), program, cores);

  EXPECT_EQ(analyzer.instructions(), 0u);
  EXPECT_EQ(analyzer.summary(), MemSummary{});
  ASSERT_EQ(analyzer.kernels().size(), 1u);
  EXPECT_EQ(analyzer.kernels()[0].name, "edge");
  EXPECT_EQ(analyzer.kernels()[0].tlbAccesses, 0u);
  const std::vector<ScalingPoint> points = analyzer.scaling();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].cores, 1u);
  EXPECT_EQ(points[1].cores, 2u);
  EXPECT_EQ(points[1].sharedL2Accesses, 0u);

  analyzer.onRetire(loadAt(0x10000, 0));
  EXPECT_EQ(analyzer.summary().tlb.walks, 1u);
}

TEST(MemSystem, DuplicateAndZeroCoreCountsAreIgnored) {
  const Program program = kernelProgram();
  const std::vector<unsigned> cores{0, 2, 2, 1};
  MemSystemAnalyzer analyzer(tinyConfig(), program, cores);
  const std::vector<ScalingPoint> points = analyzer.scaling();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].cores, 2u);
  EXPECT_EQ(points[1].cores, 1u);
}


// ---- Differential: the scaling model against private L1s per core ----

/// The shared-L2 scaling model written out the direct way: every
/// simulated core owns a private L1, and core `c` replays each demand line
/// at `line + c * 2^24` through its L1 into the shared, non-inclusive L2.
/// MemSystemAnalyzer must reproduce every ScalingPoint field of this
/// reference. It also counts which write-back path each dirty L1 victim
/// takes, so the tests can show that both paths were exercised.
class PrivateL1Reference final : public TraceObserver {
 public:
  PrivateL1Reference(const CacheConfig& config,
                     std::span<const unsigned> coreCounts)
      : config_(config) {
    for (const unsigned cores : coreCounts) {
      Point point{{}, Cache(config.l2Sets(), config.l2.ways), {}};
      for (unsigned c = 0; c < cores; ++c) {
        point.l1.emplace_back(config.l1Sets(), config.l1d.ways);
      }
      point.result.cores = cores;
      point.result.perCore.resize(cores);
      points_.push_back(std::move(point));
    }
  }

  void onRetireBlock(std::span<const RetiredInst> block) override {
    for (const RetiredInst& inst : block) {
      for (const MemAccess& access : inst.loads) accessBytes(access, false);
      for (const MemAccess& access : inst.stores) accessBytes(access, true);
    }
  }

  [[nodiscard]] std::vector<ScalingPoint> scaling() const {
    std::vector<ScalingPoint> out;
    for (const Point& p : points_) {
      ScalingPoint point = p.result;
      point.bytesFromMem = (point.sharedL2Misses + point.sharedWritebacksToMem) *
                           config_.lineBytes;
      point.bandwidthBoundCycles =
          (point.bytesFromMem + config_.memBytesPerCycle - 1) /
          config_.memBytesPerCycle;
      std::uint64_t missCycles = 0;
      for (const CoreShare& share : point.perCore) {
        missCycles += share.l2Hits * config_.l2.latency +
                      share.l2Misses * config_.memoryLatency;
      }
      const std::uint64_t mshrs = std::uint64_t{config_.mshrs} * point.cores;
      point.mshrBoundCycles = (missCycles + mshrs - 1) / mshrs;
      out.push_back(std::move(point));
    }
    return out;
  }

  std::uint64_t writebacksIntoResidentL2Line = 0;
  std::uint64_t writebacksRefillingL2 = 0;

 private:
  static constexpr std::uint64_t kCoreOffsetLines = std::uint64_t{1} << 24;

  struct Point {
    std::vector<Cache> l1;  ///< one per core
    Cache l2;
    ScalingPoint result;
  };

  void accessBytes(const MemAccess& access, bool write) {
    const std::uint64_t lineBytes = config_.lineBytes;
    const std::uint64_t last = access.addr + std::max<std::uint64_t>(access.size, 1) - 1;
    for (std::uint64_t line = access.addr / lineBytes; line <= last / lineBytes;
         ++line) {
      for (Point& point : points_) {
        for (std::uint32_t c = 0; c < point.result.cores; ++c) {
          accessLine(point, c, line + c * kCoreOffsetLines, write);
        }
      }
    }
  }

  void accessLine(Point& point, std::uint32_t core, std::uint64_t line,
                  bool write) {
    CoreShare& share = point.result.perCore[core];
    ++share.accesses;
    if (point.l1[core].access(line, write).hit) {
      share.latencyCycles += config_.l1d.latency;
      return;
    }
    ++share.l1Misses;
    ++point.result.sharedL2Accesses;
    if (point.l2.access(line, false).hit) {
      ++point.result.sharedL2Hits;
      ++share.l2Hits;
      share.latencyCycles += config_.l2.latency;
    } else {
      ++point.result.sharedL2Misses;
      ++share.l2Misses;
      share.latencyCycles += config_.memoryLatency;
      if (point.l2.fill(line, false, false).dirty) {
        ++point.result.sharedWritebacksToMem;
      }
    }
    const Cache::Eviction victim = point.l1[core].fill(line, write, false);
    if (!victim.valid || !victim.dirty) return;
    if (point.l2.contains(victim.line)) {
      ++writebacksIntoResidentL2Line;
      point.l2.access(victim.line, true);
    } else {
      ++writebacksRefillingL2;
      if (point.l2.fill(victim.line, true, false).dirty) {
        ++point.result.sharedWritebacksToMem;
      }
    }
  }

  CacheConfig config_;
  std::vector<Point> points_;
};

void expectSameScaling(const std::vector<ScalingPoint>& actual,
                       const std::vector<ScalingPoint>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const ScalingPoint& a = actual[i];
    const ScalingPoint& e = expected[i];
    const std::string where = label + ", " + std::to_string(e.cores) + " cores";
    EXPECT_EQ(a.cores, e.cores) << where;
    EXPECT_EQ(a.sharedL2Accesses, e.sharedL2Accesses) << where;
    EXPECT_EQ(a.sharedL2Hits, e.sharedL2Hits) << where;
    EXPECT_EQ(a.sharedL2Misses, e.sharedL2Misses) << where;
    EXPECT_EQ(a.sharedWritebacksToMem, e.sharedWritebacksToMem) << where;
    EXPECT_EQ(a.bytesFromMem, e.bytesFromMem) << where;
    EXPECT_EQ(a.bandwidthBoundCycles, e.bandwidthBoundCycles) << where;
    EXPECT_EQ(a.mshrBoundCycles, e.mshrBoundCycles) << where;
    ASSERT_EQ(a.perCore.size(), e.perCore.size()) << where;
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
      const std::string core = where + ", core " + std::to_string(c);
      EXPECT_EQ(a.perCore[c].accesses, e.perCore[c].accesses) << core;
      EXPECT_EQ(a.perCore[c].l1Misses, e.perCore[c].l1Misses) << core;
      EXPECT_EQ(a.perCore[c].l2Hits, e.perCore[c].l2Hits) << core;
      EXPECT_EQ(a.perCore[c].l2Misses, e.perCore[c].l2Misses) << core;
      EXPECT_EQ(a.perCore[c].latencyCycles, e.perCore[c].latencyCycles)
          << core;
    }
    EXPECT_TRUE(a == e) << where;
  }
}

/// A seeded stream of records, each with up to two loads and two stores,
/// over a pool of `poolLines` lines: small enough to hit, large enough to
/// evict from the tiny geometries below. Offsets inside a line are random,
/// so some accesses straddle two lines.
std::vector<RetiredInst> randomRecords(std::uint64_t seed,
                                       std::uint64_t poolLines,
                                       std::size_t count) {
  std::mt19937_64 rng(seed);
  const auto randomAccess = [&] {
    constexpr std::uint8_t kSizes[] = {1, 2, 4, 8};
    return MemAccess{(rng() % poolLines) * 64 + rng() % 64, kSizes[rng() % 4]};
  };
  std::vector<RetiredInst> records(count);
  for (RetiredInst& inst : records) {
    inst.pc = 0x10000;
    for (std::uint64_t n = rng() % 3; n > 0; --n) {
      inst.loads.push_back(randomAccess());
    }
    for (std::uint64_t n = rng() % 3; n > 0; --n) {
      inst.stores.push_back(randomAccess());
    }
  }
  return records;
}

TEST(MemSystemDifferential, RandomStreamsMatchPrivateL1Reference) {
  // Direct-mapped, 2-way and fully associative 4-line L1s, each over an L2
  // barely larger (one 5-way set) and over a 16-line 2-way L2.
  const LevelConfig l1s[] = {{256, 1, 4}, {256, 2, 4}, {256, 4, 4}};
  const LevelConfig l2s[] = {{320, 5, 12}, {1024, 2, 12}};
  const std::vector<std::vector<unsigned>> coreSets = {{1, 2, 4}, {3}};
  const Program program = kernelProgram();

  for (const LevelConfig& l1 : l1s) {
    for (const LevelConfig& l2 : l2s) {
      CacheConfig config = tinyConfig();
      config.l1d = l1;
      config.l2 = l2;
      std::uint64_t resident = 0;
      std::uint64_t refill = 0;
      for (const std::vector<unsigned>& cores : coreSets) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          const std::vector<RetiredInst> records =
              randomRecords(seed, 12, 1500);
          MemSystemAnalyzer analyzer(config, program, cores);
          PrivateL1Reference reference(config, cores);
          analyzer.onRetireBlock(records);
          reference.onRetireBlock(records);
          expectSameScaling(analyzer.scaling(), reference.scaling(),
                            "L1 " + std::to_string(l1.ways) + "-way, L2 " +
                                std::to_string(l2.sizeBytes) + " B, seed " +
                                std::to_string(seed));
          resident += reference.writebacksIntoResidentL2Line;
          refill += reference.writebacksRefillingL2;
        }
      }
      // Both write-back paths of the non-inclusive L2 were exercised.
      EXPECT_GT(resident, 0u) << l1.ways << "-way L1, " << l2.sizeBytes;
      EXPECT_GT(refill, 0u) << l1.ways << "-way L1, " << l2.sizeBytes;
    }
  }
}

TEST(MemSystemDifferential, SuiteKernelsMatchPrivateL1Reference) {
  CacheConfig config = tinyConfig();
  config.l1d = {4 * 1024, 8, 4};
  config.l2 = {32 * 1024, 8, 12};
  const std::vector<unsigned> cores{1, 2, 4};
  for (const workloads::WorkloadSpec& workload : workloads::paperSuite(0.05)) {
    for (const Arch arch : {Arch::Rv64, Arch::AArch64}) {
      const kgen::Compiled compiled =
          kgen::compile(workload.module, arch, kgen::CompilerEra::Gcc12);
      MemSystemAnalyzer analyzer(config, compiled.program, cores);
      PrivateL1Reference reference(config, cores);
      Machine machine(compiled.program);
      machine.addObserver(analyzer);
      machine.addObserver(reference);
      machine.run();
      const std::vector<ScalingPoint> expected = reference.scaling();
      expectSameScaling(analyzer.scaling(), expected,
                        workload.name + (arch == Arch::Rv64 ? " rv64" : " a64"));
      EXPECT_GT(expected.back().sharedL2Accesses, 0u) << workload.name;
    }
  }
}

}  // namespace
}  // namespace riscmp::uarch::mem
