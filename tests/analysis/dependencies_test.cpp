// Differential tests of the shared dependency front end (paper §4.1).
//
// Seeded random traces exercise the corners of the RAW rule: duplicate
// source registers, a source that is also a destination, unaligned 1-8 byte
// accesses that straddle 8-byte chunks and 4 KiB pages, and loads and
// stores in one instruction. Every analysis built on the resolver is
// checked against a brute-force reference written here straight from the
// rule (each window, each kernel's sub-trace recomputed from the raw
// records), and every way of driving the analyzers — shared
// DependencyFrontEnds, a front end of CPs only, standalone blocks, and
// onRetire one record at a time — must agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/dep_distance.hpp"
#include "analysis/dependencies.hpp"
#include "analysis/throughput_bound.hpp"
#include "analysis/windowed_cp.hpp"
#include "core/program.hpp"
#include "support/stats.hpp"
#include "uarch/mem/cache_aware_cp.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp {
namespace {

// ---- Random traces -------------------------------------------------------

Reg randomReg(std::mt19937_64& rng) {
  // A small register pool so that chains, duplicates and overwrites are
  // frequent; all three register classes appear.
  const unsigned pick = static_cast<unsigned>(rng() % 10);
  if (pick < 6) return Reg::gp(pick);
  if (pick < 9) return Reg::fp(pick - 6);
  return Reg::flags();
}

MemAccess randomAccess(std::mt19937_64& rng) {
  // Mostly a 96-byte window (dense reuse); sometimes the bytes around a
  // 4 KiB page boundary, so an access can straddle two chunk pages.
  const std::uint64_t base = rng() % 4 == 0 ? 0x1ffa0 : 0x10000;
  MemAccess access;
  access.addr = base + rng() % 96;
  access.size = static_cast<std::uint8_t>(1 + rng() % 8);
  return access;
}

std::vector<RetiredInst> randomTrace(std::uint64_t seed, std::size_t length) {
  std::mt19937_64 rng(seed);
  std::vector<RetiredInst> trace(length);
  for (RetiredInst& inst : trace) {
    inst.group = static_cast<InstGroup>(rng() % kInstGroupCount);
    const std::size_t srcs = rng() % 6;
    for (std::size_t i = 0; i < srcs; ++i) inst.srcs.push_back(randomReg(rng));
    if (!inst.srcs.empty() && rng() % 4 == 0) {
      inst.srcs[inst.srcs.size() - 1] = inst.srcs[0];  // duplicate source
    }
    const std::size_t dsts = rng() % 4;
    for (std::size_t i = 0; i < dsts; ++i) inst.dsts.push_back(randomReg(rng));
    if (!inst.srcs.empty() && !inst.dsts.empty() && rng() % 3 == 0) {
      inst.dsts[0] = inst.srcs[0];  // a source that is also a destination
    }
    const std::size_t loads = rng() % 3;
    for (std::size_t i = 0; i < loads; ++i) {
      inst.loads.push_back(randomAccess(rng));
    }
    const std::size_t stores = rng() % 3;
    for (std::size_t i = 0; i < stores; ++i) {
      inst.stores.push_back(randomAccess(rng));
    }
  }
  return trace;
}

// ---- Brute-force reference, straight from §4.1 --------------------------

/// A register or an 8-byte chunk, as the rule names them.
struct Location {
  bool memory = false;
  std::uint64_t id = 0;
  bool operator==(const Location&) const = default;
};

std::vector<Location> sourcesOf(const RetiredInst& inst) {
  std::vector<Location> out;
  for (const Reg& reg : inst.srcs) out.push_back({false, reg.dense()});
  for (const MemAccess& access : inst.loads) {
    for (std::uint64_t byte = access.addr; byte < access.addr + access.size;
         ++byte) {
      const Location chunk{true, byte / 8};
      if (out.empty() || !(out.back() == chunk)) out.push_back(chunk);
    }
  }
  return out;
}

bool writes(const RetiredInst& inst, const Location& location) {
  if (!location.memory) {
    return std::any_of(inst.dsts.begin(), inst.dsts.end(), [&](Reg reg) {
      return reg.dense() == location.id;
    });
  }
  return std::any_of(
      inst.stores.begin(), inst.stores.end(), [&](const MemAccess& access) {
        return access.addr / 8 <= location.id &&
               location.id <= (access.addr + access.size - 1) / 8;
      });
}

/// Latest record in [from, i) writing `location`, if any.
std::optional<std::size_t> latestWriter(const std::vector<RetiredInst>& trace,
                                        std::size_t from, std::size_t i,
                                        const Location& location) {
  for (std::size_t j = i; j-- > from;) {
    if (writes(trace[j], location)) return j;
  }
  return std::nullopt;
}

std::uint64_t costOf(const RetiredInst& inst, const LatencyTable* latencies) {
  const bool isMem = !inst.loads.empty() || !inst.stores.empty();
  if (latencies == nullptr || isMem) return 1;
  return (*latencies)[static_cast<std::size_t>(inst.group)];
}

/// Critical path of trace[from, to), dependencies cut at `from`, where
/// record i costs `cost(i)`.
template <typename Cost>
std::uint64_t referenceCpWith(const std::vector<RetiredInst>& trace,
                              std::size_t from, std::size_t to,
                              const Cost& cost) {
  std::vector<std::uint64_t> depth(to - from, 0);
  std::uint64_t cp = 0;
  for (std::size_t i = from; i < to; ++i) {
    std::uint64_t d = 0;
    for (const Location& source : sourcesOf(trace[i])) {
      if (const auto producer = latestWriter(trace, from, i, source)) {
        d = std::max(d, depth[*producer - from]);
      }
    }
    depth[i - from] = d + cost(i);
    cp = std::max(cp, depth[i - from]);
  }
  return cp;
}

/// The same, at unit cost (no table) or each record's table latency.
std::uint64_t referenceCp(const std::vector<RetiredInst>& trace,
                          std::size_t from, std::size_t to,
                          const LatencyTable* latencies) {
  return referenceCpWith(trace, from, to, [&](std::size_t i) {
    return costOf(trace[i], latencies);
  });
}

std::vector<WindowedCPAnalyzer::WindowResult> referenceWindows(
    const std::vector<RetiredInst>& trace,
    const std::vector<std::uint32_t>& sizes, unsigned numerator,
    unsigned denominator, const LatencyTable* latencies) {
  std::vector<WindowedCPAnalyzer::WindowResult> out;
  for (const std::uint32_t size : sizes) {
    RunningStats stats;
    const std::uint64_t slide = std::max<std::uint64_t>(
        1, std::uint64_t{size} * numerator / denominator);
    for (std::size_t start = 0; start + size <= trace.size(); start += slide) {
      stats.add(static_cast<double>(
          referenceCp(trace, start, start + size, latencies)));
    }
    WindowedCPAnalyzer::WindowResult result;
    result.windowSize = size;
    result.windows = stats.count();
    result.meanCp = stats.mean();
    result.minCp = stats.min();
    result.maxCp = stats.max();
    out.push_back(result);
  }
  return out;
}

struct DistanceReference {
  RunningStats stats;
  std::array<std::uint64_t, DependencyDistanceAnalyzer::kBuckets> histogram{};
};

DistanceReference referenceDistances(const std::vector<RetiredInst>& trace) {
  DistanceReference out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    // One sample per source operand, duplicates included, in operand order.
    std::vector<Location> operands;
    for (const Reg& reg : trace[i].srcs) operands.push_back({false, reg.dense()});
    for (const MemAccess& access : trace[i].loads) {
      for (std::uint64_t chunk = access.addr / 8;
           chunk <= (access.addr + access.size - 1) / 8; ++chunk) {
        operands.push_back({true, chunk});
      }
    }
    for (const Location& operand : operands) {
      if (const auto producer = latestWriter(trace, 0, i, operand)) {
        const std::uint64_t distance = i - *producer;
        out.stats.add(static_cast<double>(distance));
        const auto bucket =
            static_cast<std::size_t>(std::bit_width(distance) - 1);
        ++out.histogram[std::min(bucket, out.histogram.size() - 1)];
      }
    }
  }
  return out;
}

// ---- Driving the analyzers three ways ------------------------------------

struct WindowConfig {
  std::vector<std::uint32_t> sizes;
  unsigned numerator;
  unsigned denominator;
  /// 0: unscaled; otherwise the windows scale by the test latencies times
  /// this factor.
  std::uint32_t latencyScale;
};

struct Results {
  std::uint64_t cp = 0;
  std::uint64_t scaledCp = 0;
  std::vector<std::vector<WindowedCPAnalyzer::WindowResult>> windows;
  double meanDistance = 0.0;
  std::uint64_t dependencies = 0;
  std::array<std::uint64_t, DependencyDistanceAnalyzer::kBuckets> histogram{};
};

/// Shared: one front end per windowed analyzer, the first also running CP,
/// scaled CP and dependency distance. SharedChains: CP and scaled CP
/// through a front end of their own (no producers), the rest standalone.
/// Standalone: each analyzer resolves through its private resolver.
/// PerRecord: standalone, one record at a time.
enum class Drive { Shared, SharedChains, Standalone, PerRecord };

/// Block boundaries that vary with the seed: a block may hold one record.
std::vector<std::span<const RetiredInst>> blocksOf(
    const std::vector<RetiredInst>& trace, std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5eed);
  std::vector<std::span<const RetiredInst>> blocks;
  for (std::size_t at = 0; at < trace.size();) {
    const std::size_t size = std::min<std::size_t>(
        trace.size() - at, 1 + rng() % 300);
    blocks.emplace_back(trace.data() + at, size);
    at += size;
  }
  return blocks;
}

LatencyTable testLatencies() {
  LatencyTable table;
  for (std::size_t g = 0; g < table.size(); ++g) {
    table[g] = static_cast<std::uint32_t>(1 + (g * 7) % 13);
  }
  return table;
}

std::optional<LatencyTable> windowLatencies(const WindowConfig& config) {
  if (config.latencyScale == 0) return std::nullopt;
  LatencyTable table = testLatencies();
  for (std::uint32_t& latency : table) latency *= config.latencyScale;
  return table;
}

Results drive(const std::vector<RetiredInst>& trace, std::uint64_t seed,
              const LatencyTable& latencies,
              const std::vector<WindowConfig>& configs, Drive mode) {
  CriticalPathAnalyzer cp;
  CriticalPathAnalyzer scaled(latencies);
  DependencyDistanceAnalyzer distance;
  std::vector<WindowedCPAnalyzer> windowed;
  for (const WindowConfig& config : configs) {
    const std::optional<LatencyTable> table = windowLatencies(config);
    windowed.emplace_back(config.sizes, config.numerator, config.denominator,
                          table ? &*table : nullptr);
  }
  std::vector<TraceObserver*> all{&cp, &scaled, &distance};
  for (WindowedCPAnalyzer& analyzer : windowed) all.push_back(&analyzer);

  std::vector<DependencyFrontEnd> fronts;
  fronts.reserve(windowed.size());
  for (std::size_t c = 0; c < windowed.size(); ++c) {
    DependencyConsumers consumers;
    consumers.windowed = &windowed[c];
    if (c == 0) {
      consumers.criticalPath = &cp;
      consumers.scaledCp = &scaled;
      consumers.distance = &distance;
    }
    fronts.emplace_back(consumers);
  }
  DependencyFrontEnd chains(DependencyConsumers{&cp, &scaled});
  for (const std::span<const RetiredInst> block : blocksOf(trace, seed)) {
    switch (mode) {
      case Drive::Shared:
        for (DependencyFrontEnd& front : fronts) front.onRetireBlock(block);
        break;
      case Drive::SharedChains:
        chains.onRetireBlock(block);
        for (std::size_t i = 2; i < all.size(); ++i) {
          all[i]->onRetireBlock(block);
        }
        break;
      case Drive::Standalone:
        for (TraceObserver* observer : all) observer->onRetireBlock(block);
        break;
      case Drive::PerRecord:
        for (const RetiredInst& inst : block) {
          for (TraceObserver* observer : all) observer->onRetire(inst);
        }
        break;
    }
  }

  Results out;
  out.cp = cp.criticalPath();
  out.scaledCp = scaled.criticalPath();
  for (const WindowedCPAnalyzer& analyzer : windowed) {
    out.windows.push_back(analyzer.results());
  }
  out.meanDistance = distance.meanDistance();
  out.dependencies = distance.dependencies();
  out.histogram = distance.histogram();
  return out;
}

void expectSameWindows(const std::vector<WindowedCPAnalyzer::WindowResult>& a,
                       const std::vector<WindowedCPAnalyzer::WindowResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window size " + std::to_string(a[i].windowSize));
    EXPECT_EQ(a[i].windowSize, b[i].windowSize);
    EXPECT_EQ(a[i].windows, b[i].windows);
    if (a[i].windows == 0) continue;  // min/max are NaN when empty
    // Bit-exact: the same samples added in the same order.
    EXPECT_EQ(a[i].meanCp, b[i].meanCp);
    EXPECT_EQ(a[i].minCp, b[i].minCp);
    EXPECT_EQ(a[i].maxCp, b[i].maxCp);
  }
}

std::vector<std::uint32_t> evenSizesTo40() {
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t size = 2; size <= 40; size += 2) sizes.push_back(size);
  return sizes;
}

/// Every kernel the windowed analyzer can pick. Each size takes
/// ceil(size / slide) lanes; 9 to 16 int16_t lanes (2 chunks) run held in
/// registers, every other lane count in place, and depths past 32767 or
/// 2^31 take int32_t or int64_t lanes (in place).
const std::vector<WindowConfig>& windowConfigs() {
  static const std::vector<WindowConfig> configs = {
      {{4, 16, 64, 200}, 1, 2, 0},   // half slide: 8 lanes, in place
      {{1, 3, 16, 3, 50}, 1, 8, 0},  // repeated size, eighth slide: 24
      {{5, 64}, 1, 1, 0},            // disjoint windows: 2
      {{4, 16, 64}, 1, 2, 1},        // latency-scaled: 6
      {{7, 33}, 1, 8, 1},            // 16 lanes: in registers
      {{6, 40}, 3, 2, 0},            // gaps between windows: idle lanes
      {{4, 8, 16}, 1, 2, 0},         // all three close on records 15, 31, ...
      {{6, 6}, 1, 2, 0},             // both close on every window end
      {{3, 12}, 1, 12, 0},           // slide 1: 15 lanes
      {{64, 500}, 1, 8, 0},          // E10's eighth slide: 17 lanes
      {{4, 8, 12, 16, 20, 24, 28}, 1, 4, 0},  // 28 lanes, 4 chunks: in place
      {evenSizesTo40(), 1, 2, 0},    // 20 sizes, 40 lanes: in place
      {{4, 16}, 1, 2, 1000},         // depths past 32767: int32_t
      {{4, 16}, 1, 2, 100000000},    // depths past 2^31: int64_t
  };
  return configs;
}

class DependencyDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DependencyDifferential, AnalyzersMatchTheBruteForceRule) {
  const std::uint64_t seed = GetParam();
  const std::vector<RetiredInst> trace = randomTrace(seed, 700);
  const LatencyTable latencies = testLatencies();
  const Results shared =
      drive(trace, seed, latencies, windowConfigs(), Drive::Shared);

  EXPECT_EQ(shared.cp, referenceCp(trace, 0, trace.size(), nullptr));
  EXPECT_EQ(shared.scaledCp, referenceCp(trace, 0, trace.size(), &latencies));
  for (std::size_t c = 0; c < windowConfigs().size(); ++c) {
    const WindowConfig& config = windowConfigs()[c];
    SCOPED_TRACE("window config " + std::to_string(c));
    const std::optional<LatencyTable> table = windowLatencies(config);
    expectSameWindows(
        shared.windows[c],
        referenceWindows(trace, config.sizes, config.numerator,
                         config.denominator, table ? &*table : nullptr));
  }
  const DistanceReference distances = referenceDistances(trace);
  EXPECT_EQ(shared.dependencies, distances.stats.count());
  EXPECT_EQ(shared.meanDistance, distances.stats.mean());
  EXPECT_EQ(shared.histogram, distances.histogram);
}

TEST_P(DependencyDifferential, SharedStandaloneAndPerRecordAgree) {
  const std::uint64_t seed = GetParam();
  const std::vector<RetiredInst> trace = randomTrace(seed, 3000);
  const LatencyTable latencies = testLatencies();
  const Results shared =
      drive(trace, seed, latencies, windowConfigs(), Drive::Shared);
  for (const Drive mode :
       {Drive::SharedChains, Drive::Standalone, Drive::PerRecord}) {
    const Results other = drive(trace, seed, latencies, windowConfigs(), mode);
    EXPECT_EQ(other.cp, shared.cp);
    EXPECT_EQ(other.scaledCp, shared.scaledCp);
    for (std::size_t c = 0; c < shared.windows.size(); ++c) {
      expectSameWindows(other.windows[c], shared.windows[c]);
    }
    EXPECT_EQ(other.meanDistance, shared.meanDistance);
    EXPECT_EQ(other.dependencies, shared.dependencies);
    EXPECT_EQ(other.histogram, shared.histogram);
  }
}

// ---- Chains with costs of their own: throughput bound, cache-aware CP ----

/// Kernel regions for the throughput chains: "a" has two regions (one
/// kernel, two address ranges), and pc 0x5000 lies outside every kernel.
Program kernelProgram() {
  Program program;
  program.kernels = {{"a", 0x1000, 0x100},
                     {"b", 0x2000, 0x100},
                     {"c", 0x3000, 0x100},
                     {"a", 0x4000, 0x100}};
  return program;
}

/// The trace with each record's pc drawn from the regions above.
std::vector<RetiredInst> withKernelPcs(std::vector<RetiredInst> trace,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xc0de);
  for (RetiredInst& inst : trace) {
    inst.pc = 0x1000 * (1 + rng() % 5) + 4 * (rng() % 64);
  }
  return trace;
}

/// One port accepting every group, so any record can issue.
ThroughputModel anyPortModel(const LatencyTable& latencies) {
  ThroughputModel model;
  model.name = "any";
  model.ports = {{"p0", (1u << kInstGroupCount) - 1}};
  model.latencies = latencies;
  return model;
}

/// A small hierarchy (16-byte lines, 4-set direct-mapped L1) that the
/// random traces' two address ranges keep missing in.
uarch::mem::CacheConfig smallCaches() {
  uarch::mem::CacheConfig config;
  config.lineBytes = 16;
  config.l1d = {64, 1, 3};
  config.l2 = {128, 2, 11};
  config.memoryLatency = 47;
  return config;
}

/// Feed `trace` to `observer` block by block, or one record at a time.
void feed(TraceObserver& observer, const std::vector<RetiredInst>& trace,
          std::uint64_t seed, bool perRecord) {
  for (const std::span<const RetiredInst> block : blocksOf(trace, seed)) {
    if (!perRecord) {
      observer.onRetireBlock(block);
      continue;
    }
    for (const RetiredInst& inst : block) observer.onRetire(inst);
  }
}

TEST_P(DependencyDifferential, ThroughputChainsMatchTheBruteForceRule) {
  const std::uint64_t seed = GetParam();
  const std::vector<RetiredInst> trace =
      withKernelPcs(randomTrace(seed, 700), seed);
  const LatencyTable latencies = testLatencies();
  const Program program = kernelProgram();
  const KernelMap kernels(program);

  // Each kernel's chain is the scaled CP of its own sub-trace.
  std::vector<std::vector<RetiredInst>> subTraces(kernels.names().size());
  for (const RetiredInst& inst : trace) {
    const std::int32_t kernel = kernels.slotOf(inst);
    if (kernel >= 0) subTraces[static_cast<std::size_t>(kernel)].push_back(inst);
  }
  for (const bool perRecord : {false, true}) {
    SCOPED_TRACE(perRecord ? "one record at a time" : "blocks");
    ThroughputBoundAnalyzer analyzer(anyPortModel(latencies), program);
    feed(analyzer, trace, seed, perRecord);
    EXPECT_EQ(analyzer.program().cpBound,
              referenceCp(trace, 0, trace.size(), &latencies));
    const auto bounds = analyzer.kernels();
    ASSERT_EQ(bounds.size(), subTraces.size());
    for (std::size_t k = 0; k < bounds.size(); ++k) {
      SCOPED_TRACE("kernel " + bounds[k].name);
      EXPECT_GT(subTraces[k].size(), 0u);  // every kernel is exercised
      EXPECT_EQ(bounds[k].instructions, subTraces[k].size());
      EXPECT_EQ(bounds[k].cpBound,
                referenceCp(subTraces[k], 0, subTraces[k].size(),
                            &latencies));
    }
  }
}

TEST_P(DependencyDifferential, CacheAwareCpMatchesTheBruteForceRule) {
  const std::uint64_t seed = GetParam();
  const std::vector<RetiredInst> trace = randomTrace(seed, 700);
  const LatencyTable latencies = testLatencies();

  // Costs from replaying the trace through a hierarchy of the same
  // geometry: a load's slowest access, 1 for a store alone (forwarded),
  // the group latency otherwise.
  uarch::mem::MemoryHierarchy hierarchy(smallCaches());
  std::vector<std::uint64_t> costs;
  std::uint32_t slowest = 0;
  for (const RetiredInst& inst : trace) {
    std::uint32_t latency = 0;
    for (const MemAccess& access : inst.loads) {
      latency =
          std::max(latency, hierarchy.load(access.addr, access.size).latency);
    }
    for (const MemAccess& access : inst.stores) {
      hierarchy.store(access.addr, access.size);
    }
    slowest = std::max(slowest, latency);
    costs.push_back(inst.loads.empty() ? costOf(inst, &latencies) : latency);
  }
  EXPECT_EQ(slowest, smallCaches().memoryLatency);  // misses reach memory
  const std::uint64_t expected = referenceCpWith(
      trace, 0, trace.size(), [&](std::size_t i) { return costs[i]; });

  for (const bool perRecord : {false, true}) {
    SCOPED_TRACE(perRecord ? "one record at a time" : "blocks");
    uarch::mem::CacheAwareCpAnalyzer analyzer(latencies, smallCaches());
    feed(analyzer, trace, seed, perRecord);
    EXPECT_EQ(analyzer.criticalPath(), expected);
    EXPECT_EQ(analyzer.instructions(), trace.size());
    EXPECT_EQ(analyzer.cacheStats(), hierarchy.stats());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependencyDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---- The resolver itself ------------------------------------------------

/// What the resolver reports for one record.
struct Reported {
  std::vector<std::uint64_t> producers;  ///< one per source, in order
  std::size_t destinations = 0;
};

/// A sink that records every call, with or without producers.
template <bool kWithProducers>
struct Recorder : ResolverSink {
  static constexpr bool kProducers = kWithProducers;
  std::vector<Reported> records;
  Reported current;

  void source(std::uint32_t, std::uint64_t producer) {
    current.producers.push_back(producer);
  }
  void destination(std::uint32_t) { ++current.destinations; }
  void recordDone() { records.push_back(std::exchange(current, {})); }
};

TEST(DependencyResolver, AccessesCoverAtMostTwoChunksAndAllAreResolved) {
  // The widest record the executors can retire: five source registers and
  // two 8-byte loads that each straddle a chunk boundary, i.e. 5 + 2 * 2
  // sources. No operand is dropped or capped.
  std::vector<RetiredInst> trace(3);
  for (unsigned r = 0; r < 3; ++r) trace[0].dsts.push_back(Reg::gp(r));
  for (unsigned r = 3; r < 5; ++r) trace[1].dsts.push_back(Reg::gp(r));
  trace[1].stores.push_back({0x1004, 8});
  trace[1].stores.push_back({0x2004, 8});
  for (unsigned r = 0; r < 5; ++r) trace[2].srcs.push_back(Reg::gp(r));
  trace[2].loads.push_back({0x1004, 8});
  trace[2].loads.push_back({0x2004, 8});
  for (const MemAccess& access : trace[2].loads) {
    const ChunkRange range = chunkRange(access);
    EXPECT_EQ(range.last - range.first, 1u);
  }

  DependencyResolver resolver;
  Recorder<true> recorder;
  resolver.resolveInto(trace, recorder);
  ASSERT_EQ(recorder.records.size(), 3u);
  EXPECT_EQ(recorder.records[2].producers,
            (std::vector<std::uint64_t>{0, 0, 0, 1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(recorder.records[1].destinations, 2u + 4u);  // regs, chunks

  // Windowed CP keeps every one of the nine producers.
  WindowedCPAnalyzer windowed({3});
  windowed.onRetireBlock(trace);
  EXPECT_EQ(windowed.results()[0].maxCp, 2.0);
}

TEST(DependencyResolver, UnwrittenSourcesCarryNoDependency) {
  std::vector<RetiredInst> trace(2);
  trace[0].srcs.push_back(Reg::gp(1));  // never written
  trace[0].loads.push_back({0x5000, 4});  // never stored to
  trace[0].dsts.push_back(Reg::gp(2));
  trace[1].srcs.push_back(Reg::gp(2));
  trace[1].srcs.push_back(Reg::gp(2));  // duplicates are kept
  DependencyResolver resolver;
  Recorder<true> recorder;
  resolver.resolveInto(trace, recorder);
  ASSERT_EQ(recorder.records.size(), 2u);
  EXPECT_TRUE(recorder.records[0].producers.empty());
  EXPECT_EQ(recorder.records[1].producers,
            (std::vector<std::uint64_t>{0, 0}));

  // Trace indices continue across blocks.
  resolver.resolveInto(trace, recorder);
  EXPECT_TRUE(recorder.records[2].producers.empty());
  EXPECT_EQ(recorder.records[3].producers,
            (std::vector<std::uint64_t>{2, 2}));

  // Without producers every register source is reported; a load from a
  // page no store has touched has no slot yet.
  DependencyResolver slotsOnly;
  Recorder<false> slots;
  slotsOnly.resolveInto(trace, slots);
  EXPECT_EQ(slots.records[0].producers.size(), 1u);
  EXPECT_EQ(slots.records[1].producers.size(), 2u);
  EXPECT_EQ(slotsOnly.slotCount(), Reg::kDenseCount);
}

}  // namespace
}  // namespace riscmp
