#include <gtest/gtest.h>

#include "analysis/critical_path.hpp"

namespace riscmp {
namespace {

RetiredInst alu(std::initializer_list<unsigned> srcs, unsigned dst,
                InstGroup group = InstGroup::IntSimple) {
  RetiredInst inst;
  inst.group = group;
  for (const unsigned src : srcs) inst.srcs.push_back(Reg::gp(src));
  inst.dsts.push_back(Reg::gp(dst));
  return inst;
}

RetiredInst load(unsigned addrReg, std::uint64_t addr, unsigned dst) {
  RetiredInst inst;
  inst.group = InstGroup::Load;
  inst.srcs.push_back(Reg::gp(addrReg));
  inst.dsts.push_back(Reg::gp(dst));
  inst.loads.push_back(MemAccess{addr, 8});
  return inst;
}

RetiredInst store(unsigned addrReg, unsigned dataReg, std::uint64_t addr,
                  std::uint8_t size = 8) {
  RetiredInst inst;
  inst.group = InstGroup::Store;
  inst.srcs.push_back(Reg::gp(addrReg));
  inst.srcs.push_back(Reg::gp(dataReg));
  inst.stores.push_back(MemAccess{addr, size});
  return inst;
}

TEST(CriticalPath, SerialChainIsPathLength) {
  CriticalPathAnalyzer analyzer;
  // r1 = r1 + r1, ten times: a pure serial chain.
  for (int i = 0; i < 10; ++i) analyzer.onRetire(alu({1}, 1));
  EXPECT_EQ(analyzer.criticalPath(), 10u);
  EXPECT_EQ(analyzer.instructions(), 10u);
  EXPECT_DOUBLE_EQ(analyzer.ilp(), 1.0);
}

TEST(CriticalPath, IndependentInstructionsHaveCpOne) {
  CriticalPathAnalyzer analyzer;
  for (unsigned i = 1; i <= 10; ++i) analyzer.onRetire(alu({}, i));
  EXPECT_EQ(analyzer.criticalPath(), 1u);
  EXPECT_DOUBLE_EQ(analyzer.ilp(), 10.0);
}

TEST(CriticalPath, ForkJoinTakesLongestArm) {
  CriticalPathAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));    // depth 1
  analyzer.onRetire(alu({1}, 2));   // depth 2 (long arm 1/2)
  analyzer.onRetire(alu({2}, 2));   // depth 3
  analyzer.onRetire(alu({1}, 3));   // depth 2 (short arm)
  analyzer.onRetire(alu({2, 3}, 4));  // join: max(3,2)+1 = 4
  EXPECT_EQ(analyzer.criticalPath(), 4u);
}

TEST(CriticalPath, ChainsThroughMemory) {
  CriticalPathAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));            // depth 1
  analyzer.onRetire(store(2, 1, 0x100));    // depth 2 through memory
  analyzer.onRetire(load(2, 0x100, 3));     // depth 3 (reads the store)
  analyzer.onRetire(alu({3}, 4));           // depth 4
  EXPECT_EQ(analyzer.criticalPath(), 4u);
}

TEST(CriticalPath, PartialOverlapThroughMemoryChunks) {
  CriticalPathAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));          // depth 1
  analyzer.onRetire(store(2, 1, 0x104, 4));  // store word into chunk 0x20
  // A load of the full doubleword overlaps the stored word's chunk.
  analyzer.onRetire(load(2, 0x100, 3));
  EXPECT_EQ(analyzer.criticalPath(), 3u);
}

TEST(CriticalPath, DisjointMemoryDoesNotChain) {
  CriticalPathAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));
  analyzer.onRetire(store(2, 1, 0x100));
  analyzer.onRetire(load(2, 0x200, 3));  // different location
  EXPECT_EQ(analyzer.criticalPath(), 2u);
}

TEST(CriticalPath, ANewAnalyzerStartsWithNoChains) {
  // The next analyzer on this thread takes over the depth table of the one
  // destroyed here; none of its depths may carry over.
  {
    CriticalPathAnalyzer deep;
    for (int i = 0; i < 20; ++i) deep.onRetire(alu({1}, 1));
    deep.onRetire(store(2, 1, 0x100));
    EXPECT_EQ(deep.criticalPath(), 21u);
  }
  CriticalPathAnalyzer fresh;
  fresh.onRetire(alu({1}, 3));            // r1 was never written here
  fresh.onRetire(store(2, 4, 0x108));     // gives 0x100's page its slots
  fresh.onRetire(load(2, 0x100, 5));      // a chunk nothing stored to
  EXPECT_EQ(fresh.criticalPath(), 1u);
}

TEST(CriticalPath, ZeroRegisterBreaksChains) {
  // Executors omit x0/xzr from srcs, so a "li" via the zero register starts
  // a fresh chain even after deep computation.
  CriticalPathAnalyzer analyzer;
  for (int i = 0; i < 5; ++i) analyzer.onRetire(alu({1}, 1));
  analyzer.onRetire(alu({}, 1));  // li r1, 0 — no sources
  analyzer.onRetire(alu({1}, 2));
  EXPECT_EQ(analyzer.criticalPath(), 5u);  // the old chain
}

TEST(CriticalPath, FlagsParticipateInChains) {
  CriticalPathAnalyzer analyzer;
  RetiredInst cmp;  // cmp: reads r1, writes flags
  cmp.srcs.push_back(Reg::gp(1));
  cmp.dsts.push_back(Reg::flags());
  RetiredInst bcc;  // b.ne: reads flags
  bcc.srcs.push_back(Reg::flags());
  bcc.isBranch = true;

  analyzer.onRetire(alu({1}, 1));  // depth 1
  analyzer.onRetire(cmp);          // depth 2
  analyzer.onRetire(bcc);          // depth 3
  EXPECT_EQ(analyzer.criticalPath(), 3u);
}

TEST(ScaledCriticalPath, UsesGroupLatencies) {
  LatencyTable latencies = unitLatencies();
  latencies[static_cast<std::size_t>(InstGroup::FpMul)] = 6;
  latencies[static_cast<std::size_t>(InstGroup::FpDiv)] = 23;
  CriticalPathAnalyzer analyzer(latencies);

  RetiredInst fmul = alu({1}, 1, InstGroup::FpMul);
  RetiredInst fdiv = alu({1}, 1, InstGroup::FpDiv);
  analyzer.onRetire(fmul);  // 6
  analyzer.onRetire(fdiv);  // 29
  analyzer.onRetire(fmul);  // 35
  EXPECT_EQ(analyzer.criticalPath(), 35u);
}

TEST(ScaledCriticalPath, LoadsAndStoresAreNotScaled) {
  LatencyTable latencies = unitLatencies();
  latencies[static_cast<std::size_t>(InstGroup::Load)] = 99;
  latencies[static_cast<std::size_t>(InstGroup::Store)] = 99;
  CriticalPathAnalyzer analyzer(latencies);
  analyzer.onRetire(load(1, 0x100, 2));
  analyzer.onRetire(store(1, 2, 0x108));
  // §5.1: loads/stores contribute 1 regardless of the table.
  EXPECT_EQ(analyzer.criticalPath(), 2u);
}

TEST(ScaledCriticalPath, UnscaledAndScaledAgreeWithUnitTable) {
  CriticalPathAnalyzer plain;
  CriticalPathAnalyzer scaled{unitLatencies()};
  for (int i = 0; i < 20; ++i) {
    RetiredInst inst = alu({1, 2}, (i % 3) + 1,
                           i % 2 ? InstGroup::FpAdd : InstGroup::IntSimple);
    plain.onRetire(inst);
    scaled.onRetire(inst);
  }
  EXPECT_EQ(plain.criticalPath(), scaled.criticalPath());
}

TEST(CriticalPath, RuntimeAtTwoGigahertz) {
  CriticalPathAnalyzer analyzer;
  for (int i = 0; i < 2000; ++i) analyzer.onRetire(alu({1}, 1));
  EXPECT_DOUBLE_EQ(analyzer.runtimeSeconds(2e9), 1e-6);
}

}  // namespace
}  // namespace riscmp
