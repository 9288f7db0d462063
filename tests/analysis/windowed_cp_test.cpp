#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "analysis/windowed_cp.hpp"

namespace riscmp {
namespace {

RetiredInst alu(std::initializer_list<unsigned> srcs, unsigned dst) {
  RetiredInst inst;
  for (const unsigned src : srcs) inst.srcs.push_back(Reg::gp(src));
  inst.dsts.push_back(Reg::gp(dst));
  return inst;
}

TEST(WindowedCP, SerialChainSaturatesEveryWindow) {
  WindowedCPAnalyzer analyzer({4});
  for (int i = 0; i < 20; ++i) analyzer.onRetire(alu({1}, 1));
  analyzer.onProgramEnd();
  const auto results = analyzer.results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].windowSize, 4u);
  // Windows start at 0, 2, 4, ..., 16: (20 - 4) / 2 + 1 = 9 windows.
  EXPECT_EQ(results[0].windows, 9u);
  EXPECT_DOUBLE_EQ(results[0].meanCp, 4.0);  // fully serial
  EXPECT_DOUBLE_EQ(results[0].meanIlp, 1.0);
}

TEST(WindowedCP, IndependentStreamGivesIlpEqualToWindow) {
  WindowedCPAnalyzer analyzer({4});
  for (int i = 0; i < 12; ++i) analyzer.onRetire(alu({}, 1u + (i % 8)));
  const auto results = analyzer.results();
  EXPECT_DOUBLE_EQ(results[0].meanCp, 1.0);
  EXPECT_DOUBLE_EQ(results[0].meanIlp, 4.0);
}

TEST(WindowedCP, WindowLocalityForgetsOldDependencies) {
  // A serial chain followed by independent work: late windows must not see
  // the early chain.
  WindowedCPAnalyzer analyzer({4});
  for (int i = 0; i < 8; ++i) analyzer.onRetire(alu({1}, 1));
  for (int i = 0; i < 8; ++i) analyzer.onRetire(alu({}, 2u + (i % 4)));
  const auto results = analyzer.results();
  // Windows over the first half have CP 4, over the second half CP 1.
  EXPECT_LT(results[0].meanCp, 4.0);
  EXPECT_DOUBLE_EQ(results[0].minCp, 1.0);
  EXPECT_DOUBLE_EQ(results[0].maxCp, 4.0);
}

TEST(WindowedCP, MultipleSizesEvaluateIndependently) {
  WindowedCPAnalyzer analyzer({4, 16});
  for (int i = 0; i < 64; ++i) analyzer.onRetire(alu({1}, 1));
  const auto results = analyzer.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(results[0].meanCp, 4.0);
  EXPECT_DOUBLE_EQ(results[1].meanCp, 16.0);
  EXPECT_EQ(results[1].windows, (64u - 16u) / 8u + 1u);
}

TEST(WindowedCP, ShortTraceYieldsNoWindows) {
  WindowedCPAnalyzer analyzer({16});
  for (int i = 0; i < 10; ++i) analyzer.onRetire(alu({1}, 1));
  analyzer.onProgramEnd();
  EXPECT_EQ(analyzer.results()[0].windows, 0u);
  EXPECT_DOUBLE_EQ(analyzer.results()[0].meanIlp, 0.0);
}

TEST(WindowedCP, MemoryDependenciesCountInsideWindow) {
  WindowedCPAnalyzer analyzer({4});
  // store -> load -> use chain within each window.
  for (int i = 0; i < 8; ++i) {
    RetiredInst st;
    st.srcs.push_back(Reg::gp(1));
    st.stores.push_back(MemAccess{0x100, 8});
    analyzer.onRetire(st);

    RetiredInst ld;
    ld.dsts.push_back(Reg::gp(1));
    ld.loads.push_back(MemAccess{0x100, 8});
    analyzer.onRetire(ld);
  }
  const auto results = analyzer.results();
  EXPECT_DOUBLE_EQ(results[0].meanCp, 4.0);  // fully serial through memory
}

TEST(WindowedCP, PaperWindowSizes) {
  const auto sizes = WindowedCPAnalyzer::paperWindowSizes();
  ASSERT_EQ(sizes.size(), 7u);
  EXPECT_EQ(sizes.front(), 4u);
  EXPECT_EQ(sizes.back(), 2000u);
}

// Property: for any trace, every window CP lies in [1, W], so mean ILP lies
// in [1, W].
TEST(WindowedCP, IlpBounds) {
  WindowedCPAnalyzer analyzer({8});
  for (int i = 0; i < 200; ++i) {
    // Pseudo-random dependency pattern.
    const unsigned src = 1 + (i * 7) % 5;
    const unsigned dst = 1 + (i * 13) % 5;
    analyzer.onRetire(alu({src}, dst));
  }
  const auto result = analyzer.results()[0];
  EXPECT_GE(result.minCp, 1.0);
  EXPECT_LE(result.maxCp, 8.0);
  EXPECT_GE(result.meanIlp, 1.0);
  EXPECT_LE(result.meanIlp, 8.0);
}

TEST(WindowedCP, TinyTraceReportsZeroWindowsForLargeSizes) {
  // Regression for the fig2/ext_window_ablation NaN rendering: at tiny
  // --scale a 2000-wide window never fills, so the result must say
  // windows == 0 (the report layer then prints "-") rather than a
  // NaN-bearing mean from RunningStats' empty min/max.
  // The largest size also proves the depth ring grows with the trace: a
  // ring sized to the window would not fit in memory.
  WindowedCPAnalyzer analyzer({4, 2000, 4294967295u});
  for (int i = 0; i < 50; ++i) analyzer.onRetire(alu({1}, 1));
  analyzer.onProgramEnd();
  const auto results = analyzer.results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_GT(results[0].windows, 0u);
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].windows, 0u);
    EXPECT_DOUBLE_EQ(results[i].meanCp, 0.0);
    EXPECT_DOUBLE_EQ(results[i].meanIlp, 0.0);
  }
}

TEST(WindowedCP, SlideBeyondThirtyTwoBitsLeavesOneWindowAtATime) {
  // 2^31 × 2/1 is a slide of 2^32, which a 32-bit product wraps to 0.
  WindowedCPAnalyzer analyzer({1u << 31}, 2, 1);
  for (int i = 0; i < 50; ++i) analyzer.onRetire(alu({1}, 1));
  analyzer.onProgramEnd();
  EXPECT_EQ(analyzer.results()[0].windows, 0u);
}

// A serial chain of one latency-scaled group: every window's CP is exactly
// size × latency. 32767 is the largest CP a 16-bit lane holds; 32768 needs
// the next width.
TEST(WindowedCP, LaneWidthBoundaryMatchesTheClosedForm) {
  for (const auto& [size, latency] :
       {std::pair<std::uint32_t, std::uint32_t>{151, 217}, {128, 256}}) {
    SCOPED_TRACE("window CP " + std::to_string(size * latency));
    LatencyTable latencies = unitLatencies();
    latencies[static_cast<std::size_t>(InstGroup::FpMul)] = latency;
    WindowedCPAnalyzer analyzer({size}, 1, 2, &latencies);
    RetiredInst inst = alu({1}, 1);
    inst.group = InstGroup::FpMul;
    const std::uint32_t records = 4 * size;
    for (std::uint32_t i = 0; i < records; ++i) analyzer.onRetire(inst);
    const auto result = analyzer.results()[0];
    EXPECT_EQ(result.windows, (records - size) / (size / 2) + 1);
    EXPECT_EQ(result.minCp, static_cast<double>(size * latency));
    EXPECT_EQ(result.maxCp, static_cast<double>(size * latency));
    EXPECT_EQ(result.meanCp, static_cast<double>(size * latency));
  }
}

}  // namespace
}  // namespace riscmp
