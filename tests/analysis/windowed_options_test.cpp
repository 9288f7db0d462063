// Tests for the windowed-CP knobs beyond the paper's defaults: the slide
// fraction (§6.1 leaves it at 1/2 "due to time constraints") and optional
// latency scaling (§6.1: "We also do not account for instruction latency").
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/windowed_cp.hpp"

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

TEST(WindowedOptions, SlideFractionControlsWindowCount) {
  WindowedCPAnalyzer half({8}, 1, 2);   // paper default: slide 4
  WindowedCPAnalyzer full({8}, 1, 1);   // disjoint windows: slide 8
  WindowedCPAnalyzer fine({8}, 1, 8);   // slide 1
  for (int i = 0; i < 64; ++i) {
    const RetiredInst inst = alu({1}, 1);
    half.onRetire(inst);
    full.onRetire(inst);
    fine.onRetire(inst);
  }
  EXPECT_EQ(half.results()[0].windows, (64u - 8) / 4 + 1);
  EXPECT_EQ(full.results()[0].windows, 64u / 8);
  EXPECT_EQ(fine.results()[0].windows, 64u - 8 + 1);
  // The mean CP of a uniform serial trace is slide-invariant.
  EXPECT_DOUBLE_EQ(half.results()[0].meanCp, 8.0);
  EXPECT_DOUBLE_EQ(full.results()[0].meanCp, 8.0);
  EXPECT_DOUBLE_EQ(fine.results()[0].meanCp, 8.0);
}

TEST(WindowedOptions, LatencyScalingAppliesToNonMemoryOps) {
  LatencyTable latencies = unitLatencies();
  latencies[static_cast<std::size_t>(InstGroup::FpMul)] = 6;
  WindowedCPAnalyzer scaled({4}, 1, 2, &latencies);
  WindowedCPAnalyzer plain({4});
  for (int i = 0; i < 16; ++i) {
    const RetiredInst inst = alu({1}, 1, InstGroup::FpMul);
    scaled.onRetire(inst);
    plain.onRetire(inst);
  }
  EXPECT_DOUBLE_EQ(plain.results()[0].meanCp, 4.0);
  EXPECT_DOUBLE_EQ(scaled.results()[0].meanCp, 24.0);  // 4 ops x latency 6
}

TEST(WindowedOptions, LoadsStayUnscaled) {
  LatencyTable latencies = unitLatencies();
  latencies[static_cast<std::size_t>(InstGroup::Load)] = 99;
  WindowedCPAnalyzer scaled({4}, 1, 2, &latencies);
  for (int i = 0; i < 16; ++i) {
    RetiredInst load;
    load.group = InstGroup::Load;
    load.srcs.push_back(Reg::gp(1));
    load.dsts.push_back(Reg::gp(1));
    load.loads.push_back(MemAccess{0x100, 8});
    scaled.onRetire(load);
  }
  EXPECT_DOUBLE_EQ(scaled.results()[0].meanCp, 4.0);
}

TEST(WindowedOptions, DefaultMatchesPaperHalfSlide) {
  WindowedCPAnalyzer defaulted({8});
  WindowedCPAnalyzer explicitHalf({8}, 1, 2);
  for (int i = 0; i < 64; ++i) {
    const RetiredInst inst = alu({1}, 2);
    defaulted.onRetire(inst);
    explicitHalf.onRetire(inst);
  }
  EXPECT_EQ(defaulted.results()[0].windows, explicitHalf.results()[0].windows);
}

TEST(WindowedOptions, ZeroWindowSizeIsRejected) {
  try {
    WindowedCPAnalyzer analyzer({4, 0});
    FAIL() << "a window size of 0 was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("window size 0"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace riscmp
