#include <gtest/gtest.h>

#include "analysis/dep_distance.hpp"

namespace riscmp {
namespace {

RetiredInst alu(std::initializer_list<unsigned> srcs, unsigned dst) {
  RetiredInst inst;
  for (const unsigned src : srcs) inst.srcs.push_back(Reg::gp(src));
  inst.dsts.push_back(Reg::gp(dst));
  return inst;
}

TEST(DepDistance, AdjacentDependencyHasDistanceOne) {
  DependencyDistanceAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));
  analyzer.onRetire(alu({1}, 2));
  EXPECT_EQ(analyzer.dependencies(), 1u);
  EXPECT_DOUBLE_EQ(analyzer.meanDistance(), 1.0);
  EXPECT_DOUBLE_EQ(analyzer.fractionWithin(4), 1.0);
}

TEST(DepDistance, UnwrittenSourcesAreNotDependencies) {
  DependencyDistanceAnalyzer analyzer;
  analyzer.onRetire(alu({5}, 1));  // r5 never written: no producer
  EXPECT_EQ(analyzer.dependencies(), 0u);
}

TEST(DepDistance, DistanceGrowsWithSeparation) {
  DependencyDistanceAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));
  for (int i = 0; i < 9; ++i) analyzer.onRetire(alu({}, 2));  // fillers
  analyzer.onRetire(alu({1}, 3));  // distance 10, the only dependency
  EXPECT_EQ(analyzer.dependencies(), 1u);
  EXPECT_DOUBLE_EQ(analyzer.meanDistance(), 10.0);
}

TEST(DepDistance, MemoryDependenciesTracked) {
  DependencyDistanceAnalyzer analyzer;
  RetiredInst store;
  store.stores.push_back(MemAccess{0x100, 8});
  analyzer.onRetire(store);
  analyzer.onRetire(alu({}, 9));
  RetiredInst load;
  load.loads.push_back(MemAccess{0x100, 8});
  load.dsts.push_back(Reg::gp(1));
  analyzer.onRetire(load);
  EXPECT_EQ(analyzer.dependencies(), 1u);
  EXPECT_DOUBLE_EQ(analyzer.meanDistance(), 2.0);
}

TEST(DepDistance, FractionWithinIsMonotone) {
  DependencyDistanceAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));
  for (int i = 0; i < 100; ++i) analyzer.onRetire(alu({1}, 1));
  analyzer.onRetire(alu({}, 2));
  for (int i = 0; i < 40; ++i) analyzer.onRetire(alu({}, 3 + (i % 4)));
  analyzer.onRetire(alu({2}, 5));  // long-distance dep
  double previous = -1.0;
  for (const std::uint64_t window : {1ull, 4ull, 16ull, 64ull, 1024ull}) {
    const double fraction = analyzer.fractionWithin(window);
    EXPECT_GE(fraction, previous);
    previous = fraction;
  }
  EXPECT_DOUBLE_EQ(analyzer.fractionWithin(1ull << 32), 1.0);
}

TEST(DepDistance, HistogramBucketsByPowerOfTwo) {
  DependencyDistanceAnalyzer analyzer;
  analyzer.onRetire(alu({}, 1));
  analyzer.onRetire(alu({1}, 2));  // distance 1 -> bucket 0
  analyzer.onRetire(alu({1}, 3));  // distance 2 -> bucket 1
  analyzer.onRetire(alu({1}, 4));  // distance 3 -> bucket 1
  const auto& histogram = analyzer.histogram();
  EXPECT_EQ(histogram[0], 1u);
  EXPECT_EQ(histogram[1], 2u);
}

}  // namespace
}  // namespace riscmp
