#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace riscmp {
namespace {

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(RunningStats, StableOverManySamples) {
  RunningStats s;
  for (int i = 0; i < 1'000'000; ++i) s.add(1e9 + (i % 2));
  EXPECT_NEAR(s.mean(), 1e9 + 0.5, 1e-3);
}

TEST(GeometricMean, Basics) {
  EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometricMean({4.0}), 4.0);
  EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(GeometricMean, SkipsNonPositiveAndNonFiniteInputs) {
  // A zero/negative/NaN ratio must not poison the aggregate (the report
  // layer warns and aggregates the rest).
  std::size_t aggregated = 0;
  EXPECT_NEAR(geometricMean({2.0, 0.0, 8.0}, &aggregated), 4.0, 1e-12);
  EXPECT_EQ(aggregated, 2u);
  EXPECT_NEAR(geometricMean({-1.0, 9.0}, &aggregated), 9.0, 1e-12);
  EXPECT_EQ(aggregated, 1u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_NEAR(geometricMean({nan, inf, 5.0}, &aggregated), 5.0, 1e-12);
  EXPECT_EQ(aggregated, 1u);
}

TEST(GeometricMean, AllInputsInvalidYieldsZeroAndZeroCount) {
  std::size_t aggregated = 42;
  EXPECT_DOUBLE_EQ(geometricMean({0.0, -3.0}, &aggregated), 0.0);
  EXPECT_EQ(aggregated, 0u);
  EXPECT_DOUBLE_EQ(geometricMean({}, &aggregated), 0.0);
  EXPECT_EQ(aggregated, 0u);
}

}  // namespace
}  // namespace riscmp
