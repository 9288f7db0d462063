#include "analysis/dep_distance.hpp"

#include <bit>

namespace riscmp {

DependencyDistanceAnalyzer::DependencyDistanceAnalyzer() = default;

double DependencyDistanceAnalyzer::fractionWithin(std::uint64_t window) const {
  if (stats_.count() == 0) return 0.0;
  std::uint64_t within = 0;
  std::uint64_t total = 0;
  for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
    total += histogram_[bucket];
    // Bucket covers [2^bucket, 2^(bucket+1)); count it as within when the
    // whole bucket fits.
    if ((std::uint64_t{1} << (bucket + 1)) - 1 <= window) {
      within += histogram_[bucket];
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(within) / static_cast<double>(total);
}

}  // namespace riscmp
