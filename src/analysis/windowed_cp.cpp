#include "analysis/windowed_cp.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace riscmp {

namespace {

/// Slides saturate here: no trace reaches a second window this far out,
/// and every lane offset stays within int64_t.
constexpr std::uint64_t kMaxSlide = std::uint64_t{1} << 62;

}  // namespace

std::vector<std::uint32_t> WindowedCPAnalyzer::paperWindowSizes() {
  return {4, 16, 64, 200, 500, 1000, 2000};
}

WindowedCPAnalyzer::WindowedCPAnalyzer(std::vector<std::uint32_t> windowSizes,
                                       unsigned slideNumerator,
                                       unsigned slideDenominator,
                                       const LatencyTable* latencies)
    : costs_(costTable(latencies)) {
  const std::uint64_t numerator = std::max(1u, slideNumerator);
  const std::uint64_t denominator = std::max(1u, slideDenominator);
  std::uint64_t lanes = 0;
  std::int64_t lowest = 0;  // the most negative lane offset
  for (const std::uint32_t size : windowSizes) {
    if (size == 0) {
      throw std::invalid_argument(
          "windowed CP: window size 0 holds no instruction");
    }
    const std::uint64_t slide =
        std::clamp<std::uint64_t>(size * numerator / denominator, 1, kMaxSlide);
    const std::uint64_t count = (size + slide - 1) / slide;
    laneSize_.insert(laneSize_.end(), count,
                     static_cast<std::uint32_t>(sizes_.size()));
    sizes_.push_back(PerSize{size, count, lanes, slide, {}});
    lanes += count;
    maxSize_ = std::max(maxSize_, size);
    // Lane k first starts k slides in; a lane restarts count × slide - size
    // records after its window ends.
    lowest = std::min(lowest, -static_cast<std::int64_t>(std::max(
                                  (count - 1) * slide, count * slide - size)));
  }
  // Lanes take the narrowest type that holds every depth (at most maxSize ×
  // the largest cost) and every offset (from `lowest` up to maxSize).
  const std::uint64_t highest =
      std::uint64_t{maxSize_} *
      std::max(1u, *std::max_element(costs_.begin(), costs_.end()));
  const auto use = [&](auto lane) {  // false if `lane` is too narrow
    using Limits = std::numeric_limits<decltype(lane)>;
    if (sizeof(lane) < 8 &&
        (lowest < Limits::min() || highest > std::uint64_t{Limits::max()})) {
      return false;
    }
    lanes_.emplace<Lanes<decltype(lane)>>();
    chunks_ = (lanes * sizeof(lane) + 15) / 16;  // 16-byte chunks
    return true;
  };
  use(std::int16_t{}) || use(std::int32_t{}) || use(std::int64_t{});
  startLanes();
}

void WindowedCPAnalyzer::startLanes() {
  retired_ = 0;
  rowCount_ = std::bit_ceil(std::min(maxSize_, 64u));
  std::visit(
      [&](auto& lanes) {
        using Chunk = typename std::decay_t<decltype(lanes)>::Chunk;
        constexpr std::size_t kWidth = sizeof(Chunk) / sizeof(Chunk{}[0]);
        const auto set = [](std::vector<Chunk>& chunks, std::uint64_t lane,
                            std::int64_t value) {
          chunks[lane / kWidth][lane % kWidth] = value;
        };
        lanes.rows.assign(rowCount_ * chunks_, Chunk{});
        lanes.pending.assign(chunks_, Chunk{});
        lanes.deepest.assign(chunks_, Chunk{});
        // A padding lane keeps offset -1 and step 0: it never starts, and
        // its end (0) is never reached.
        lanes.offset.assign(chunks_, Chunk{} - 1);
        lanes.step.assign(chunks_, Chunk{});
        lanes.end.assign(chunks_, Chunk{});
        lanes.restart.assign(chunks_, Chunk{});
        for (const PerSize& perSize : sizes_) {
          const auto period =
              static_cast<std::int64_t>(perSize.lanes * perSize.slide);
          for (std::uint64_t k = 0; k < perSize.lanes; ++k) {
            const std::uint64_t at = perSize.firstLane + k;
            // Lane k's first window starts k slides in; each next one
            // starts lanes × slide after the last.
            set(lanes.offset, at,
                -static_cast<std::int64_t>(k * perSize.slide));
            set(lanes.step, at, 1);
            set(lanes.end, at, perSize.size);
            set(lanes.restart, at, perSize.size - period);
          }
        }
      },
      lanes_);
}

std::vector<WindowedCPAnalyzer::WindowResult> WindowedCPAnalyzer::results()
    const {
  std::vector<WindowResult> out;
  for (const PerSize& perSize : sizes_) {
    WindowResult result;
    result.windowSize = perSize.size;
    result.windows = perSize.cpStats.count();
    result.meanCp = perSize.cpStats.mean();
    result.meanIlp = result.meanCp == 0.0
                         ? 0.0
                         : static_cast<double>(perSize.size) / result.meanCp;
    result.minCp = perSize.cpStats.min();
    result.maxCp = perSize.cpStats.max();
    out.push_back(result);
  }
  return out;
}

}  // namespace riscmp
