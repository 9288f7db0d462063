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

/// Lane `index` of a chunked per-lane vector.
template <typename Chunk>
auto& lane(std::vector<Chunk>& chunks, std::uint64_t index) {
  constexpr std::size_t kWidth = std::tuple_size_v<Chunk>;
  return chunks[index / kWidth][index % kWidth];
}

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
    sizes_.push_back(PerSize{size, count, lanes, slide, 0, 0, {}});
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

void WindowedCPAnalyzer::reset() {
  resetResolver();
  for (PerSize& perSize : sizes_) perSize.cpStats.reset();
  startLanes();
}

void WindowedCPAnalyzer::startLanes() {
  retired_ = 0;
  rowCount_ = std::bit_ceil(std::min(maxSize_, 64u));
  nextEnd_ = ~std::uint64_t{0};
  for (PerSize& perSize : sizes_) {
    perSize.nextLane = 0;
    perSize.nextEnd = perSize.size - 1;
    nextEnd_ = std::min(nextEnd_, perSize.nextEnd);
  }
  std::visit(
      [&](auto& lanes) {
        using Chunk = typename std::decay_t<decltype(lanes)>::Chunk;
        Chunk idle;
        idle.fill(-1);
        lanes.rows.assign(rowCount_ * chunks_, Chunk{});
        lanes.pending.assign(chunks_, Chunk{});
        lanes.deepest.assign(chunks_, Chunk{});
        // A padding lane keeps offset -1 and step 0: it never starts.
        lanes.offset.assign(chunks_, idle);
        lanes.step.assign(chunks_, Chunk{});
        for (const PerSize& perSize : sizes_) {
          for (std::uint64_t k = 0; k < perSize.lanes; ++k) {
            // Lane k's first window starts k slides in.
            lane(lanes.offset, perSize.firstLane + k) =
                -static_cast<std::int64_t>(k * perSize.slide);
            lane(lanes.step, perSize.firstLane + k) = 1;
          }
        }
      },
      lanes_);
}

void WindowedCPAnalyzer::closeWindows() {
  const std::uint64_t last = retired_ - 1;
  nextEnd_ = ~std::uint64_t{0};
  std::visit(
      [&](auto& lanes) {
        for (PerSize& perSize : sizes_) {
          if (perSize.nextEnd == last) {
            const std::uint64_t at = perSize.firstLane + perSize.nextLane;
            auto& deepest = lane(lanes.deepest, at);
            perSize.cpStats.add(static_cast<double>(deepest));
            deepest = 0;
            // The lane's next window starts lanes × slide after this one.
            lane(lanes.offset, at) -=
                static_cast<std::int64_t>(perSize.lanes * perSize.slide);
            perSize.nextEnd += perSize.slide;
            if (++perSize.nextLane == perSize.lanes) perSize.nextLane = 0;
          }
          nextEnd_ = std::min(nextEnd_, perSize.nextEnd);
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
