#include "analysis/windowed_cp.hpp"

#include <algorithm>
#include <cstddef>

namespace riscmp {

std::vector<std::uint32_t> WindowedCPAnalyzer::paperWindowSizes() {
  return {4, 16, 64, 200, 500, 1000, 2000};
}

WindowedCPAnalyzer::WindowedCPAnalyzer(std::vector<std::uint32_t> windowSizes,
                                       unsigned slideNumerator,
                                       unsigned slideDenominator,
                                       const LatencyTable* latencies)
    : costs_(costTable(latencies)) {
  const unsigned numerator = std::max(1u, slideNumerator);
  const unsigned denominator = std::max(1u, slideDenominator);
  for (const std::uint32_t size : windowSizes) {
    const std::uint32_t slide =
        std::max<std::uint32_t>(1, size * numerator / denominator);
    sizes_.push_back(PerSize{size, slide, 0, {}});
    maxSize_ = std::max(maxSize_, size);
  }
  bySize_.resize(sizes_.size());
  for (std::size_t s = 0; s < sizes_.size(); ++s) bySize_[s] = s;
  std::stable_sort(bySize_.begin(), bySize_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sizes_[a].size < sizes_[b].size;
                   });
}

void WindowedCPAnalyzer::reset() {
  resetResolver();
  entries_.clear();
  overflow_.clear();
  overflowHead_ = 0;
  pending_ = Entry{};
  pendingNear_ = 0;
  depth_.clear();
  bufferBase_ = 0;
  retired_ = 0;
  for (PerSize& perSize : sizes_) {
    perSize.nextStart = 0;
    perSize.cpStats.reset();
  }
}

void WindowedCPAnalyzer::growEntries() {
  std::vector<Entry> grown(std::max<std::size_t>(64, entries_.size() * 2));
  for (std::uint64_t i = bufferBase_; i < retired_; ++i) {
    grown[i & (grown.size() - 1)] = entries_[i & (entries_.size() - 1)];
  }
  entries_ = std::move(grown);
}

void WindowedCPAnalyzer::growOverflow(std::uint32_t pendingFirst) {
  // Live overflow: from the oldest live entry's first slot (or the pending
  // entry's, when it is the only one) to the head.
  const std::uint32_t tail =
      bufferBase_ == retired_
          ? pendingFirst
          : entries_[bufferBase_ & (entries_.size() - 1)].first;
  const std::uint32_t live = overflowHead_ - tail;
  if (live < overflow_.size()) return;
  std::vector<std::uint32_t> grown(
      std::max<std::size_t>(64, overflow_.size() * 2));
  for (std::uint32_t p = tail; p != overflowHead_; ++p) {
    grown[p & (grown.size() - 1)] = overflow_[p & (overflow_.size() - 1)];
  }
  overflow_ = std::move(grown);
}

void WindowedCPAnalyzer::evaluateReadyWindows() {
  // Ready windows in order of start. A window's depths depend only on its
  // start, so the windows of every size sharing a start come from one DP,
  // each reading the running maximum at its own length.
  for (;;) {
    std::uint64_t start = ~std::uint64_t{0};
    for (const PerSize& perSize : sizes_) {
      if (perSize.nextStart + perSize.size <= retired_) {
        start = std::min(start, perSize.nextStart);
      }
    }
    if (start == ~std::uint64_t{0}) break;
    group_.clear();
    for (const std::size_t s : bySize_) {
      const PerSize& perSize = sizes_[s];
      if (perSize.nextStart == start && start + perSize.size <= retired_) {
        group_.push_back(s);
      }
    }
    evaluateGroup(start);
  }
  // Instructions below every size's next window start are no longer needed.
  std::uint64_t minStart = retired_;
  for (const PerSize& perSize : sizes_) {
    minStart = std::min(minStart, perSize.nextStart);
  }
  bufferBase_ = std::max(bufferBase_, minStart);
}

void WindowedCPAnalyzer::evaluateGroup(std::uint64_t start) {
  const std::uint32_t longest = sizes_[group_.back()].size;
  if (depth_.size() <= longest) depth_.resize(std::size_t{longest} + 1, 0);
  std::uint64_t* depth = depth_.data() + 1;  // depth[-1] stays 0
  // A producer at distance > j precedes the window start.
  const auto at = [depth](std::uint32_t j, std::uint32_t distance) {
    return depth[std::max<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(j) - distance, -1)];
  };
  const std::size_t entryMask = entries_.size() - 1;
  const std::size_t overflowMask = overflow_.size() - 1;
  std::uint64_t maxDepth = 0;
  std::uint64_t previous = 0;  // the instruction before the start: outside
  std::uint32_t j = 0;
  for (const std::size_t s : group_) {  // ascending size
    PerSize& perSize = sizes_[s];
    for (; j < perSize.size; ++j) {
      const Entry& entry = entries_[(start + j) & entryMask];
      std::uint64_t d = std::max(at(j, entry.near[0]), at(j, entry.near[1]));
      for (std::uint32_t k = 0; k < entry.more; ++k) {
        d = std::max(d, at(j, overflow_[(entry.first + k) & overflowMask]));
      }
      // Fold the register-carried chain in last: it is the critical path.
      // A mask, not a branch: about half the instructions are chained, in
      // no pattern a predictor could learn.
      const std::uint64_t carried =
          previous & (std::uint64_t{0} - std::uint64_t{entry.chained});
      d = std::max(d, carried) + entry.cost;
      depth[j] = d;
      previous = d;
      maxDepth = std::max(maxDepth, d);
    }
    perSize.cpStats.add(static_cast<double>(maxDepth));
    perSize.nextStart += perSize.slide;
  }
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
