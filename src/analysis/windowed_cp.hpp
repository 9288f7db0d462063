// Windowed critical-path analysis (paper §6).
//
// A window of W consecutive dynamic instructions models a W-entry ROB with
// perfect branch prediction and infinite physical registers; the window's
// critical path bounds how fast those W instructions could issue. Windows
// slide by W/2 (50 % overlap), modelling a limited commit stage (§6.1).
// Latency is not applied (§6.1). The tracked statistic is the mean CP per
// window; mean ILP = W / mean CP (Figure 2).
//
// The analyzer keeps a ring of each instruction's producer distances, taken
// from the shared dependency front end (analysis/dependencies.hpp). A
// window's CP is a DP over the ring: an instruction's depth is its cost
// plus the deepest producer inside the window. A producer before the window
// start is ignored, which is exact because RAW names only the latest
// writer: then nothing inside the window wrote that source before its use.
// Partial trailing windows are discarded, matching the paper's method of
// only evaluating full windows.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/dependencies.hpp"
#include "support/stats.hpp"

namespace riscmp {

class WindowedCPAnalyzer final
    : public ResolvedObserver<WindowedCPAnalyzer> {
 public:
  /// The paper's window sizes: 4, 16, 64, 200, 500, 1000, 2000.
  static std::vector<std::uint32_t> paperWindowSizes();

  /// `slideNumerator/slideDenominator` set the window slide as a fraction
  /// of the window size (the paper uses 1/2 and defers adjusting it to
  /// future work); `latencies` optionally scales non-memory instructions
  /// as in the Section-5 analysis (the paper's windowed analysis does not).
  explicit WindowedCPAnalyzer(std::vector<std::uint32_t> windowSizes,
                              unsigned slideNumerator = 1,
                              unsigned slideDenominator = 2,
                              const LatencyTable* latencies = nullptr);

  /// Drop all buffered instructions and per-size statistics; the window
  /// sizes, slide fraction, and latency table are retained.
  void reset();

  struct WindowResult {
    std::uint32_t windowSize = 0;
    std::uint64_t windows = 0;   ///< number of full windows evaluated
    double meanCp = 0.0;         ///< mean critical path per window
    double meanIlp = 0.0;        ///< windowSize / meanCp
    double minCp = 0.0;
    double maxCp = 0.0;
  };
  [[nodiscard]] std::vector<WindowResult> results() const;

  /// Buffering of one block as a resolver sink (see ResolvedObserver); the
  /// windows it completes are evaluated when the block is finished.
  /// Buffering the whole block first gives bit-identical per-window
  /// statistics (window starts depend only on the retired count) while
  /// amortising the per-size scan and the trim.
  class Sink : public ResolverSink {
   public:
    static constexpr bool kProducers = true;

    explicit Sink(WindowedCPAnalyzer& analyzer)
        : analyzer_(analyzer), index_(analyzer.retired_) {}
    void finish() { analyzer_.evaluateReadyWindows(); }

    void source(std::uint32_t, std::uint64_t producer) {
      analyzer_.addProducer(index_ - producer);
    }
    void sourcesDone(std::uint8_t costClass) {
      cost_ = analyzer_.costs_[costClass];
    }
    void recordDone() {
      analyzer_.pushRecord(cost_);
      ++index_;
    }

   private:
    WindowedCPAnalyzer& analyzer_;
    std::uint64_t index_;  ///< trace index of the current record
    std::uint32_t cost_ = 1;
  };

 private:
  /// A producer distance slot that holds none.
  static constexpr std::uint32_t kNoDistance = ~std::uint32_t{0};

  /// One buffered instruction: its chain cost and its producers inside the
  /// longest window, as distances back. Distance 1 is the `chained` flag,
  /// so the DP carries that depth in a register; the next two distances
  /// sit inline (kNoDistance when absent) and any further ones in the
  /// overflow ring, entries [first, first + more).
  struct Entry {
    std::uint32_t cost = 1;
    std::array<std::uint32_t, 2> near = {kNoDistance, kNoDistance};
    std::uint32_t first = 0;
    std::uint16_t more = 0;
    bool chained = false;
  };

  /// Add a producer `distance` back to the pending instruction. One no
  /// window could hold with its consumer is dropped; repeats are kept (the
  /// DP takes a max, so they cost a load, never a result).
  void addProducer(std::uint64_t distance) {
    if (distance >= maxSize_) return;
    const auto d = static_cast<std::uint32_t>(distance);
    if (d == 1) {
      pending_.chained = true;
    } else if (pendingNear_ < pending_.near.size()) {
      pending_.near[pendingNear_++] = d;
    } else {
      growOverflow(pending_.first);
      overflow_[(pending_.first + pending_.more++) & (overflow_.size() - 1)] =
          d;
      ++overflowHead_;
    }
  }
  /// Buffer the pending instruction with chain cost `cost`.
  void pushRecord(std::uint32_t cost) {
    if (retired_ - bufferBase_ == entries_.size()) growEntries();
    pending_.cost = cost;
    entries_[retired_++ & (entries_.size() - 1)] = pending_;
    pending_ = Entry{};
    pending_.first = overflowHead_;
    pendingNear_ = 0;
  }

  struct PerSize {
    std::uint32_t size;
    std::uint32_t slide;          ///< distance between window starts
    std::uint64_t nextStart = 0;  ///< absolute index of the next window
    RunningStats cpStats;
  };

  void growEntries();
  /// Make room for one more overflow distance of the pending entry,
  /// whose distances start at `pendingFirst`.
  void growOverflow(std::uint32_t pendingFirst);
  void evaluateReadyWindows();
  /// Evaluate the windows of every size in group_, all starting at `start`.
  void evaluateGroup(std::uint64_t start);

  /// Rings indexed by absolute position & (size - 1); both grow on demand
  /// in powers of two. Instructions [bufferBase_, retired_) are live.
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> overflow_;
  std::uint32_t overflowHead_ = 0;  ///< next free overflow slot (wraps)
  Entry pending_;                   ///< the instruction being buffered
  std::uint32_t pendingNear_ = 0;   ///< its inline distances so far

  /// Window-local depths behind one zero: a producer before the window
  /// start reads depth[-1].
  std::vector<std::uint64_t> depth_;

  std::uint64_t bufferBase_ = 0;
  std::uint64_t retired_ = 0;
  std::uint32_t maxSize_ = 0;  ///< producers this far back never count
  std::vector<PerSize> sizes_;
  std::vector<std::size_t> bySize_;  ///< sizes_ indices, ascending size
  std::vector<std::size_t> group_;   ///< ready sizes sharing one start
  CostTable costs_;
};

}  // namespace riscmp
