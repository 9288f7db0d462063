// Windowed critical-path analysis (paper §6).
//
// A window of W consecutive dynamic instructions models a W-entry ROB with
// perfect branch prediction and infinite physical registers; the window's
// critical path bounds how fast those W instructions could issue. Windows
// slide by W/2 (50 % overlap), modelling a limited commit stage (§6.1).
// Latency is not applied (§6.1). The tracked statistic is the mean CP per
// window; mean ILP = W / mean CP (Figure 2).
//
// Windows are defined by trace index alone, so one forward pass over the
// producers from the shared dependency front end (analysis/dependencies.hpp)
// advances every live window, each in a lane of its own (DESIGN.md §5). A
// producer before a window's start is ignored, which is exact because RAW
// names only the latest writer. Partial trailing windows are discarded, as
// the paper evaluates only full windows.
#pragma once

#include <array>
#include <cstdint>
#include <variant>
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
  /// Throws std::invalid_argument for a window size of 0.
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

  /// The lane DP as a resolver sink (see ResolvedObserver): each producer
  /// is applied to every lane as it is reported.
  class Sink : public ResolverSink {
   public:
    static constexpr bool kProducers = true;

    explicit Sink(WindowedCPAnalyzer& analyzer) : analyzer_(analyzer) {}
    void finish() {}

    void source(std::uint32_t, std::uint64_t producer) {
      std::visit([&](auto& lanes) { analyzer_.addProducer(lanes, producer); },
                 analyzer_.lanes_);
    }
    void sourcesDone(std::uint8_t cls) { cost_ = analyzer_.costs_[cls]; }
    void recordDone() {
      std::visit([&](auto& lanes) { analyzer_.retire(lanes, cost_); },
                 analyzer_.lanes_);
    }

   private:
    WindowedCPAnalyzer& analyzer_;
    std::uint32_t cost_ = 1;
  };

 private:
  /// The lanes at one width. Each per-lane vector is stored in chunks of
  /// one 16-byte SSE2 register, the chunk GCC's -O2 vectoriser keeps in a
  /// register (DESIGN.md §5).
  template <typename Lane>
  struct Lanes {
    using Chunk = std::array<Lane, 16 / sizeof(Lane)>;
    std::vector<Chunk> rows;     ///< depth ring: record i's row at i & mask
    std::vector<Chunk> pending;  ///< the current record's deepest producer
    std::vector<Chunk> offset;   ///< index - window start; < 0 while idle
    std::vector<Chunk> step;     ///< 1 for a window's lane, 0 for padding
    std::vector<Chunk> deepest;  ///< each window's running maximum
  };

  template <typename Lane>
  void addProducer(Lanes<Lane>& lanes, std::uint64_t producer) {
    const std::uint64_t distance = retired_ - producer;
    if (distance >= maxSize_) return;  // before every window's start
    const auto d = static_cast<Lane>(distance);
    const auto* row =
        lanes.rows.data() + (producer & (rowCount_ - 1)) * chunks_;
    for (std::size_t k = 0; k < chunks_; ++k) {
      auto pending = lanes.pending[k];
      const auto offset = lanes.offset[k];
      const auto depth = row[k];
      for (std::size_t l = 0; l < pending.size(); ++l) {
        // Only windows that started by the producer count it (a mask, not
        // a select, which GCC would not vectorise).
        pending[l] = std::max(pending[l],
                              static_cast<Lane>(depth[l] & -(offset[l] >= d)));
      }
      lanes.pending[k] = pending;
    }
  }

  template <typename Lane>
  void retire(Lanes<Lane>& lanes, std::uint32_t cost) {
    if (retired_ == rowCount_ && rowCount_ < maxSize_) {
      rowCount_ *= 2;  // the ring has not wrapped: no row moves
      lanes.rows.resize(rowCount_ * chunks_);
    }
    auto* row = lanes.rows.data() + (retired_ & (rowCount_ - 1)) * chunks_;
    const auto c = static_cast<Lane>(cost);
    for (std::size_t k = 0; k < chunks_; ++k) {
      auto depth = lanes.pending[k];
      auto offset = lanes.offset[k];
      auto deepest = lanes.deepest[k];
      const auto step = lanes.step[k];
      for (std::size_t l = 0; l < depth.size(); ++l) {
        depth[l] = static_cast<Lane>(depth[l] + c);
        deepest[l] = std::max(deepest[l],
                              static_cast<Lane>(depth[l] & -(offset[l] >= 0)));
        offset[l] = static_cast<Lane>(offset[l] + step[l]);
      }
      row[k] = depth;
      lanes.pending[k] = {};
      lanes.offset[k] = offset;
      lanes.deepest[k] = deepest;
    }
    if (retired_++ == nextEnd_) closeWindows();
  }

  /// Start every lane over: no record retired, no window closed.
  void startLanes();
  /// Close the windows that ended at the last retired record: each adds
  /// its lane's maximum to its size's statistics, and the lane restarts.
  void closeWindows();

  struct PerSize {
    std::uint32_t size;
    std::uint64_t lanes;         ///< ceil(size / slide): windows live at once
    std::uint64_t firstLane;
    std::uint64_t slide;         ///< distance between window starts
    std::uint64_t nextLane = 0;  ///< the lane closing next, from firstLane
    std::uint64_t nextEnd = 0;   ///< last record of the next window
    RunningStats cpStats;
  };

  std::vector<PerSize> sizes_;
  CostTable costs_;
  std::variant<Lanes<std::int16_t>, Lanes<std::int32_t>, Lanes<std::int64_t>>
      lanes_;
  std::size_t chunks_ = 0;     ///< chunks per lane vector
  std::uint32_t maxSize_ = 0;  ///< producers this far back never count
  std::uint64_t rowCount_ = 0;  ///< ring rows: up to bit_ceil(maxSize_)
  std::uint64_t retired_ = 0;
  std::uint64_t nextEnd_ = 0;  ///< the earliest nextEnd of any size
};

}  // namespace riscmp
