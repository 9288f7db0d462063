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

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/dependencies.hpp"
#include "support/stats.hpp"

namespace riscmp {

/// One 16-byte SSE2 register of `Lane`s, as a GCC vector type.
template <typename Lane>
struct LaneChunkOf {
  typedef Lane type __attribute__((vector_size(16)));
};
template <typename Lane>
using LaneChunk = typename LaneChunkOf<Lane>::type;

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

  struct WindowResult {
    std::uint32_t windowSize = 0;
    std::uint64_t windows = 0;   ///< number of full windows evaluated
    double meanCp = 0.0;         ///< mean critical path per window
    double meanIlp = 0.0;        ///< windowSize / meanCp
    double minCp = 0.0;
    double maxCp = 0.0;
  };
  [[nodiscard]] std::vector<WindowResult> results() const;

  /// The DP's sink type (see ResolvedObserver): the Kernel for this
  /// analyzer's lane width and chunk count, picked once per block.
  template <typename Visit>
  void dispatchSink(const Visit& visit);

  /// The lane DP as a resolver sink. Each producer is applied to every
  /// lane as it is reported. With kChunks > 0 the lanes' state and
  /// constants are kChunks chunks held in the kernel for the whole block,
  /// so the compiler keeps them in registers; dispatchSink picks this only
  /// for 2 chunks of int16_t lanes (9 to 16 lanes: the paper's 7 sizes at
  /// slide 1/2). kChunks == 0 works on the analyzer's chunks in place:
  /// every other lane count, and the int32_t and int64_t lanes of huge or
  /// latency-scaled windows.
  template <typename Lane, std::size_t kChunks>
  class Kernel;

 private:
  /// The lanes at one width, between blocks. Each per-lane vector is
  /// stored in chunks of one 16-byte SSE2 register (DESIGN.md §5).
  template <typename LaneType>
  struct Lanes {
    using Lane = LaneType;
    using Chunk = LaneChunk<Lane>;
    std::vector<Chunk> rows;     ///< depth ring: record i's row at i & mask
    std::vector<Chunk> pending;  ///< kChunks == 0: deepest producer so far
    std::vector<Chunk> offset;   ///< index - window start; < 0 while idle
    std::vector<Chunk> deepest;  ///< each window's running maximum
    std::vector<Chunk> step;     ///< 1 for a window's lane, 0 for padding
    std::vector<Chunk> end;      ///< offset after a window's last record
    std::vector<Chunk> restart;  ///< offset once a window closes (<= 0)
  };

  /// Start every lane over: no record retired, no window closed.
  void startLanes();

  struct PerSize {
    std::uint32_t size;
    std::uint64_t lanes;         ///< ceil(size / slide): windows live at once
    std::uint64_t firstLane;
    std::uint64_t slide;         ///< distance between window starts
    RunningStats cpStats;
  };

  std::vector<PerSize> sizes_;
  std::vector<std::uint32_t> laneSize_;  ///< lane -> its sizes_ index
  CostTable costs_;
  std::variant<Lanes<std::int16_t>, Lanes<std::int32_t>, Lanes<std::int64_t>>
      lanes_;
  std::size_t chunks_ = 0;     ///< chunks per lane vector
  std::uint32_t maxSize_ = 0;  ///< producers this far back never count
  std::uint64_t rowCount_ = 0;  ///< ring rows: up to bit_ceil(maxSize_)
  std::uint64_t retired_ = 0;
};

template <typename Lane, std::size_t kChunks>
class WindowedCPAnalyzer::Kernel : public ResolverSink {
 public:
  static constexpr bool kProducers = true;
  using Chunk = LaneChunk<Lane>;
  static constexpr std::size_t kWidth = sizeof(Chunk) / sizeof(Lane);

  explicit Kernel(WindowedCPAnalyzer& analyzer)
      : analyzer_(analyzer),
        lanes_(*std::get_if<Lanes<Lane>>(&analyzer.lanes_)),
        chunks_(analyzer.chunks_),
        maxSize_(analyzer.maxSize_),
        index_(analyzer.retired_) {
    bindRows();
    if constexpr (kChunks == 0) {
      pending_ = lanes_.pending.data();
      offset_ = lanes_.offset.data();
      deepest_ = lanes_.deepest.data();
      step_ = lanes_.step.data();
      end_ = lanes_.end.data();
      restart_ = lanes_.restart.data();
    } else {
      eachChunk([&](std::size_t k) {
        offset_[k] = lanes_.offset[k];
        deepest_[k] = lanes_.deepest[k];
        step_[k] = lanes_.step[k];
        end_[k] = lanes_.end[k];
        restart_[k] = lanes_.restart[k];
      });
    }
  }
  /// Store the block's lane state back into the analyzer.
  void finish() {
    analyzer_.retired_ = index_;
    if constexpr (kChunks != 0) {
      eachChunk([&](std::size_t k) {
        lanes_.offset[k] = offset_[k];
        lanes_.deepest[k] = deepest_[k];
      });
    }
  }

  void source(std::uint32_t, std::uint64_t producer) {
    const std::uint64_t distance = index_ - producer;
    if (distance >= maxSize_) return;  // before every window's start
    const auto d = static_cast<Lane>(distance);
    const Chunk* row = rows_ + (producer & rowMask_) * chunks();
    eachChunk([&](std::size_t k) {
      // Only windows that started by the producer count it.
      pending_[k] = max(pending_[k], row[k] & (offset_[k] >= d));
    });
  }
  void sourcesDone(std::uint8_t costClass) {
    cost_ = static_cast<Lane>(analyzer_.costs_[costClass]);
  }
  void recordDone() {
    if (index_ == growAt_) growRows();
    Chunk* row = rows_ + (index_ & rowMask_) * chunks();
    eachChunk([&](std::size_t k) {
      const Chunk depth = pending_[k] + cost_;
      pending_[k] = Chunk{};
      row[k] = depth;
      deepest_[k] = max(deepest_[k], depth & (offset_[k] >= 0));
      offset_[k] += step_[k];
      // A lane whose window ended at this record closes: its maximum is
      // one sample of its size, and its next window starts lanes × slide
      // after this one.
      const Chunk closing = offset_[k] == end_[k];
      if (any(closing)) {
        addSamples(k, deepest_[k], closing);
        deepest_[k] &= ~closing;
        offset_[k] = (offset_[k] & ~closing) | (restart_[k] & closing);
      }
    });
    ++index_;
  }

 private:
  using Store = std::conditional_t<kChunks == 0, Chunk*,
                                   std::array<Chunk, kChunks>>;

  static Chunk max(Chunk a, Chunk b) { return a > b ? a : b; }
  static bool any(Chunk mask) {
    using Words = std::uint64_t __attribute__((vector_size(16)));
    const auto words = std::bit_cast<Words>(mask);
    return (words[0] | words[1]) != 0;
  }

  [[nodiscard]] std::size_t chunks() const {
    if constexpr (kChunks == 0) {
      return chunks_;
    } else {
      return kChunks;
    }
  }
  /// Call `f(k)` for each chunk k; with kChunks > 0 each k is a constant.
  template <typename F>
  void eachChunk(const F& f) {
    if constexpr (kChunks == 0) {
      for (std::size_t k = 0; k < chunks_; ++k) f(k);
    } else {
      [&]<std::size_t... k>(std::index_sequence<k...>) {
        (f(k), ...);
      }(std::make_index_sequence<kChunks>{});
    }
  }

  /// Add each closing lane of chunk `k` to its size's statistics. Every
  /// size closes at most one window per record, so each size's samples
  /// arrive in window order.
  void addSamples(std::size_t k, Chunk deepest, Chunk closing) {
    constexpr unsigned kBits = 8 * sizeof(Lane);
    constexpr std::uint64_t kLaneBits =
        kBits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << kBits) - 1;
    // Copies, so the runtime lane index touches no member.
    const auto words = std::bit_cast<std::array<std::uint64_t, 2>>(closing);
    const auto depths = std::bit_cast<std::array<Lane, kWidth>>(deepest);
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0;) {
        const unsigned inWord =
            static_cast<unsigned>(std::countr_zero(bits)) / kBits;
        bits &= ~(kLaneBits << (inWord * kBits));
        const std::size_t l = w * (64 / kBits) + inWord;
        const std::uint32_t size = analyzer_.laneSize_[k * kWidth + l];
        analyzer_.sizes_[size].cpStats.add(static_cast<double>(depths[l]));
      }
    }
  }

  /// The ring has reached its row count without wrapping: double it (no
  /// row moves).
  void growRows() {
    analyzer_.rowCount_ *= 2;
    lanes_.rows.resize(analyzer_.rowCount_ * chunks());
    bindRows();
  }
  void bindRows() {
    rows_ = lanes_.rows.data();
    rowMask_ = analyzer_.rowCount_ - 1;
    growAt_ = analyzer_.rowCount_ < maxSize_ ? analyzer_.rowCount_
                                             : ~std::uint64_t{0};
  }

  WindowedCPAnalyzer& analyzer_;
  Lanes<Lane>& lanes_;
  std::size_t chunks_;
  std::uint32_t maxSize_;
  std::uint64_t index_;  ///< trace index of the current record
  Chunk* rows_ = nullptr;
  std::uint64_t rowMask_ = 0;
  std::uint64_t growAt_ = 0;  ///< index at which the ring doubles
  Lane cost_ = 1;
  Store pending_{};
  Store offset_{};
  Store deepest_{};
  Store step_{};
  Store end_{};
  Store restart_{};
};

template <typename Visit>
void WindowedCPAnalyzer::dispatchSink(const Visit& visit) {
  std::visit(
      [&](auto& lanes) {
        using Lane = typename std::decay_t<decltype(lanes)>::Lane;
        if constexpr (std::is_same_v<Lane, std::int16_t>) {
          if (chunks_ == 2) {
            return visit(std::type_identity<Kernel<Lane, 2>>{});
          }
        }
        visit(std::type_identity<Kernel<Lane, 0>>{});
      },
      lanes_);
}

}  // namespace riscmp
