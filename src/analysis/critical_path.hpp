// Critical-path analysis (paper §4.1, §5.1).
//
// A small dynamic programme over the resolved dependencies
// (analysis/dependencies.hpp): an array indexed by slot — register or
// 8-byte memory chunk — holds the longest RAW chain ending at the slot's
// latest writer. Each retired instruction's depth is
//   max(depth of source slots) + cost
// where cost is 1 for the ideal-processor analysis (§4) and the
// instruction's execution latency for the scaled analysis (§5) — loads and
// stores are not scaled (store-forwarding assumption, §5.1). The critical
// path is the maximum depth observed; ILP = instructions / CP.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/dependencies.hpp"

namespace riscmp {

class CriticalPathAnalyzer final
    : public ResolvedObserver<CriticalPathAnalyzer> {
 public:
  /// Without a table the analyzer computes the paper's §4 (unscaled) CP;
  /// with one, the §5 scaled CP.
  CriticalPathAnalyzer() : costs_(costTable(nullptr)) {}
  explicit CriticalPathAnalyzer(const LatencyTable& latencies)
      : costs_(costTable(&latencies)) {}

  /// Clear all chain state so the analyzer can observe a fresh trace; the
  /// latency table (and scaled/unscaled mode) is retained.
  void reset();

  /// Length of the longest RAW dependency chain seen so far.
  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] double ilp() const {
    return maxDepth_ == 0
               ? 0.0
               : static_cast<double>(instructions_) /
                     static_cast<double>(maxDepth_);
  }
  /// Ideal runtime in seconds at `clockHz` (paper uses 2 GHz).
  [[nodiscard]] double runtimeSeconds(double clockHz = 2e9) const {
    return static_cast<double>(maxDepth_) / clockHz;
  }

  /// The DP of one block as a resolver sink (see ResolvedObserver). It
  /// needs no producers: an unwritten slot already reads depth 0.
  class Sink : public ResolverSink {
   public:
    explicit Sink(CriticalPathAnalyzer& analyzer)
        : analyzer_(analyzer), maxDepth_(analyzer.maxDepth_) {}
    /// Store the block's results back into the analyzer.
    void finish() {
      analyzer_.maxDepth_ = maxDepth_;
      analyzer_.instructions_ += records_;
    }

    void slotsGrew(std::uint32_t slots) {
      if (analyzer_.depth_.size() < slots) analyzer_.depth_.resize(slots, 0);
      depths_ = analyzer_.depth_.data();
    }
    void source(std::uint32_t slot, std::uint64_t) {
      depth_ = std::max(depth_, depths_[slot]);
    }
    void sourcesDone(std::uint8_t costClass) {
      depth_ += analyzer_.costs_[costClass];
    }
    void destination(std::uint32_t slot) { depths_[slot] = depth_; }
    void recordDone() {
      maxDepth_ = std::max(maxDepth_, depth_);
      depth_ = 0;
      ++records_;
    }

   private:
    CriticalPathAnalyzer& analyzer_;
    std::uint64_t* depths_ = nullptr;
    std::uint64_t depth_ = 0;  ///< the current record's chain
    std::uint64_t maxDepth_;
    std::uint64_t records_ = 0;
  };

 private:
  std::vector<std::uint64_t> depth_;  ///< chain depth per slot
  CostTable costs_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t instructions_ = 0;
};

}  // namespace riscmp
