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
// path is the maximum depth observed; ILP = instructions / CP. When CP and
// scaled CP run in one DependencyFrontEnd they are two lanes of one DP
// (CriticalPathSink<2>), sharing each slot's entry.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "analysis/dependencies.hpp"
#include "support/recycled_vector.hpp"

namespace riscmp {

template <std::size_t kLanes>
class CriticalPathSink;

class CriticalPathAnalyzer final
    : public ResolvedObserver<CriticalPathAnalyzer> {
 public:
  /// Without a table the analyzer computes the paper's §4 (unscaled) CP;
  /// with one, the §5 scaled CP.
  CriticalPathAnalyzer() : costs_(costTable(nullptr)) {}
  explicit CriticalPathAnalyzer(const LatencyTable& latencies)
      : costs_(costTable(&latencies)) {}

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

  /// The DP's sink type (see ResolvedObserver): one CriticalPathSink
  /// lane over this analyzer's own depth array.
  template <typename Visit>
  void dispatchSink(const Visit& visit);

 private:
  template <std::size_t>
  friend class CriticalPathSink;

  /// Chain depth per slot.
  RecycledVector<std::array<std::uint64_t, 1>> depth_;
  CostTable costs_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t instructions_ = 0;
};

/// The CP DP of one block as a resolver sink, for `kLanes` analyzers of
/// one trace at once (CP and scaled CP: two lanes, each with its own cost
/// table). A slot's depths sit side by side, so a source costs one load
/// of its entry and one max per lane, and a destination one store. It
/// needs no producers: an unwritten slot already reads depth 0.
template <std::size_t kLanes>
class CriticalPathSink : public ResolverSink {
 public:
  using Depths = std::array<std::uint64_t, kLanes>;

  /// One analyzer alone, over its own depth array.
  explicit CriticalPathSink(CriticalPathAnalyzer& analyzer)
    requires(kLanes == 1)
      : CriticalPathSink({&analyzer}, *analyzer.depth_) {}
  /// `depth` holds the lanes' depth per slot and persists between blocks.
  CriticalPathSink(const std::array<CriticalPathAnalyzer*, kLanes>& lanes,
                   std::vector<Depths>& depth)
      : lanes_(lanes), depth_(depth) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      maxDepth_[l] = lanes[l]->maxDepth_;
      costs_[l] = lanes[l]->costs_.data();
    }
  }
  /// Store the block's results back into the analyzers.
  void finish() {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lanes_[l]->maxDepth_ = maxDepth_[l];
      lanes_[l]->instructions_ += records_;
    }
  }

  void slotsGrew(std::uint32_t slots) {
    if (depth_.size() < slots) depth_.resize(slots, Depths{});
    depths_ = depth_.data();
  }
  void source(std::uint32_t slot, std::uint64_t) {
    const Depths& depth = depths_[slot];
    for (std::size_t l = 0; l < kLanes; ++l) {
      current_[l] = std::max(current_[l], depth[l]);
    }
  }
  void sourcesDone(std::uint8_t costClass) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      current_[l] += costs_[l][costClass];
    }
  }
  void destination(std::uint32_t slot) {
    // Lane by lane: one 16-byte copy of the pair would be assembled on the
    // stack first, and its load would wait for both halves' stores.
    for (std::size_t l = 0; l < kLanes; ++l) depths_[slot][l] = current_[l];
  }
  void recordDone() {
    for (std::size_t l = 0; l < kLanes; ++l) {
      maxDepth_[l] = std::max(maxDepth_[l], current_[l]);
      current_[l] = 0;
    }
    ++records_;
  }

 private:
  std::array<CriticalPathAnalyzer*, kLanes> lanes_;
  std::vector<Depths>& depth_;
  Depths* depths_ = nullptr;
  std::array<const std::uint32_t*, kLanes> costs_;  ///< each lane's table
  Depths current_{};  ///< the current record's chains
  Depths maxDepth_;
  std::uint64_t records_ = 0;
};

template <typename Visit>
void CriticalPathAnalyzer::dispatchSink(const Visit& visit) {
  visit(std::type_identity<CriticalPathSink<1>>{});
}

}  // namespace riscmp
