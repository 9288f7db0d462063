// Dependency-distance analysis (supports the paper's §6.2 explanation).
//
// For every retired instruction, the distance to each of its producers is
// the number of dynamically retired instructions between them. The paper
// explains RISC-V's small-window ILP advantage as "local dependent
// instructions are more distantly spread for RISC-V"; this observer
// measures exactly that: the distribution of producer->consumer distances
// through registers and memory. The producers come from the shared
// dependency front end (analysis/dependencies.hpp); every source operand
// with a producer is one sample, in the resolver's operand order.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>

#include "analysis/dependencies.hpp"
#include "support/stats.hpp"

namespace riscmp {

class DependencyDistanceAnalyzer final
    : public ResolvedObserver<DependencyDistanceAnalyzer> {
 public:
  DependencyDistanceAnalyzer();

  /// Mean producer->consumer distance over all observed dependencies.
  [[nodiscard]] double meanDistance() const { return stats_.mean(); }
  [[nodiscard]] std::uint64_t dependencies() const { return stats_.count(); }
  [[nodiscard]] std::uint64_t instructions() const { return retired_; }

  /// Fraction of dependencies with distance <= `window` — the share of
  /// producer/consumer pairs a ROB of that size could overlap.
  [[nodiscard]] double fractionWithin(std::uint64_t window) const;

  /// Power-of-two histogram: bucket[i] counts distances in
  /// [2^i, 2^(i+1)) (bucket 0 = distance 1).
  static constexpr std::size_t kBuckets = 24;
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& histogram() const {
    return histogram_;
  }

  /// The sampling's sink type (see ResolvedObserver).
  template <typename Visit>
  void dispatchSink(const Visit& visit) {
    visit(std::type_identity<Sink>{});
  }

  /// The sampling of one block as a resolver sink. Each sample is taken
  /// inside the walk, so the serial mean update overlaps with resolving
  /// the next records; the block works on its own copy of the statistics,
  /// so that update's chain does not pass through memory.
  class Sink : public ResolverSink {
   public:
    static constexpr bool kProducers = true;

    explicit Sink(DependencyDistanceAnalyzer& analyzer) : Sink(&analyzer) {}
    /// A null `analyzer` is a sink that samples nothing (a front end
    /// without dependency distance).
    explicit Sink(DependencyDistanceAnalyzer* analyzer)
        : analyzer_(analyzer) {
      if (analyzer_ != nullptr) {
        index_ = analyzer_->retired_;
        stats_ = analyzer_->stats_;
      }
    }
    void finish() {
      if (analyzer_ == nullptr) return;
      analyzer_->retired_ = index_;
      analyzer_->stats_ = stats_;
    }

    void source(std::uint32_t, std::uint64_t producer) {
      if (analyzer_ == nullptr) return;
      // A producer always precedes its consumer, so distances are >= 1.
      const std::uint64_t distance = index_ - producer;
      stats_.add(static_cast<double>(distance));
      const auto bucket =
          static_cast<std::size_t>(std::bit_width(distance) - 1);
      ++analyzer_->histogram_[bucket < kBuckets ? bucket : kBuckets - 1];
    }
    void recordDone() { ++index_; }

   private:
    DependencyDistanceAnalyzer* analyzer_;
    std::uint64_t index_ = 0;  ///< trace index of the current record
    RunningStats stats_;
  };

 private:
  std::array<std::uint64_t, kBuckets> histogram_{};
  RunningStats stats_;
  std::uint64_t retired_ = 0;
};

}  // namespace riscmp
