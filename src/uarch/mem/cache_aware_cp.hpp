// Memory-aware scaled critical path (ISSUE 5 tentpole).
//
// The paper's scaled CP (§5.1) charges every non-memory instruction its
// core-model latency and leaves loads and stores at one cycle under the
// store-forwarding assumption — a flat memory system. This analyzer is the
// new memory-aware mode layered beside it (the flat mode stays the
// default, and its Table 2 numbers are bit-for-bit unaffected): the chain
// arithmetic is identical, except that each load contributes its *dynamic*
// latency — L1 hit, L2 hit, or memory — from a private MemoryHierarchy
// driven by the same retired-instruction stream. Stores keep cost 1
// (forwarded from the store buffer) but still update cache state, since a
// written line is a later hit.
//
// The chains come from the one §4.1 dependency rule
// (analysis/dependencies.hpp): the DP is a resolver sink over the same
// slots as CriticalPathAnalyzer, so the two modes differ only in load
// cost, never in chain shape.
//
// The analyzer owns its hierarchy instead of sharing the MPKI observer's:
// observers are independent by contract (isa/trace.hpp), and two
// hierarchies fed the same trace behave identically, so no cross-observer
// ordering is needed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "analysis/dependencies.hpp"
#include "isa/trace.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp::uarch::mem {

class CacheAwareCpAnalyzer final
    : public ResolvedObserver<CacheAwareCpAnalyzer> {
 public:
  /// Throws ConfigError when the cache geometry is invalid.
  CacheAwareCpAnalyzer(const LatencyTable& latencies,
                       const CacheConfig& config);

  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] double ilp() const {
    return maxDepth_ == 0 ? 0.0
                          : static_cast<double>(instructions_) /
                                static_cast<double>(maxDepth_);
  }
  [[nodiscard]] double runtimeSeconds(double clockHz = 2e9) const {
    return static_cast<double>(maxDepth_) / clockHz;
  }
  [[nodiscard]] const HierarchyStats& cacheStats() const {
    return hierarchy_.stats();
  }

  /// The DP's sink type (see ResolvedObserver).
  template <typename Visit>
  void dispatchSink(const Visit& visit) {
    visit(std::type_identity<Sink>{});
  }

  /// The chain DP of one block as a resolver sink: a depth per slot, as in
  /// CriticalPathSink, with each record's cost from cost().
  class Sink : public ResolverSink {
   public:
    explicit Sink(CacheAwareCpAnalyzer& analyzer) : analyzer_(analyzer) {}
    void finish() {}

    void slotsGrew(std::uint32_t slots) {
      if (analyzer_.depth_.size() < slots) analyzer_.depth_.resize(slots, 0);
      depth_ = analyzer_.depth_.data();
    }
    void record(const RetiredInst& inst) { inst_ = &inst; }
    void source(std::uint32_t slot, std::uint64_t) {
      current_ = std::max(current_, depth_[slot]);
    }
    void sourcesDone(std::uint8_t costClass) {
      current_ += analyzer_.cost(*inst_, costClass);
    }
    void destination(std::uint32_t slot) { depth_[slot] = current_; }
    void recordDone() {
      analyzer_.maxDepth_ = std::max(analyzer_.maxDepth_, current_);
      ++analyzer_.instructions_;
      current_ = 0;
    }

   private:
    CacheAwareCpAnalyzer& analyzer_;
    std::uint64_t* depth_ = nullptr;
    const RetiredInst* inst_ = nullptr;
    std::uint64_t current_ = 0;  ///< the current record's chain
  };

 private:
  /// Run the record's loads, then its stores, through the hierarchy and
  /// return its chain cost: the slowest load's load-to-use latency when it
  /// loads, 1 when it only stores (store forwarding), its group latency
  /// otherwise.
  std::uint64_t cost(const RetiredInst& inst, std::uint8_t costClass);

  MemoryHierarchy hierarchy_;
  std::vector<std::uint64_t> depth_;  ///< chain depth per slot
  CostTable costs_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t instructions_ = 0;
};

}  // namespace riscmp::uarch::mem
