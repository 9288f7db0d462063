// Trace-driven out-of-order core timing model — the paper's §8 future work:
// "SimEng provides the capability for simulating OoO superscalar
// microarchitectures... using real-world sizes for OoO resources".
//
// The model consumes the retired-instruction stream in program order and
// computes, per instruction:
//   dispatch  — bounded by dispatch width and ROB occupancy
//   issue     — bounded by operand readiness (registers and memory, with
//               store-to-load forwarding) and execution-port contention
//   complete  — issue + group latency (fully pipelined units)
//   commit    — in order, bounded by commit width
// Branch handling follows the configured predictor: Perfect (the paper's
// assumption) has no penalty; Static (backward-taken) charges the
// mispredict penalty on wrong guesses.
//
// This is the classic O(1)-per-instruction trace-driven OoO model: it
// captures dependency, capacity, and bandwidth limits without simulating
// speculative wrong paths. Operand readiness follows the one §4.1
// dependency rule (analysis/dependencies.hpp): the model is a resolver
// sink that keeps each slot's ready cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "analysis/dependencies.hpp"
#include "isa/trace.hpp"
#include "uarch/core_model.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp::uarch {

class OoOCoreModel final : public ResolvedObserver<OoOCoreModel> {
 public:
  /// `memoryAware` attaches the cache model from the core model's
  /// `caches:` section (ISSUE 5): each load's execution latency becomes
  /// its dynamic load-to-use latency (L1 / L2 / memory) instead of the
  /// flat LOAD table entry, and stores update cache state. Throws
  /// ConfigError when the model has no `caches:` section. The default
  /// stays the paper's flat memory system.
  explicit OoOCoreModel(CoreModel model, bool memoryAware = false);

  [[nodiscard]] std::uint64_t cycles() const { return lastCommitCycle_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] double cpi() const {
    return instructions_ == 0 ? 0.0
                              : static_cast<double>(cycles()) /
                                    static_cast<double>(instructions_);
  }
  [[nodiscard]] double ipc() const {
    return cycles() == 0 ? 0.0
                         : static_cast<double>(instructions_) /
                               static_cast<double>(cycles());
  }
  [[nodiscard]] double runtimeSeconds() const {
    return static_cast<double>(cycles()) / (model_.clockGhz * 1e9);
  }
  [[nodiscard]] std::uint64_t mispredicts() const { return mispredicts_; }
  [[nodiscard]] const CoreModel& model() const { return model_; }
  /// Cache counters when constructed memory-aware, nullptr otherwise.
  [[nodiscard]] const mem::HierarchyStats* cacheStats() const {
    return hierarchy_ ? &hierarchy_->stats() : nullptr;
  }

  /// The model's sink type (see ResolvedObserver).
  template <typename Visit>
  void dispatchSink(const Visit& visit) {
    visit(std::type_identity<Sink>{});
  }

  /// The model over one block as a resolver sink: a record's operands are
  /// ready at the latest ready cycle of its sources, schedule() times the
  /// record, and its destinations are ready when it completes.
  class Sink : public ResolverSink {
   public:
    explicit Sink(OoOCoreModel& model) : model_(model) {}
    void finish() {}

    void slotsGrew(std::uint32_t slots) {
      if (model_.ready_.size() < slots) model_.ready_.resize(slots, 0);
      ready_ = model_.ready_.data();
    }
    void record(const RetiredInst& inst) { inst_ = &inst; }
    void source(std::uint32_t slot, std::uint64_t) {
      operands_ = std::max(operands_, ready_[slot]);
    }
    void sourcesDone(std::uint8_t) {
      complete_ = model_.schedule(*inst_, operands_);
    }
    void destination(std::uint32_t slot) { ready_[slot] = complete_; }
    void recordDone() { operands_ = 0; }

   private:
    OoOCoreModel& model_;
    std::uint64_t* ready_ = nullptr;
    const RetiredInst* inst_ = nullptr;
    std::uint64_t operands_ = 0;  ///< when the record's sources are ready
    std::uint64_t complete_ = 0;  ///< when the record's result is ready
  };

 private:
  CoreModel model_;
  std::optional<mem::MemoryHierarchy> hierarchy_;

  std::uint64_t instructions_ = 0;
  std::uint64_t mispredicts_ = 0;

  // Front end: dispatch cycle tracking.
  std::uint64_t dispatchCycle_ = 1;
  unsigned dispatchedThisCycle_ = 0;
  std::uint64_t frontEndStallUntil_ = 0;

  // ROB occupancy: commit cycles of in-flight instructions, ring buffer.
  std::vector<std::uint64_t> robCommitCycles_;
  std::size_t robHead_ = 0;
  std::size_t robCount_ = 0;

  // Operand readiness: the cycle each slot's latest value is ready.
  std::vector<std::uint64_t> ready_;

  // Execution ports: next cycle each can accept an instruction.
  std::vector<std::uint64_t> portFree_;

  // In-order commit tracking.
  std::uint64_t lastCommitCycle_ = 0;
  unsigned committedThisCycle_ = 0;

  // Gshare predictor state (used when the model selects it).
  std::vector<std::uint8_t> gshareTable_;
  std::uint64_t globalHistory_ = 0;

  /// Dispatch, issue, execute, resolve (if a branch) and commit `inst`,
  /// whose operands are ready at cycle `operands`; returns the cycle it
  /// completes.
  std::uint64_t schedule(const RetiredInst& inst, std::uint64_t operands);
  [[nodiscard]] bool predictTaken(const RetiredInst& inst);
  void trainPredictor(const RetiredInst& inst);
};

}  // namespace riscmp::uarch
