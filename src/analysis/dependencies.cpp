#include "analysis/dependencies.hpp"

#include <optional>

#include "analysis/critical_path.hpp"
#include "analysis/dep_distance.hpp"
#include "analysis/windowed_cp.hpp"

namespace riscmp {

CostTable costTable(const LatencyTable* latencies) {
  CostTable table{};
  table.fill(1);
  if (latencies != nullptr) {
    for (std::size_t g = 0; g < kInstGroupCount; ++g) table[g] = (*latencies)[g];
  }
  return table;
}

void DependencyResolver::reset() {
  writer_.clear();
  pageSlots_.clear();
  slots_ = Reg::kDenseCount;
  retired_ = 0;
}

std::uint32_t DependencyResolver::allocatePage(std::uint64_t page) {
  const std::uint32_t first = slots_;
  pageSlots_.assign(page, first);
  slots_ += kPageChunks;
  return first;
}

namespace {

/// Every present consumer's sink, driven by one walk: each call goes to
/// each sink in turn.
template <bool kWithProducers>
class FanOut {
 public:
  static constexpr bool kProducers = kWithProducers;

  explicit FanOut(const DependencyConsumers& consumers) {
    if (consumers.criticalPath) cp_.emplace(*consumers.criticalPath);
    if (consumers.scaledCp) scaledCp_.emplace(*consumers.scaledCp);
    if constexpr (kProducers) {
      if (consumers.windowed) windowed_.emplace(*consumers.windowed);
      if (consumers.distance) distance_.emplace(*consumers.distance);
    }
  }

  void slotsGrew(std::uint32_t slotCount) {
    each([&](auto& sink) { sink.slotsGrew(slotCount); });
  }
  void source(std::uint32_t slot, std::uint64_t producer) {
    each([&](auto& sink) { sink.source(slot, producer); });
  }
  void sourcesDone(std::uint8_t costClass) {
    each([&](auto& sink) { sink.sourcesDone(costClass); });
  }
  void destination(std::uint32_t slot) {
    each([&](auto& sink) { sink.destination(slot); });
  }
  void recordDone() {
    each([](auto& sink) { sink.recordDone(); });
  }
  void finish() {
    each([](auto& sink) { sink.finish(); });
  }

 private:
  template <typename Call>
  void each(const Call& call) {
    if (cp_) call(*cp_);
    if (scaledCp_) call(*scaledCp_);
    if constexpr (kProducers) {
      if (windowed_) call(*windowed_);
      if (distance_) call(*distance_);
    }
  }

  std::optional<CriticalPathAnalyzer::Sink> cp_;
  std::optional<CriticalPathAnalyzer::Sink> scaledCp_;
  std::optional<WindowedCPAnalyzer::Sink> windowed_;
  std::optional<DependencyDistanceAnalyzer::Sink> distance_;
};

}  // namespace

DependencyFrontEnd::DependencyFrontEnd(const DependencyConsumers& consumers)
    : consumers_(consumers) {}

template <bool kProducers>
void DependencyFrontEnd::walk(std::span<const RetiredInst> block) {
  FanOut<kProducers> sinks(consumers_);
  resolver_.resolveInto(block, sinks);
  sinks.finish();
}

void DependencyFrontEnd::onRetireBlock(std::span<const RetiredInst> block) {
  // CP and scaled CP index depth by slot, so an unwritten source already
  // reads depth 0: only the other two analyses need producers.
  if (consumers_.windowed != nullptr || consumers_.distance != nullptr) {
    walk<true>(block);
  } else {
    walk<false>(block);
  }
}

}  // namespace riscmp
