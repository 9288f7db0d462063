#include "analysis/dependencies.hpp"

#include <type_traits>

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

std::uint32_t DependencyResolver::allocatePage(std::uint64_t page) {
  const std::uint32_t first = slots_;
  pageSlots_.assign(page, first);
  slots_ += kPageChunks;
  return first;
}

namespace {

/// A consumer that does not run.
struct NoSink : ResolverSink {
  void finish() {}
};

/// Every present consumer's sink, driven by one walk: each call goes to
/// the CP chains, windowed CP and dependency distance in turn. The chains
/// and windowed CP are compile-time parts (NoSink when absent), so each
/// combination is a loop of its own; dependency distance, whose every
/// sample is a long serial update anyway, is a null-tested sink rather
/// than doubling the loops compiled here. FanOut is one aggregate that
/// nothing takes the address of, so the compiler can keep its parts'
/// state in registers.
template <typename Chains, typename Windowed, bool kWithProducers>
class FanOut {
 public:
  static constexpr bool kProducers = kWithProducers;

  FanOut(const DependencyConsumers& consumers,
         std::vector<std::array<std::uint64_t, 2>>& pairedDepth)
      : chains_(makeChains(consumers, pairedDepth)),
        windowed_(makeWindowed(consumers.windowed)),
        distance_(kProducers ? consumers.distance : nullptr) {}

  void slotsGrew(std::uint32_t slotCount) { chains_.slotsGrew(slotCount); }
  void source(std::uint32_t slot, std::uint64_t producer) {
    chains_.source(slot, producer);
    windowed_.source(slot, producer);
    if constexpr (kProducers) distance_.source(slot, producer);
  }
  void sourcesDone(std::uint8_t costClass) {
    chains_.sourcesDone(costClass);
    windowed_.sourcesDone(costClass);
  }
  void destination(std::uint32_t slot) { chains_.destination(slot); }
  void recordDone() {
    chains_.recordDone();
    windowed_.recordDone();
    if constexpr (kProducers) distance_.recordDone();
  }
  void finish() {
    chains_.finish();
    windowed_.finish();
    distance_.finish();
  }

 private:
  static Chains makeChains(
      const DependencyConsumers& consumers,
      std::vector<std::array<std::uint64_t, 2>>& pairedDepth) {
    if constexpr (std::is_same_v<Chains, CriticalPathSink<2>>) {
      return Chains({consumers.criticalPath, consumers.scaledCp},
                    pairedDepth);
    } else if constexpr (std::is_same_v<Chains, CriticalPathSink<1>>) {
      return Chains(consumers.criticalPath != nullptr ? *consumers.criticalPath
                                                      : *consumers.scaledCp);
    } else {
      return Chains{};
    }
  }
  static Windowed makeWindowed(WindowedCPAnalyzer* windowed) {
    if constexpr (std::is_same_v<Windowed, NoSink>) {
      return Windowed{};
    } else {
      return Windowed(*windowed);
    }
  }

  Chains chains_;
  Windowed windowed_;
  DependencyDistanceAnalyzer::Sink distance_;
};

}  // namespace

DependencyFrontEnd::DependencyFrontEnd(const DependencyConsumers& consumers)
    : consumers_(consumers) {}

template <typename Chains, typename Windowed, bool kProducers>
[[gnu::flatten]] void DependencyFrontEnd::walk(
    std::span<const RetiredInst> block) {
  FanOut<Chains, Windowed, kProducers> sinks(consumers_, *pairedDepth_);
  resolver_.resolveInto(block, sinks);
  sinks.finish();
}

void DependencyFrontEnd::onRetireBlock(std::span<const RetiredInst> block) {
  // The chains' lane count and windowed CP's kernel are picked once per
  // block. CP and scaled CP index depth by slot, so an unwritten source
  // already reads depth 0: only the other two analyses need producers.
  const auto withWindowed = [&]<typename Chains>() {
    if (consumers_.windowed != nullptr) {
      consumers_.windowed->dispatchSink(
          [&]<typename Windowed>(std::type_identity<Windowed>) {
            walk<Chains, Windowed, true>(block);
          });
    } else if (consumers_.distance != nullptr) {
      walk<Chains, NoSink, true>(block);
    } else {
      walk<Chains, NoSink, false>(block);
    }
  };
  const bool cp = consumers_.criticalPath != nullptr;
  const bool scaled = consumers_.scaledCp != nullptr;
  if (cp && scaled) {
    withWindowed.template operator()<CriticalPathSink<2>>();
  } else if (cp || scaled) {
    withWindowed.template operator()<CriticalPathSink<1>>();
  } else {
    withWindowed.template operator()<NoSink>();
  }
}

}  // namespace riscmp
