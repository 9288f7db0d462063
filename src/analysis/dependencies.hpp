// The one dependency front end of the CP-family analyses (paper §4.1).
//
// The §4.1 rule: an instruction depends on the latest earlier writer of each
// source register and of each 8-byte memory chunk its loads cover; the zero
// register breaks chains (the executors omit it from srcs and dsts).
// DependencyResolver is the only implementation of that rule. It walks a
// trace block once and reports, per record, its source operands as
// (slot, producer index) pairs and its destination slots to a sink. A slot
// is a dense register id (Reg::dense()) or, past them, a dense id for one
// 8-byte chunk. Chunk ids are handed out a page at a time: the first store
// to a 4 KiB page gives its 512 chunks consecutive slots, so a chunk's slot
// costs one lookup in a small page table, once per access, whichever
// analyses consume it.
//
// Each consumer is a small dynamic programme written as a sink:
//  - critical path and scaled CP keep an array-indexed depth per slot, as
//    one lane each of a shared DP when both run;
//  - dependency distance records `index - producer`;
//  - windowed CP keeps a ring of depths with one lane per live window;
//  - cache-aware CP, the throughput bound's whole-program and per-kernel
//    chains, and the OoO core's operand readiness keep an array-indexed
//    depth (or ready cycle) per slot, and read the record itself through
//    the sink's record() hook.
// A DependencyFrontEnd runs every paper-stack consumer of a cell inside
// one walk, so each record is resolved once however many analyses read
// it. A consumer attached to a Machine on its own runs the same walk
// through a private resolver. Nothing is materialised between the walk
// and the DPs.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "isa/trace.hpp"
#include "support/flat_hash.hpp"
#include "support/recycled_vector.hpp"

namespace riscmp {

/// Execution latency per instruction group (cycles).
using LatencyTable = std::array<std::uint32_t, kInstGroupCount>;

/// The unit latency table: every group costs one cycle (ideal processor).
constexpr LatencyTable unitLatencies() {
  LatencyTable table{};
  table.fill(1);
  return table;
}

/// Cost class of a record: its InstGroup, or kMemoryCostClass when it loads
/// or stores. Memory instructions are never scaled (§5.1: store forwarding
/// assumed), so a CostTable maps that class to 1 whatever the latencies.
inline constexpr std::uint8_t kMemoryCostClass = kInstGroupCount;
using CostTable = std::array<std::uint32_t, kInstGroupCount + 1>;

/// Per-cost-class chain cost: `latencies`, or unit costs when null.
[[nodiscard]] CostTable costTable(const LatencyTable* latencies);

/// Inclusive range of the 8-byte chunks one access covers.
struct ChunkRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
};
[[nodiscard]] constexpr ChunkRange chunkRange(const MemAccess& access) {
  // The executors emit 1-8 byte accesses, so one covers at most two chunks;
  // the rule has no cap, and a zero size would wrap `last`.
  assert(access.size >= 1 && access.size <= 8);
  return {access.addr >> 3, (access.addr + access.size - 1) >> 3};
}

/// The calls a resolver makes on its sink, as no-ops: a sink derives from
/// this and hides the ones its DP needs. kProducers asks for the producer
/// of each source; without it no latest-writer table is kept and every
/// source is reported with producer 0. A sink whose per-record work needs
/// the record itself (its group, addresses or branch outcome) also
/// declares `void record(const RetiredInst&)` (see RecordSink); the
/// resolver calls it first for each record, and a sink without it walks
/// no differently.
struct ResolverSink {
  static constexpr bool kProducers = false;
  /// Every slot id from now on is below `slotCount`.
  void slotsGrew(std::uint32_t /*slotCount*/) {}
  void source(std::uint32_t /*slot*/, std::uint64_t /*producer*/) {}
  void sourcesDone(std::uint8_t /*costClass*/) {}
  void destination(std::uint32_t /*slot*/) {}
  void recordDone() {}
};

/// A sink that is handed each record before its sources.
template <typename Sink>
concept RecordSink = requires(Sink& sink, const RetiredInst& inst) {
  sink.record(inst);
};

/// Applies the §4.1 rule to a record stream, block by block. Trace
/// indices count records from construction.
class DependencyResolver {
 public:
  /// Resolve `block`, the next records of the trace, into `sink`. Per
  /// record a RecordSink first sees record(inst); every sink then sees
  /// source(slot, producer) for each source operand in trace order
  /// (`srcs`, then each load's chunks; not deduplicated),
  /// sourcesDone(costClass), destination(slot) for each destination
  /// (`dsts`, then each store's chunks), then recordDone(). slotsGrew runs
  /// first and whenever new slots appear. With Sink::kProducers a source
  /// nothing has written yet carries no dependency and is left out; use
  /// the same kProducers for every block of a trace.
  template <typename Sink>
  void resolveInto(std::span<const RetiredInst> block, Sink& sink);

  [[nodiscard]] std::uint32_t slotCount() const { return slots_; }

 private:
  /// writer_ entry of a slot nothing has written yet.
  static constexpr std::uint64_t kNoWriter = ~std::uint64_t{0};
  static constexpr std::uint64_t kPageChunks = 512;  ///< 4 KiB of memory

  /// Give a page's chunks their slots (on its first store); returns the
  /// first slot.
  std::uint32_t allocatePage(std::uint64_t page);

  /// Latest writer per slot, sized only by walks that report producers.
  RecycledVector<std::uint64_t> writer_;
  FlatHashMap64<std::uint32_t> pageSlots_;  ///< page -> its first slot
  std::uint32_t slots_ = Reg::kDenseCount;
  std::uint64_t retired_ = 0;
};

template <typename Sink>
void DependencyResolver::resolveInto(std::span<const RetiredInst> block,
                                     Sink& sink) {
  if constexpr (Sink::kProducers) {
    if (writer_->size() < slots_) writer_->resize(slots_, kNoWriter);
  }
  std::uint64_t* writer = writer_->data();
  sink.slotsGrew(slots_);
  std::uint64_t index = retired_;
  for (const RetiredInst& inst : block) {
    if constexpr (RecordSink<Sink>) sink.record(inst);
    // Every source reads its latest writer before this record's own writes
    // land, so an instruction never depends on itself.
    const auto addSource = [&](std::uint32_t slot) {
      if constexpr (Sink::kProducers) {
        const std::uint64_t producer = writer[slot];
        if (producer != kNoWriter) sink.source(slot, producer);
      } else {
        sink.source(slot, 0);
      }
    };
    for (const Reg& reg : inst.srcs) addSource(reg.dense());
    for (const MemAccess& access : inst.loads) {
      const ChunkRange range = chunkRange(access);
      for (std::uint64_t chunk = range.first; chunk <= range.last; ++chunk) {
        const std::uint32_t* page = pageSlots_.find(chunk / kPageChunks);
        if (page == nullptr) continue;  // no store has touched the page
        addSource(static_cast<std::uint32_t>(*page + chunk % kPageChunks));
      }
    }
    const bool isMem = !inst.loads.empty() || !inst.stores.empty();
    sink.sourcesDone(isMem ? kMemoryCostClass
                           : static_cast<std::uint8_t>(inst.group));

    for (const Reg& reg : inst.dsts) {
      const unsigned slot = reg.dense();
      if constexpr (Sink::kProducers) writer[slot] = index;
      sink.destination(slot);
    }
    for (const MemAccess& access : inst.stores) {
      const ChunkRange range = chunkRange(access);
      for (std::uint64_t chunk = range.first; chunk <= range.last; ++chunk) {
        const std::uint64_t pageId = chunk / kPageChunks;
        std::uint32_t first;
        if (const std::uint32_t* page = pageSlots_.find(pageId)) {
          first = *page;
        } else {
          first = allocatePage(pageId);
          if constexpr (Sink::kProducers) {
            writer_->resize(slots_, kNoWriter);
            writer = writer_->data();
          }
          sink.slotsGrew(slots_);
        }
        const auto slot =
            static_cast<std::uint32_t>(first + chunk % kPageChunks);
        if constexpr (Sink::kProducers) writer[slot] = index;
        sink.destination(slot);
      }
    }
    sink.recordDone();
    ++index;
  }
  retired_ = index;
}

/// A trace observer computed from resolved dependencies. Its DP is a
/// resolver sink, built from the analyzer for each block and finished
/// after it; `Analyzer::dispatchSink(visit)` calls
/// `visit(std::type_identity<Sink>{})` with the sink type its current
/// configuration needs. Attached to a Machine on its own, the analyzer runs
/// that sink in a private resolver's walk; a DependencyFrontEnd runs the
/// same sink in the walk it shares.
template <typename Analyzer>
class ResolvedObserver : public TraceObserver {
 public:
  void onRetireBlock(std::span<const RetiredInst> block) final {
    static_cast<Analyzer&>(*this).dispatchSink(
        [&]<typename Sink>(std::type_identity<Sink>) { walk<Sink>(block); });
  }

 private:
  /// The sink is built inside the one function that runs the whole walk,
  /// so its state can stay in registers from the first record to the last.
  template <typename Sink>
  [[gnu::flatten]] void walk(std::span<const RetiredInst> block) {
    Sink sink(static_cast<Analyzer&>(*this));
    resolver_.resolveInto(block, sink);
    sink.finish();
  }

  DependencyResolver resolver_;
};

class CriticalPathAnalyzer;
class WindowedCPAnalyzer;
class DependencyDistanceAnalyzer;

/// The CP-family analyses of one trace; a null member is not run.
struct DependencyConsumers {
  CriticalPathAnalyzer* criticalPath = nullptr;
  CriticalPathAnalyzer* scaledCp = nullptr;
  WindowedCPAnalyzer* windowed = nullptr;
  DependencyDistanceAnalyzer* distance = nullptr;

  [[nodiscard]] bool any() const {
    return criticalPath != nullptr || scaledCp != nullptr ||
           windowed != nullptr || distance != nullptr;
  }
};

/// Resolves each block once, in one walk that runs every consumer's sink.
/// CP and scaled CP together are one two-lane DP over a depth array of
/// the front end's own. Producers are tracked only when windowed CP or
/// dependency distance runs.
class DependencyFrontEnd final : public TraceObserver {
 public:
  explicit DependencyFrontEnd(const DependencyConsumers& consumers);

  void onRetireBlock(std::span<const RetiredInst> block) override;

 private:
  /// One block through the consumers' sinks, all built inside it.
  template <typename Chains, typename Windowed, bool kProducers>
  void walk(std::span<const RetiredInst> block);

  DependencyResolver resolver_;
  DependencyConsumers consumers_;
  /// {CP, scaled CP} depth per slot, when both run.
  RecycledVector<std::array<std::uint64_t, 2>> pairedDepth_;
};

}  // namespace riscmp
