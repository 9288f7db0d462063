// The architecture-neutral dynamic-trace record retired by the emulation
// core, and the observer interface all analyses implement.
//
// The paper's four experiments (path length, critical path, scaled critical
// path, windowed critical path) are all pure functions of this record stream;
// implementing them as observers lets one simulation pass feed any number of
// analyses.
//
// Delivery is block-batched (DESIGN.md §10): the core fills a reusable
// TraceBlock and hands it to each observer via onRetireBlock, the one entry
// point every observer implements, so the virtual call is amortised over
// up to kTraceBlockCapacity records.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "isa/groups.hpp"
#include "isa/reg.hpp"
#include "support/small_vector.hpp"

namespace riscmp {

struct MemAccess {
  std::uint64_t addr = 0;
  std::uint8_t size = 0;  ///< bytes (1, 2, 4, or 8)

  bool operator==(const MemAccess&) const = default;
};

/// One retired instruction. Reads of the architectural zero register
/// (RISC-V x0, AArch64 XZR) are omitted from `srcs` by the executors: they
/// carry no dependency, matching the paper's critical-path method (§4.1).
/// Writes to the zero register are likewise omitted from `dsts`.
struct RetiredInst {
  /// `staticIndex` value for instructions executed outside the program's
  /// static code image (no static-metadata table entry exists for them).
  static constexpr std::uint32_t kNoStaticIndex = 0xffffffffu;

  std::uint64_t pc = 0;
  std::uint32_t encoding = 0;
  /// Index of this instruction's word in Program::code, stamped by the
  /// emulation core so observers can index per-static-instruction metadata
  /// tables (kernel attribution, group) in O(1) instead of searching by pc.
  std::uint32_t staticIndex = kNoStaticIndex;
  InstGroup group = InstGroup::IntSimple;

  SmallVector<Reg, 5> srcs;
  SmallVector<Reg, 3> dsts;
  SmallVector<MemAccess, 2> loads;
  SmallVector<MemAccess, 2> stores;

  bool isBranch = false;
  bool branchTaken = false;
  std::uint64_t branchTarget = 0;

  bool operator==(const RetiredInst&) const = default;

  /// Prepare this record for refill by the core: empty the operand lists
  /// (their inline storage is retained — no reconstruction) and clear the
  /// branch fields the executors only set when true. pc, encoding,
  /// staticIndex, and group are unconditionally overwritten every retire.
  void clearForReuse() {
    srcs.clear();
    dsts.clear();
    loads.clear();
    stores.clear();
    isBranch = false;
    branchTaken = false;
    branchTarget = 0;
  }
};

/// Retired-instruction records the core delivers per observer flush.
inline constexpr std::size_t kTraceBlockCapacity = 4096;

/// Fixed-capacity batch of retired-instruction records, reused in place by
/// the emulation core. next() hands out the slot after the committed prefix,
/// cleared for refill; commit() makes it visible to view(). A slot whose
/// instruction faults mid-execute is simply never committed, so a flushed
/// block only ever contains fully-retired instructions.
class TraceBlock {
 public:
  TraceBlock() : records_(kTraceBlockCapacity) {}

  [[nodiscard]] RetiredInst& next() {
    RetiredInst& slot = records_[size_];
    slot.clearForReuse();
    return slot;
  }
  void commit() { ++size_; }

  [[nodiscard]] bool full() const { return size_ == kTraceBlockCapacity; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Records that still fit before the block is full.
  [[nodiscard]] std::size_t room() const { return kTraceBlockCapacity - size_; }
  [[nodiscard]] std::span<const RetiredInst> view() const {
    return {records_.data(), size_};
  }
  /// Forget the committed prefix (storage is retained). The span returned
  /// by view() stays valid until the next next() call.
  void reset() { size_ = 0; }

 private:
  std::vector<RetiredInst> records_;
  std::size_t size_ = 0;
};

/// Threading contract: an observer instance belongs to exactly one Machine
/// (one experiment cell) at a time and is only called from the thread
/// driving that Machine's run(); implementations therefore need no locking.
/// Never attach one observer instance to Machines running on different
/// threads — the experiment engine (src/engine) constructs a fresh observer
/// set per cell instead.
///
/// Block delivery: the core calls onRetireBlock — on the same driving
/// thread — with up to kTraceBlockCapacity records at a time, flushing on
/// block-full, before every trap/syscall, before any fault propagates out
/// of run(), and at program end (before onProgramEnd). Records within and
/// across blocks arrive in exact retirement order; the span and the records
/// it references are only valid for the duration of the call.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;
  virtual void onRetireBlock(std::span<const RetiredInst> block) = 0;
  /// One record, delivered as a block of one (tests feed records this
  /// way). Virtual only so a tee can intercept single records too.
  virtual void onRetire(const RetiredInst& inst) { onRetireBlock({&inst, 1}); }
  /// Called once when the simulated program exits.
  virtual void onProgramEnd() {}
};

}  // namespace riscmp
