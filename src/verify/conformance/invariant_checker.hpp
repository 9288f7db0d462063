// Streaming trace invariant checker (ISSUE 3 tentpole, part 3).
//
// A TraceObserver that validates every dynamic trace record the emulation
// core retires, instruction by instruction:
//
//   * operands defined      — every source register was written earlier in
//                             the trace (or is architecturally defined at
//                             entry: the stack pointer). A read of a
//                             never-written register is a codegen or
//                             executor bug, not a program behaviour.
//   * memory inside arena   — every load/store record lies inside the
//                             machine's mapped memory arena and has a
//                             power-of-two size ≤ 8. The core would fault a
//                             wild access itself; this check proves the
//                             *trace record* is faithful to what executed.
//   * branch targets        — every taken branch lands 4-aligned inside the
//                             code image, and a branch retired inside a
//                             kernel region stays inside that kernel (kgen
//                             emits no cross-kernel control flow).
//   * retired count         — the checker's own count must agree with
//                             RunResult::instructions and with the
//                             path-length analysis (checkRetiredConsistency).
//
// A violation throws ValidationFault immediately, so through Machine::run
// it picks up the full MachineContext crash report and classifies as a
// Validation fault in any verify::FaultBoundary — never a crash. The
// checker is a plain observer: attach it to a Machine directly, or to an
// engine::runJobs cell via ExperimentEngine::simulate.
#pragma once

#include <bitset>
#include <cstdint>
#include <span>

#include "core/program.hpp"
#include "isa/trace.hpp"

namespace riscmp::verify::conformance {

class TraceInvariantChecker final : public TraceObserver {
 public:
  struct Options {
    bool checkOperandsDefined = true;
    bool checkMemoryBounds = true;
    bool checkBranchTargets = true;
  };

  struct Stats {
    std::uint64_t retired = 0;
    std::uint64_t operandChecks = 0;
    std::uint64_t memoryChecks = 0;
    std::uint64_t branchChecks = 0;
  };

  /// `arenaBase`/`arenaEnd` bound the machine's memory (Memory::base/end),
  /// captured before run(). Kernel regions and code bounds come from the
  /// program's symbol table.
  TraceInvariantChecker(const Program& program, std::uint64_t arenaBase,
                        std::uint64_t arenaEnd);
  TraceInvariantChecker(const Program& program, std::uint64_t arenaBase,
                        std::uint64_t arenaEnd, Options options);

  /// Mark an extra register as defined at entry (beyond the per-arch
  /// default: the ABI stack pointer). For hand-written test programs whose
  /// preconditions differ from kgen's.
  void defineRegister(Reg reg);

  /// Throws ValidationFault on the first violated invariant. Under block
  /// delivery the violation message still names the exact violating pc and
  /// retired index; the throw surfaces when the core flushes the block the
  /// record belongs to (block-full, trap/syscall, fault, or program end).
  void onRetireBlock(std::span<const RetiredInst> block) override;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t retired() const { return stats_.retired; }

 private:
  [[noreturn]] void violate(const RetiredInst& inst,
                            const std::string& what) const;

  const Program& program_;
  std::uint64_t arenaBase_;
  std::uint64_t arenaEnd_;
  Options options_;
  Stats stats_;
  std::bitset<Reg::kDenseCount> defined_;
};

/// Cross-checks the retired-instruction counts one simulation pass
/// produced: the machine's RunResult, the invariant checker's stream count,
/// and the path-length analysis total (whose per-kernel attribution must
/// also sum to it, `kernelSum + unattributed == total`). Throws
/// ValidationFault naming every disagreeing counter.
void checkRetiredConsistency(std::uint64_t runInstructions,
                             const TraceInvariantChecker& checker,
                             std::uint64_t pathLengthTotal,
                             std::uint64_t kernelSum,
                             std::uint64_t unattributed);

}  // namespace riscmp::verify::conformance
