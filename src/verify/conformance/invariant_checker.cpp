#include "verify/conformance/invariant_checker.hpp"

#include <sstream>
#include <string>

#include "support/fault.hpp"

namespace riscmp::verify::conformance {

namespace {

std::string regName(Reg reg) {
  switch (reg.cls) {
    case RegClass::Gp:
      return "gp" + std::to_string(reg.idx);
    case RegClass::Fp:
      return "fp" + std::to_string(reg.idx);
    case RegClass::Flags:
      return "flags";
  }
  return "?";
}

}  // namespace

TraceInvariantChecker::TraceInvariantChecker(const Program& program,
                                             std::uint64_t arenaBase,
                                             std::uint64_t arenaEnd)
    : TraceInvariantChecker(program, arenaBase, arenaEnd, Options{}) {}

TraceInvariantChecker::TraceInvariantChecker(const Program& program,
                                             std::uint64_t arenaBase,
                                             std::uint64_t arenaEnd,
                                             Options options)
    : program_(program),
      arenaBase_(arenaBase),
      arenaEnd_(arenaEnd),
      options_(options) {
  // The ABI stack pointer is live at entry (Machine::run sets it up):
  // RISC-V x2; AArch64 SP, which the executor records as Reg::gp(31)
  // (XZR reads are omitted from traces, so gp31-as-source always means SP).
  defined_.set(Reg::gp(program.arch == Arch::Rv64 ? 2u : 31u).dense());
}

void TraceInvariantChecker::defineRegister(Reg reg) {
  defined_.set(reg.dense());
}

void TraceInvariantChecker::violate(const RetiredInst& inst,
                                    const std::string& what) const {
  std::ostringstream out;
  out << "trace invariant violated at pc " << fault_detail::hexAddr(inst.pc)
      << " (retired " << stats_.retired << "): " << what;
  throw ValidationFault(out.str());
}

void TraceInvariantChecker::onRetireBlock(
    std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) {
    if (options_.checkOperandsDefined) {
      // Sources are checked before destinations take effect, so an
      // instruction reading its own output (accumulators, movk) still
      // requires a prior definition.
      for (const Reg src : inst.srcs) {
        ++stats_.operandChecks;
        if (!defined_.test(src.dense())) {
          violate(inst, "source register " + regName(src) +
                            " read before any definition");
        }
      }
      for (const Reg dst : inst.dsts) defined_.set(dst.dense());
    }

    if (options_.checkMemoryBounds) {
      const auto checkAccess = [&](const MemAccess& access, const char* what) {
        ++stats_.memoryChecks;
        if (access.size != 1 && access.size != 2 && access.size != 4 &&
            access.size != 8) {
          violate(inst, std::string(what) + " record has invalid size " +
                            std::to_string(access.size));
        }
        if (access.addr < arenaBase_ || access.addr + access.size > arenaEnd_) {
          violate(inst, std::string(what) + " at " +
                            fault_detail::hexAddr(access.addr) + " size " +
                            std::to_string(access.size) +
                            " outside the mapped arena [" +
                            fault_detail::hexAddr(arenaBase_) + ", " +
                            fault_detail::hexAddr(arenaEnd_) + ")");
        }
      };
      for (const MemAccess& load : inst.loads) checkAccess(load, "load");
      for (const MemAccess& store : inst.stores) checkAccess(store, "store");
    }

    if (options_.checkBranchTargets && inst.isBranch && inst.branchTaken) {
      ++stats_.branchChecks;
      const std::uint64_t target = inst.branchTarget;
      if ((target & 3) != 0) {
        violate(inst, "taken branch to misaligned target " +
                          fault_detail::hexAddr(target));
      }
      const std::uint64_t codeBase = program_.codeBase;
      const std::uint64_t codeEnd = program_.codeEnd();
      if (target < codeBase || target >= codeEnd) {
        violate(inst, "taken branch to " + fault_detail::hexAddr(target) +
                          " outside the code image [" +
                          fault_detail::hexAddr(codeBase) + ", " +
                          fault_detail::hexAddr(codeEnd) + ")");
      }
      if (const Symbol* kernel = program_.kernelAt(inst.pc)) {
        if (program_.kernelAt(target) != kernel) {
          violate(inst, "branch in kernel '" + kernel->name + "' to " +
                            fault_detail::hexAddr(target) +
                            " escapes the kernel region");
        }
      }
    }

    ++stats_.retired;
  }
}

void checkRetiredConsistency(std::uint64_t runInstructions,
                             const TraceInvariantChecker& checker,
                             std::uint64_t pathLengthTotal,
                             std::uint64_t kernelSum,
                             std::uint64_t unattributed) {
  if (runInstructions == checker.retired() &&
      runInstructions == pathLengthTotal &&
      kernelSum + unattributed == pathLengthTotal) {
    return;
  }
  std::ostringstream out;
  out << "retired-count inconsistency: RunResult=" << runInstructions
      << " checker=" << checker.retired()
      << " pathLength=" << pathLengthTotal << " (kernels=" << kernelSum
      << " + unattributed=" << unattributed << ")";
  throw ValidationFault(out.str());
}

}  // namespace riscmp::verify::conformance
