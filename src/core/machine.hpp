// The emulation core (paper §3.1): executes each instruction atomically to
// completion in a single "cycle", retiring an architecture-neutral trace
// record to any number of observers. This mirrors the SimEng emulation core
// model the paper uses for all four experiments.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/memory.hpp"
#include "core/program.hpp"
#include "isa/trace.hpp"
#include "support/fault.hpp"

namespace riscmp {

struct MachineOptions {
  /// Simulated memory size. Grown automatically to cover the program image
  /// plus stack if too small, so the default only matters for programs that
  /// address memory beyond their static image. The arena is mapped, not
  /// filled: only the pages the program image and the run write cost
  /// memory.
  std::uint64_t memorySize = 4ull << 20;
  /// Abort after this many instructions (0 = unlimited).
  std::uint64_t maxInstructions = 0;
  /// Destination for the simulated program's write(1, ...) syscalls.
  std::ostream* stdoutStream = nullptr;
  /// Cooperative wall-clock deadline: when non-null and the pointee becomes
  /// non-zero (the engine watchdog stores the deadline in milliseconds),
  /// run() raises a TimeoutFault — with full machine context, like every
  /// other core fault — at the next check, every 4096 retired
  /// instructions. The pointee must outlive run().
  const std::atomic<std::uint32_t>* deadlineExpiredMs = nullptr;
};

struct RunResult {
  std::uint64_t instructions = 0;  ///< dynamic path length
  int exitCode = 0;
  bool exitedCleanly = false;  ///< reached the exit syscall
};

/// One simulated machine: program + memory + the architectural core for the
/// program's ISA. Both ISAs use the Linux generic syscall numbers
/// (exit=93, write=64) via ECALL / SVC #0.
///
/// Threading contract (enforced for the experiment engine, src/engine):
/// a Machine is strictly single-threaded — construct it, attach observers,
/// and call run() from one thread. Concurrency lives a layer above: the
/// engine gives every workload × era × ISA cell its own Machine and its own
/// observers on one worker thread, and merges results deterministically.
/// run() is not reentrant and detects concurrent or recursive invocation
/// (ValidationFault) rather than corrupting observer state. The Program
/// passed to the constructor is copied, so a cached compilation may be
/// shared read-only across Machines on different threads.
class Machine {
 public:
  explicit Machine(const Program& program, MachineOptions options = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Register an observer; it receives every retired instruction, delivered
  /// in blocks of up to kTraceBlockCapacity records through
  /// TraceObserver::onRetireBlock, the one delivery path.
  /// The core flushes the pending block on block-full, before every
  /// trap/syscall, before any fault propagates out of run(), and at program
  /// end, so observers always see the complete retired prefix before any
  /// side effect or crash report. Observers must outlive the Machine's
  /// run() calls.
  void addObserver(TraceObserver& observer);

  /// Run from the program entry point until exit. Every failure is thrown
  /// as a `Fault` subclass (DecodeFault, MemoryFault, TrapFault,
  /// BudgetExceeded) annotated with a MachineContext snapshot — pc,
  /// retired-instruction count, faulting word and disassembly, enclosing
  /// kernel, and a register snapshot — so callers can render a full crash
  /// report via Fault::report().
  RunResult run();

  [[nodiscard]] Memory& memory();
  [[nodiscard]] const Program& program() const;

  /// Architectural register file after the most recent run() — (name,
  /// value) pairs in the same display order the crash reports use; empty
  /// before the first run. The conformance oracle folds this final register
  /// image into its per-config trace digests and divergence reports.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> registers()
      const;

  /// Implementation interface (public so the per-ISA cores can derive from
  /// it inside the translation unit).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace riscmp
