#include "core/machine.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <string>

#include "aarch64/decode.hpp"
#include "aarch64/disasm.hpp"
#include "aarch64/exec.hpp"
#include "riscv/decode.hpp"
#include "riscv/disasm.hpp"
#include "riscv/exec.hpp"
#include "support/bits.hpp"

namespace riscmp {
namespace {

constexpr std::uint64_t kSyscallExit = 93;
constexpr std::uint64_t kSyscallWrite = 64;

struct SyscallOutcome {
  bool exited = false;
  int exitCode = 0;
};

/// Shared syscall semantics: number in reg `num`, args in a0..a2 / x0..x2.
SyscallOutcome handleSyscall(std::uint64_t number, std::uint64_t arg0,
                             std::uint64_t arg1, std::uint64_t arg2,
                             std::uint64_t& returnValue, Memory& memory,
                             std::ostream* out, std::uint64_t pc) {
  switch (number) {
    case kSyscallExit:
      return {true, static_cast<int>(arg0)};
    case kSyscallWrite: {
      if (out != nullptr && arg0 == 1 && arg2 != 0) {
        std::string text(arg2, '\0');
        memory.readBlock(arg1, {reinterpret_cast<std::uint8_t*>(text.data()),
                                text.size()});
        *out << text;
      }
      returnValue = arg2;
      return {};
    }
    default:
      throw TrapFault("unsupported syscall " + std::to_string(number), pc);
  }
}

/// ISA trait bundles: static dispatch keeps the fetch-decode-execute loop
/// free of virtual calls on the hot path.
struct Rv64Traits {
  using Inst = rv64::Inst;
  using State = rv64::State;
  using Trap = rv64::Trap;
  static constexpr Trap kNoTrap = rv64::Trap::None;
  static constexpr Trap kSyscallTrap = rv64::Trap::Ecall;
  static constexpr std::string_view kArchName = "RISC-V";

  static std::optional<Inst> decode(std::uint32_t word) {
    return rv64::decode(word);
  }
  static Trap execute(const Inst& inst, State& state, Memory& memory,
                      RetiredInst& retired) {
    return rv64::execute(inst, state, memory, retired);
  }
  static InstGroup group(const Inst& inst) { return inst.info().group; }
  static void setup(State& state, const Program& program, std::uint64_t sp) {
    state.pc = program.entry;
    state.x[2] = sp;  // ABI stack pointer
  }
  static SyscallOutcome syscall(State& state, Memory& memory,
                                std::ostream* out, std::uint64_t pc) {
    std::uint64_t ret = state.x[10];
    const SyscallOutcome outcome =
        handleSyscall(state.x[17], state.x[10], state.x[11], state.x[12], ret,
                      memory, out, pc);
    state.x[10] = ret;
    return outcome;
  }
  static std::string disasm(std::uint32_t word, std::uint64_t pc) {
    return rv64::disassemble(word, pc);
  }
  static std::string_view trapName(Trap trap) {
    switch (trap) {
      case Trap::Ebreak:
        return "ebreak";
      case Trap::IllegalInstruction:
        return "illegal instruction";
      default:
        return "trap";
    }
  }
  static void snapshotRegs(const State& state, MachineContext& ctx) {
    for (unsigned i = 0; i < 32; ++i) {
      ctx.regs.emplace_back(rv64::gprName(i), state.gpr(i));
    }
  }
};

struct A64Traits {
  using Inst = a64::Inst;
  using State = a64::State;
  using Trap = a64::Trap;
  static constexpr Trap kNoTrap = a64::Trap::None;
  static constexpr Trap kSyscallTrap = a64::Trap::Svc;
  static constexpr std::string_view kArchName = "AArch64";

  static std::optional<Inst> decode(std::uint32_t word) {
    return a64::decode(word);
  }
  static Trap execute(const Inst& inst, State& state, Memory& memory,
                      RetiredInst& retired) {
    return a64::execute(inst, state, memory, retired);
  }
  static InstGroup group(const Inst& inst) { return inst.info().group; }
  static void setup(State& state, const Program& program, std::uint64_t sp) {
    state.pc = program.entry;
    state.sp = sp;
  }
  static SyscallOutcome syscall(State& state, Memory& memory,
                                std::ostream* out, std::uint64_t pc) {
    std::uint64_t ret = state.x[0];
    const SyscallOutcome outcome = handleSyscall(
        state.x[8], state.x[0], state.x[1], state.x[2], ret, memory, out, pc);
    state.x[0] = ret;
    return outcome;
  }
  static std::string disasm(std::uint32_t word, std::uint64_t pc) {
    return a64::disassemble(word, pc);
  }
  static std::string_view trapName(Trap trap) {
    switch (trap) {
      case Trap::IllegalInstruction:
        return "illegal instruction";
      default:
        return "trap";
    }
  }
  static void snapshotRegs(const State& state, MachineContext& ctx) {
    for (unsigned i = 0; i < 31; ++i) {
      ctx.regs.emplace_back(std::string(a64::gprName(i, /*is64=*/true)),
                            state.x[i]);
    }
    ctx.regs.emplace_back("sp", state.sp);
  }
};

}  // namespace

struct Machine::Impl {
  virtual ~Impl() = default;
  virtual RunResult run() = 0;
  virtual void addObserver(TraceObserver& observer) = 0;
  virtual Memory& memory() = 0;
  virtual const Program& program() const = 0;
  virtual std::vector<std::pair<std::string, std::uint64_t>> registers()
      const = 0;
};

namespace {

template <typename Traits>
class CoreImpl final : public Machine::Impl {
 public:
  CoreImpl(const Program& program, const MachineOptions& options)
      : program_(program),
        options_(options),
        memory_(std::max(options.memorySize,
                         alignUp(program.highWaterMark(), 4096) +
                             kStackReserve)),
        slots_(program_.code.size()) {
    program_.loadInto(memory_);
  }

  void addObserver(TraceObserver& observer) override {
    observers_.push_back(&observer);
  }

  RunResult run() override {
    // Threading-contract guard (machine.hpp): one run() at a time, on one
    // thread. Catches both recursion from an observer callback and two
    // engine workers sharing a Machine.
    if (running_.exchange(true, std::memory_order_acq_rel)) {
      throw ValidationFault(
          "Machine::run is not reentrant: one Machine per cell per thread");
    }
    struct RunningGuard {
      std::atomic<bool>& flag;
      ~RunningGuard() { flag.store(false, std::memory_order_release); }
    } guard{running_};

    state_ = typename Traits::State{};
    const std::uint64_t stackTop = memory_.end() & ~15ull;
    Traits::setup(state_, program_, stackTop);

    RunResult result;
    block_.reset();
    while (!result.exitedCleanly) {
      checkPoint(result.instructions);
      runSegment(nextCheckPoint(result.instructions), result);
    }
    flushBlock();
    for (TraceObserver* observer : observers_) observer->onProgramEnd();
    return result;
  }

  Memory& memory() override { return memory_; }
  const Program& program() const override { return program_; }

  std::vector<std::pair<std::string, std::uint64_t>> registers()
      const override {
    MachineContext ctx;
    Traits::snapshotRegs(state_, ctx);
    return std::move(ctx.regs);
  }

 private:
  static constexpr std::uint64_t kStackReserve = 1 << 20;
  /// The deadline is polled every this many retirements.
  static constexpr std::uint64_t kDeadlineCadence = 4096;

  /// One code word's decode, made on its first fetch, and the static
  /// metadata every record of it carries.
  struct Slot {
    typename Traits::Inst inst{};
    std::uint32_t encoding = 0;
    std::uint32_t staticIndex = RetiredInst::kNoStaticIndex;
    InstGroup group = InstGroup::IntSimple;
    bool ready = false;
  };

  /// The budget and deadline tests. The loop makes them only between
  /// segments, and a segment never runs past a point where either could
  /// fire, so they fire at the same retired count as a test made before
  /// every instruction would.
  void checkPoint(std::uint64_t retired) {
    const typename Traits::State& state = state_;
    if (options_.maxInstructions != 0 && retired >= options_.maxInstructions) {
      flushForFault(state, state.pc, retired);
      BudgetExceeded fault(options_.maxInstructions);
      fault.attachContext(makeContext(state, state.pc, retired));
      throw fault;
    }
    // One relaxed atomic load per 4096 retirements keeps the watchdog off
    // the hot path.
    if (options_.deadlineExpiredMs != nullptr &&
        retired % kDeadlineCadence == 0) {
      if (const std::uint32_t deadlineMs =
              options_.deadlineExpiredMs->load(std::memory_order_relaxed);
          deadlineMs != 0) {
        flushForFault(state, state.pc, retired);
        TimeoutFault fault(deadlineMs);
        fault.attachContext(makeContext(state, state.pc, retired));
        throw fault;
      }
    }
  }

  /// The earliest retired count at which a check can fall due or the block
  /// fills: the budget, the next multiple of kDeadlineCadence, or the
  /// block's free room. Always past `retired`: the block is never left
  /// full and checkPoint has just passed the budget.
  std::uint64_t nextCheckPoint(std::uint64_t retired) const {
    std::uint64_t stop = std::min<std::uint64_t>(
        retired - retired % kDeadlineCadence + kDeadlineCadence,
        retired + block_.room());
    if (options_.maxInstructions != 0) {
      stop = std::min(stop, options_.maxInstructions);
    }
    return stop;
  }

  /// Retire instructions until `stop` of them have retired or the program
  /// exits, flushing the block at every trap and when it fills.
  void runSegment(std::uint64_t stop, RunResult& result) {
    typename Traits::State& state = state_;
    const std::uint64_t codeBase = program_.codeBase;
    std::uint64_t retired = result.instructions;
    std::uint64_t pc = state.pc;
    try {
      do {
        pc = state.pc;
        const Slot& slot = fetch(pc, codeBase);

        // The block slot is only committed after execute() returns: a
        // fault mid-execute leaves the partial record invisible, so a
        // flushed block never contains a non-retired instruction.
        RetiredInst& record = block_.next();
        record.pc = pc;
        record.encoding = slot.encoding;
        record.staticIndex = slot.staticIndex;
        record.group = slot.group;
        const auto trap = Traits::execute(slot.inst, state, memory_, record);
        ++retired;
        block_.commit();

        if (trap != Traits::kNoTrap) {
          // Flush before acting on the trap so observers have seen the
          // complete stream ahead of any syscall side effect or TrapFault.
          flushBlock();
          if (trap != Traits::kSyscallTrap) {
            throw TrapFault(std::string(Traits::trapName(trap)), pc);
          }
          const SyscallOutcome outcome =
              Traits::syscall(state, memory_, options_.stdoutStream, pc);
          if (outcome.exited) {
            result.exitedCleanly = true;
            result.exitCode = outcome.exitCode;
            break;
          }
        }
      } while (retired != stop);
      if (block_.full()) flushBlock();
    } catch (Fault& fault) {
      // Deliver the retired prefix before the fault escapes, then attach
      // the crash-report context for the exact faulting instruction. An
      // observer fault raised by this flush wins instead — it concerns an
      // earlier point in the retire stream.
      flushForFault(state, pc, retired);
      fault.attachContext(makeContext(state, pc, retired));
      throw;
    }
    result.instructions = retired;
  }

  /// Machine snapshot for crash reports. `pc` is the faulting instruction
  /// (which may differ from state.pc after a partial execute).
  MachineContext makeContext(const typename Traits::State& state,
                             std::uint64_t pc, std::uint64_t retired) const {
    MachineContext ctx;
    ctx.arch = std::string(Traits::kArchName);
    ctx.pc = pc;
    ctx.retired = retired;
    ctx.word = wordAt(pc);
    ctx.disasm = Traits::disasm(ctx.word, pc);
    if (const Symbol* kernel = program_.kernelAt(pc)) {
      ctx.kernel = kernel->name + "+" + fault_detail::hexAddr(pc - kernel->addr);
    }
    Traits::snapshotRegs(state, ctx);
    return ctx;
  }

  /// Best-effort fetch of the raw word at `pc` (0 when unreadable).
  std::uint32_t wordAt(std::uint64_t pc) const {
    if (pc >= program_.codeBase && pc < program_.codeEnd() && (pc & 3) == 0) {
      return program_.code[(pc - program_.codeBase) / 4];
    }
    try {
      return memory_.read<std::uint32_t>(pc);
    } catch (const MemoryFault&) {
      return 0;
    }
  }

  /// Deliver the committed block to every observer. The block is consumed
  /// as soon as delivery starts: an observer fault never causes redelivery
  /// to observers that already saw it.
  void flushBlock() {
    if (block_.empty()) return;
    const std::span<const RetiredInst> records = block_.view();
    block_.reset();
    for (TraceObserver* observer : observers_) observer->onRetireBlock(records);
  }

  /// Fault-path flush (flush-before-throw): a Fault an observer raises
  /// while draining the pending block is annotated with the same crash
  /// context and propagates in place of the fault being handled.
  void flushForFault(const typename Traits::State& state, std::uint64_t pc,
                     std::uint64_t retiredCount) {
    try {
      flushBlock();
    } catch (Fault& nested) {
      nested.attachContext(makeContext(state, pc, retiredCount));
      throw;
    }
  }

  const Slot& fetch(std::uint64_t pc, std::uint64_t codeBase) {
    const std::uint64_t index = (pc - codeBase) / 4;
    if (index < slots_.size() && (pc & 3) == 0) [[likely]] {
      Slot& slot = slots_[index];
      if (!slot.ready) [[unlikely]] {
        decodeInto(slot, program_.code[index], pc);
        slot.staticIndex = static_cast<std::uint32_t>(index);
        slot.ready = true;
      }
      return slot;
    }
    // Execution outside the static code image (e.g. hand-placed code in
    // tests): decode from memory without caching.
    decodeInto(scratch_, memory_.read<std::uint32_t>(pc), pc);
    return scratch_;
  }

  static void decodeInto(Slot& slot, std::uint32_t word, std::uint64_t pc) {
    const auto inst = Traits::decode(word);
    if (!inst) throw DecodeFault(word, pc);
    slot.inst = *inst;
    slot.encoding = word;
    slot.group = Traits::group(*inst);
  }

  Program program_;
  MachineOptions options_;
  Memory memory_;
  typename Traits::State state_{};
  std::vector<Slot> slots_;  ///< one per word of program_.code
  Slot scratch_;  ///< the last word fetched outside the image
  TraceBlock block_;
  std::vector<TraceObserver*> observers_;
  std::atomic<bool> running_{false};
};

}  // namespace

Machine::Machine(const Program& program, MachineOptions options) {
  if (program.arch == Arch::Rv64) {
    impl_ = std::make_unique<CoreImpl<Rv64Traits>>(program, options);
  } else {
    impl_ = std::make_unique<CoreImpl<A64Traits>>(program, options);
  }
}

Machine::~Machine() = default;

void Machine::addObserver(TraceObserver& observer) {
  impl_->addObserver(observer);
}

RunResult Machine::run() { return impl_->run(); }

Memory& Machine::memory() { return impl_->memory(); }

std::vector<std::pair<std::string, std::uint64_t>> Machine::registers() const {
  return impl_->registers();
}

const Program& Machine::program() const { return impl_->program(); }

}  // namespace riscmp
