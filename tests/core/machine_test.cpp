#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <sstream>
#include <tuple>
#include <vector>

#include "aarch64/asm.hpp"
#include "core/machine.hpp"
#include "riscv/asm.hpp"

namespace riscmp {
namespace {

Program rv64Program(const char* source) {
  Program program;
  program.arch = Arch::Rv64;
  program.codeBase = Program::kCodeBase;
  program.entry = program.codeBase;
  program.code = rv64::assemble(source, program.codeBase);
  return program;
}

Program a64Program(const char* source) {
  Program program;
  program.arch = Arch::AArch64;
  program.codeBase = Program::kCodeBase;
  program.entry = program.codeBase;
  program.code = a64::assemble(source, program.codeBase);
  return program;
}

TEST(Machine, RunsRv64ProgramToExit) {
  Machine machine(rv64Program(
      "  li a0, 0\n"
      "  li a1, 10\n"
      "loop:\n"
      "  add a0, a0, a1\n"
      "  addi a1, a1, -1\n"
      "  bnez a1, loop\n"
      "  li a7, 93\n"  // exit(a0)
      "  ecall\n"));
  const RunResult result = machine.run();
  EXPECT_TRUE(result.exitedCleanly);
  EXPECT_EQ(result.exitCode, 55);
  EXPECT_EQ(result.instructions, 2u + 10 * 3 + 2);
}

TEST(Machine, RunsA64ProgramToExit) {
  Machine machine(a64Program(
      "  mov x0, #0\n"
      "  mov x1, #10\n"
      "loop:\n"
      "  add x0, x0, x1\n"
      "  subs x1, x1, #1\n"
      "  b.ne loop\n"
      "  mov x8, #93\n"
      "  svc #0\n"));
  const RunResult result = machine.run();
  EXPECT_TRUE(result.exitedCleanly);
  EXPECT_EQ(result.exitCode, 55);
  EXPECT_EQ(result.instructions, 2u + 10 * 3 + 2);
}

TEST(Machine, WriteSyscallReachesStream) {
  Program program = rv64Program(
      "  li a0, 1\n"       // fd = stdout
      "  li a1, 0x20000\n" // buffer
      "  li a2, 5\n"       // length
      "  li a7, 64\n"      // write
      "  ecall\n"
      "  li a7, 93\n"
      "  li a0, 0\n"
      "  ecall\n");
  program.dataBase = 0x20000;
  program.data = {'h', 'e', 'l', 'l', 'o'};

  std::ostringstream captured;
  MachineOptions options;
  options.stdoutStream = &captured;
  Machine machine(program, options);
  const RunResult result = machine.run();
  EXPECT_TRUE(result.exitedCleanly);
  EXPECT_EQ(captured.str(), "hello");
}

TEST(Machine, DataAndBssLoaded) {
  Program program = rv64Program(
      "  li a1, 0x20000\n"
      "  ld a0, 0(a1)\n"
      "  li a7, 93\n"
      "  ecall\n");
  program.dataBase = 0x20000;
  program.data.resize(8);
  program.data[0] = 42;
  program.bssBase = 0x21000;
  program.bssSize = 64;

  Machine machine(program);
  const RunResult result = machine.run();
  EXPECT_EQ(result.exitCode, 42);
  // bss is zeroed
  EXPECT_EQ(machine.memory().read<std::uint64_t>(0x21000), 0u);
}

TEST(Machine, InstructionBudgetAborts) {
  Program program = rv64Program(
      "loop:\n"
      "  j loop\n");
  MachineOptions options;
  options.maxInstructions = 100;
  Machine machine(program, options);
  try {
    machine.run();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& fault) {
    EXPECT_EQ(fault.kind(), FaultKind::Budget);
    EXPECT_EQ(fault.limit(), 100u);
    ASSERT_TRUE(fault.hasContext());
    EXPECT_EQ(fault.context().retired, 100u);
  }
}

TEST(Machine, UndecodableInstructionThrowsDecodeFault) {
  Program program = rv64Program("nop\n");
  program.code.push_back(0);  // invalid word
  Machine machine(program);
  try {
    machine.run();
    FAIL() << "expected DecodeFault";
  } catch (const DecodeFault& fault) {
    EXPECT_EQ(fault.kind(), FaultKind::Decode);
    EXPECT_EQ(fault.word(), 0u);
    EXPECT_EQ(fault.pc(), Program::kCodeBase + 4);
    ASSERT_TRUE(fault.hasContext());
    EXPECT_EQ(fault.context().arch, "RISC-V");
    EXPECT_EQ(fault.context().pc, Program::kCodeBase + 4);
    EXPECT_EQ(fault.context().retired, 1u);  // the nop retired first
    EXPECT_EQ(fault.context().regs.size(), 32u);
  }
}

TEST(Machine, UnsupportedSyscallThrowsTrapFault) {
  Machine machine(rv64Program(
      "  li a7, 222\n"
      "  ecall\n"));
  try {
    machine.run();
    FAIL() << "expected TrapFault";
  } catch (const TrapFault& fault) {
    EXPECT_EQ(fault.kind(), FaultKind::Trap);
    EXPECT_NE(std::string(fault.what()).find("222"), std::string::npos);
    ASSERT_TRUE(fault.hasContext());
  }
}

TEST(Machine, FaultReportNamesKernelAndDisassembly) {
  Program program = rv64Program(
      "  nop\n"
      "  nop\n");
  program.code.push_back(0);  // invalid word inside the "inner" kernel
  program.kernels = {{"inner", Program::kCodeBase, 12}};
  Machine machine(program);
  try {
    machine.run();
    FAIL() << "expected DecodeFault";
  } catch (const DecodeFault& fault) {
    const std::string report = fault.report();
    EXPECT_NE(report.find("DecodeFault"), std::string::npos);
    EXPECT_NE(report.find("inner+0x8"), std::string::npos);
    EXPECT_NE(report.find("registers:"), std::string::npos);
    EXPECT_NE(report.find(".word"), std::string::npos);  // disasm of 0
  }
}

TEST(Machine, WildMemoryAccessGetsContext) {
  Machine machine(rv64Program(
      "  li a1, 0x40000000\n"  // far outside the arena
      "  ld a0, 0(a1)\n"
      "  li a7, 93\n"
      "  ecall\n"));
  try {
    machine.run();
    FAIL() << "expected MemoryFault";
  } catch (const MemoryFault& fault) {
    EXPECT_EQ(fault.kind(), FaultKind::Memory);
    EXPECT_EQ(fault.addr(), 0x40000000u);
    ASSERT_TRUE(fault.hasContext());
    // Context points at the faulting load, not the machine's state after.
    EXPECT_NE(fault.context().disasm.find("ld"), std::string::npos);
  }
}

class CountingObserver : public TraceObserver {
 public:
  void onRetireBlock(std::span<const RetiredInst> block) override {
    for (const RetiredInst& inst : block) {
      ++count;
      if (inst.isBranch) ++branches;
      loads += inst.loads.size();
      stores += inst.stores.size();
    }
  }
  void onProgramEnd() override { ended = true; }

  std::uint64_t count = 0;
  std::uint64_t branches = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  bool ended = false;
};

TEST(Machine, ObserversSeeEveryRetirement) {
  Program program = rv64Program(
      "  li a1, 0x20000\n"
      "  li a2, 4\n"
      "loop:\n"
      "  ld a0, 0(a1)\n"
      "  sd a0, 8(a1)\n"
      "  addi a2, a2, -1\n"
      "  bnez a2, loop\n"
      "  li a7, 93\n"
      "  ecall\n");
  program.bssBase = 0x20000;
  program.bssSize = 64;
  Machine machine(program);
  CountingObserver observer;
  machine.addObserver(observer);
  const RunResult result = machine.run();
  EXPECT_EQ(observer.count, result.instructions);
  EXPECT_EQ(observer.branches, 4u);
  EXPECT_EQ(observer.loads, 4u);
  EXPECT_EQ(observer.stores, 4u);
  EXPECT_TRUE(observer.ended);
}

class BlockRecordingObserver : public TraceObserver {
 public:
  void onRetire(const RetiredInst&) override {
    ADD_FAILURE() << "the core made a per-record call";
  }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    blockSizes.push_back(block.size());
    stream.insert(stream.end(), block.begin(), block.end());
  }
  std::vector<RetiredInst> stream;
  std::vector<std::size_t> blockSizes;
};

// Blocks are the one delivery path: the core never makes a per-record
// call, and every observer attached to a run sees the same records cut
// into the same blocks.
TEST(Machine, ObserversOfOneRunSeeIdenticalBlocks) {
  Program program = rv64Program(
      "  li a1, 0x20000\n"
      "  li a2, 200\n"
      "loop:\n"
      "  ld a0, 0(a1)\n"
      "  sd a0, 8(a1)\n"
      "  addi a2, a2, -1\n"
      "  bnez a2, loop\n"
      "  li a7, 93\n"
      "  ecall\n");
  program.bssBase = 0x20000;
  program.bssSize = 64;
  Machine machine(program);
  BlockRecordingObserver first;
  BlockRecordingObserver second;
  machine.addObserver(first);
  machine.addObserver(second);
  const RunResult result = machine.run();
  ASSERT_EQ(first.stream.size(), result.instructions);
  EXPECT_FALSE(first.blockSizes.empty());
  EXPECT_EQ(first.blockSizes, second.blockSizes);
  EXPECT_EQ(first.stream, second.stream);
}

// The per-record entry point is a block of one, so an observer that
// implements only onRetireBlock still accepts single records.
TEST(TraceObserver, OnRetireDeliversABlockOfOne) {
  struct BlockOnly : TraceObserver {
    void onRetireBlock(std::span<const RetiredInst> block) override {
      blocks.emplace_back(block.begin(), block.end());
    }
    std::vector<std::vector<RetiredInst>> blocks;
  } observer;
  RetiredInst inst;
  inst.pc = 0x1000;
  inst.srcs.push_back(Reg::gp(5));
  observer.onRetire(inst);
  ASSERT_EQ(observer.blocks.size(), 1u);
  ASSERT_EQ(observer.blocks[0].size(), 1u);
  EXPECT_EQ(observer.blocks[0][0], inst);
}

// Every in-image retirement carries the static-instruction index of its
// code word so observers can use decode-once metadata tables.
TEST(Machine, RetiredRecordsCarryStaticIndex) {
  Program program = rv64Program(
      "  li a0, 3\n"
      "loop:\n"
      "  addi a0, a0, -1\n"
      "  bnez a0, loop\n"
      "  li a7, 93\n"
      "  ecall\n");
  Machine machine(program);
  BlockRecordingObserver recorder;
  machine.addObserver(recorder);
  machine.run();
  for (const RetiredInst& inst : recorder.stream) {
    ASSERT_NE(inst.staticIndex, RetiredInst::kNoStaticIndex);
    EXPECT_EQ(inst.pc, program.codeBase + 4ull * inst.staticIndex);
  }
}

TEST(Machine, MemoryGrowsToCoverProgram) {
  Program program = rv64Program("  li a7, 93\n  ecall\n");
  program.bssBase = 200ull << 20;  // beyond the default 64 MiB
  program.bssSize = 4096;
  MachineOptions options;
  options.memorySize = 1 << 20;
  Machine machine(program, options);
  EXPECT_NO_THROW(machine.run());
  EXPECT_GT(machine.memory().size(), 200ull << 20);
}

// Records every block as delivered, so a test can compare both the record
// stream and where the core cut it into blocks.
class BlockLog : public TraceObserver {
 public:
  void onRetireBlock(std::span<const RetiredInst> block) override {
    stream.insert(stream.end(), block.begin(), block.end());
    blockEnds.push_back(stream.size());
  }
  std::vector<RetiredInst> stream;
  std::vector<std::size_t> blockEnds;  ///< cumulative record count per block
};

// 50 rounds of a 200-instruction inner loop, each closed by a one-byte
// write(1, ...): over 10,000 instructions, so budgets around the 4096
// check cadence land both inside inner loops and next to syscalls.
Program writingLoop(Arch arch) {
  Program program;
  if (arch == Arch::Rv64) {
    program = rv64Program(
        "  li s0, 50\n"
        "outer:\n"
        "  li s1, 100\n"
        "inner:\n"
        "  addi s1, s1, -1\n"
        "  bnez s1, inner\n"
        "  li a0, 1\n"
        "  li a1, 0x20000\n"
        "  li a2, 1\n"
        "  li a7, 64\n"
        "  ecall\n"
        "  addi s0, s0, -1\n"
        "  bnez s0, outer\n"
        "  li a0, 0\n"
        "  li a7, 93\n"
        "  ecall\n");
  } else {
    program = a64Program(
        "  mov x19, #50\n"
        "outer:\n"
        "  mov x20, #100\n"
        "inner:\n"
        "  subs x20, x20, #1\n"
        "  b.ne inner\n"
        "  mov x0, #1\n"
        "  mov x1, #0x20000\n"
        "  mov x2, #1\n"
        "  mov x8, #64\n"
        "  svc #0\n"
        "  subs x19, x19, #1\n"
        "  b.ne outer\n"
        "  mov x0, #0\n"
        "  mov x8, #93\n"
        "  svc #0\n");
  }
  program.dataBase = 0x20000;
  program.data = {'x'};
  program.kernels = {
      {"loop", program.codeBase, 4 * program.code.size()}};
  return program;
}

class BudgetCadence
    : public ::testing::TestWithParam<std::tuple<Arch, std::uint64_t>> {};

// A budget stops the run after exactly `budget` retirements wherever it
// falls against the 4096-record blocks and the syscall flushes: the
// observer sees the unbudgeted run's first `budget` records, cut into
// blocks at the same points, and the fault names the next instruction.
TEST_P(BudgetCadence, StopsAtTheBudgetWithTheSameStreamAndContext) {
  const auto [arch, budget] = GetParam();
  const Program program = writingLoop(arch);

  std::ostringstream fullOut;
  MachineOptions fullOptions;
  fullOptions.stdoutStream = &fullOut;
  Machine full(program, fullOptions);
  BlockLog reference;
  full.addObserver(reference);
  const RunResult result = full.run();
  ASSERT_TRUE(result.exitedCleanly);
  ASSERT_GT(result.instructions, 10000u);

  std::ostringstream out;
  MachineOptions options;
  options.stdoutStream = &out;
  options.maxInstructions = budget;
  Machine machine(program, options);
  BlockLog log;
  machine.addObserver(log);
  try {
    machine.run();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& fault) {
    EXPECT_EQ(fault.limit(), budget);
    ASSERT_TRUE(fault.hasContext());
    const MachineContext& ctx = fault.context();
    const std::uint64_t nextPc = reference.stream[budget].pc;
    EXPECT_EQ(ctx.retired, budget);
    EXPECT_EQ(ctx.pc, nextPc);
    EXPECT_EQ(ctx.word, program.code[(nextPc - program.codeBase) / 4]);
    EXPECT_EQ(ctx.kernel,
              "loop+" + fault_detail::hexAddr(nextPc - program.codeBase));
  }

  ASSERT_EQ(log.stream.size(), budget);
  for (std::size_t i = 0; i < budget; ++i) {
    ASSERT_EQ(log.stream[i], reference.stream[i]) << "record " << i;
  }
  std::vector<std::size_t> expectedEnds;
  for (const std::size_t end : reference.blockEnds) {
    if (end >= budget) break;
    expectedEnds.push_back(end);
  }
  expectedEnds.push_back(budget);
  EXPECT_EQ(log.blockEnds, expectedEnds);

  // Every syscall before the final exit is a one-byte write.
  const std::uint32_t syscallWord = reference.stream.back().encoding;
  std::size_t writes = 0;
  for (std::size_t i = 0; i < budget; ++i) {
    if (reference.stream[i].encoding == syscallWord) ++writes;
  }
  EXPECT_EQ(out.str(), std::string(writes, 'x'));
}

INSTANTIATE_TEST_SUITE_P(
    Machine, BudgetCadence,
    ::testing::Combine(::testing::Values(Arch::Rv64, Arch::AArch64),
                       ::testing::Values(4095u, 4096u, 4097u, 8193u)));

// Sets the deadline flag from inside a flush once it has seen `at`
// records, as a watchdog firing during observer work would.
class DeadlineSetter : public TraceObserver {
 public:
  DeadlineSetter(std::atomic<std::uint32_t>& flag, std::uint64_t at)
      : flag_(flag), at_(at) {}
  void onRetireBlock(std::span<const RetiredInst> block) override {
    seen += block.size();
    if (seen >= at_) flag_.store(77, std::memory_order_relaxed);
  }
  std::uint64_t seen = 0;

 private:
  std::atomic<std::uint32_t>& flag_;
  std::uint64_t at_;
};

TEST(Machine, DeadlineSetDuringTheFlushAt4096TimesOutThere) {
  const Program program = rv64Program(
      "loop:\n"
      "  addi a0, a0, 1\n"
      "  j loop\n");
  std::atomic<std::uint32_t> expired{0};
  MachineOptions options;
  options.deadlineExpiredMs = &expired;
  options.maxInstructions = 20000;
  Machine machine(program, options);
  DeadlineSetter setter(expired, 4096);
  machine.addObserver(setter);
  try {
    machine.run();
    FAIL() << "expected TimeoutFault";
  } catch (const TimeoutFault& fault) {
    EXPECT_EQ(fault.deadlineMs(), 77u);
    ASSERT_TRUE(fault.hasContext());
    EXPECT_EQ(fault.context().retired, 4096u);
    EXPECT_EQ(fault.context().pc, program.codeBase);  // 4096 is even
    EXPECT_EQ(setter.seen, 4096u);
  }
}

// The deadline is polled at every multiple of 4096 retirements even when
// syscall flushes cut the blocks elsewhere: a flag set in the flush that
// first passes 5000 records fires at 8192.
TEST(Machine, DeadlineIsPolledAtEveryMultipleOf4096) {
  const Program program = writingLoop(Arch::Rv64);
  Machine full(program);
  BlockLog reference;
  full.addObserver(reference);
  full.run();

  std::atomic<std::uint32_t> expired{0};
  MachineOptions options;
  options.deadlineExpiredMs = &expired;
  Machine machine(program, options);
  DeadlineSetter setter(expired, 5000);
  machine.addObserver(setter);
  try {
    machine.run();
    FAIL() << "expected TimeoutFault";
  } catch (const TimeoutFault& fault) {
    ASSERT_TRUE(fault.hasContext());
    EXPECT_EQ(fault.context().retired, 8192u);
    EXPECT_EQ(fault.context().pc, reference.stream[8192].pc);
    EXPECT_EQ(setter.seen, 8192u);
  }
}

// A flag already set before the run fires before the first instruction.
TEST(Machine, DeadlineSetBeforeTheRunTimesOutAtZero) {
  const Program program = rv64Program(
      "loop:\n"
      "  j loop\n");
  std::atomic<std::uint32_t> expired{5};
  MachineOptions options;
  options.deadlineExpiredMs = &expired;
  Machine machine(program, options);
  try {
    machine.run();
    FAIL() << "expected TimeoutFault";
  } catch (const TimeoutFault& fault) {
    ASSERT_TRUE(fault.hasContext());
    EXPECT_EQ(fault.context().retired, 0u);
    EXPECT_EQ(fault.context().pc, program.codeBase);
  }
}

// A program that exits on its budget's last instruction exits cleanly.
TEST(Machine, ExitOnTheLastBudgetedInstructionIsClean) {
  MachineOptions options;
  options.maxInstructions = 3;
  Machine machine(rv64Program(
                      "  li a0, 9\n"
                      "  li a7, 93\n"
                      "  ecall\n"),
                  options);
  const RunResult result = machine.run();
  EXPECT_TRUE(result.exitedCleanly);
  EXPECT_EQ(result.exitCode, 9);
  EXPECT_EQ(result.instructions, 3u);
}

// The arena reads zero where the program never wrote: the stack's top
// page and the last byte of memory.
TEST(Machine, UntouchedStackAndArenaEndReadZero) {
  Machine machine(rv64Program(
      "  li a0, 0\n"
      "  li a7, 93\n"
      "  ecall\n"));
  machine.run();
  Memory& memory = machine.memory();
  EXPECT_EQ(memory.end(), 4ull << 20);
  EXPECT_EQ(memory.read<std::uint8_t>(memory.end() - 1), 0u);
  std::vector<std::uint8_t> topPage(4096, 0xaa);
  memory.readBlock(memory.end() - topPage.size(), topPage);
  for (const std::uint8_t byte : topPage) ASSERT_EQ(byte, 0u);
}

// A load just past the arena's last byte faults with the load's own
// context; the 8 bytes just below it read as zero.
TEST(Machine, LoadPastArenaEndFaultsWithContext) {
  Machine machine(rv64Program(
      "  li a1, 0x400000\n"
      "  ld a0, -8(a1)\n"
      "  ld a2, 0(a1)\n"
      "  li a7, 93\n"
      "  ecall\n"));
  ASSERT_EQ(machine.memory().end(), 0x400000u);
  try {
    machine.run();
    FAIL() << "expected MemoryFault";
  } catch (const MemoryFault& fault) {
    EXPECT_EQ(fault.addr(), 0x400000u);
    EXPECT_EQ(fault.size(), 8u);
    ASSERT_TRUE(fault.hasContext());
    const MachineContext& ctx = fault.context();
    const std::uint64_t loadPc =
        Program::kCodeBase + 4 * (machine.program().code.size() - 3);
    EXPECT_EQ(ctx.pc, loadPc);
    EXPECT_EQ(ctx.retired, machine.program().code.size() - 3);
    EXPECT_NE(ctx.disasm.find("ld"), std::string::npos);
    const auto a0 =
        std::find_if(ctx.regs.begin(), ctx.regs.end(),
                     [](const auto& reg) { return reg.first == "a0"; });
    ASSERT_NE(a0, ctx.regs.end());
    EXPECT_EQ(a0->second, 0u);
  }
}

TEST(Program, KernelLookup) {
  Program program;
  program.kernels = {{"copy", 0x100, 0x40}, {"scale", 0x140, 0x40}};
  ASSERT_NE(program.kernelAt(0x100), nullptr);
  EXPECT_EQ(program.kernelAt(0x100)->name, "copy");
  EXPECT_EQ(program.kernelAt(0x13c)->name, "copy");
  EXPECT_EQ(program.kernelAt(0x140)->name, "scale");
  EXPECT_EQ(program.kernelAt(0x180), nullptr);
  EXPECT_EQ(program.kernelAt(0x50), nullptr);
  ASSERT_NE(program.kernelNamed("scale"), nullptr);
  EXPECT_EQ(program.kernelNamed("bogus"), nullptr);
}

}  // namespace
}  // namespace riscmp
