// Unit tests for the macro-op fusion pass (ISSUE 8): one hand-computed
// fused sequence per catalogue rule pinning the pair count, the merged
// dependence edges, and the chosen group; plus the negative and boundary
// cases the conformance oracle cannot isolate (kernel-boundary straddle,
// branch-target second half, TraceBlock-split pairs, mid-pair fault flush).
#include "uarch/fusion/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/program.hpp"
#include "support/fault.hpp"

namespace riscmp::uarch {
namespace {

// ---- hand-assembled encodings ---------------------------------------------

/// ld rd, imm(rs1)
constexpr std::uint32_t rvLd(unsigned rd, unsigned rs1, unsigned imm) {
  return (imm << 20) | (rs1 << 15) | (3u << 12) | (rd << 7) | 0x03;
}
/// sd rs2, 0(rs1)
constexpr std::uint32_t rvSd0(unsigned rs2, unsigned rs1) {
  return (rs2 << 20) | (rs1 << 15) | (3u << 12) | 0x23;
}
/// add rd, rs1, rs2
constexpr std::uint32_t rvAdd(unsigned rd, unsigned rs1, unsigned rs2) {
  return (rs2 << 20) | (rs1 << 15) | (rd << 7) | 0x33;
}
/// addi rd, rs1, imm
constexpr std::uint32_t rvAddi(unsigned rd, unsigned rs1, unsigned imm) {
  return (imm << 20) | (rs1 << 15) | (rd << 7) | 0x13;
}
/// slli rd, rs1, shamt
constexpr std::uint32_t rvSlli(unsigned rd, unsigned rs1, unsigned sh) {
  return (sh << 20) | (rs1 << 15) | (1u << 12) | (rd << 7) | 0x13;
}
/// lui rd, imm20
constexpr std::uint32_t rvLui(unsigned rd, unsigned imm20) {
  return (imm20 << 12) | (rd << 7) | 0x37;
}
/// jal x0, +8 — the canonical "j .+8" skip
constexpr std::uint32_t kRvJalPlus8 = 0x0080006f;
/// A64 nop (decodes, never a branch)
constexpr std::uint32_t kA64Nop = 0xd503201f;
/// adrp xd, .
constexpr std::uint32_t a64Adrp(unsigned rd) { return 0x90000000u | rd; }
/// add xd, xn, #imm12
constexpr std::uint32_t a64AddImm(unsigned rd, unsigned rn, unsigned imm) {
  return 0x91000000u | (imm << 10) | (rn << 5) | rd;
}

// ---- fixtures -------------------------------------------------------------

struct Capture final : TraceObserver {
  std::vector<RetiredInst> records;
  std::size_t maxBlock = 0;
  int programEnds = 0;
  void onRetireBlock(std::span<const RetiredInst> block) override {
    maxBlock = std::max(maxBlock, block.size());
    records.insert(records.end(), block.begin(), block.end());
  }
  void onProgramEnd() override { ++programEnds; }
};

/// A program whose code image is exactly `code`, covered by one kernel
/// unless `kernels` overrides it.
Program makeProgram(Arch arch, std::vector<std::uint32_t> code,
                    std::vector<Symbol> kernels = {}) {
  Program program;
  program.arch = arch;
  program.codeBase = Program::kCodeBase;
  program.entry = program.codeBase;
  if (kernels.empty()) {
    kernels.push_back(Symbol{"k", program.codeBase, code.size() * 4});
  }
  program.code = std::move(code);
  program.kernels = std::move(kernels);
  return program;
}

/// A retired record for code word `index` (pc and staticIndex agree).
RetiredInst at(std::size_t index, std::uint32_t encoding,
               InstGroup group = InstGroup::IntSimple) {
  RetiredInst inst;
  inst.pc = Program::kCodeBase + index * 4;
  inst.staticIndex = static_cast<std::uint32_t>(index);
  inst.encoding = encoding;
  inst.group = group;
  return inst;
}

FusionConfig rvAll() { return FusionConfig::allRulesFor(Arch::Rv64); }
FusionConfig a64All() { return FusionConfig::allRulesFor(Arch::AArch64); }

/// Runs `stream` through a fresh pass as one block + program end and
/// returns the forwarded records via `capture`.
void run(FusionPass& pass, const std::vector<RetiredInst>& stream) {
  pass.onRetireBlock({stream.data(), stream.size()});
  pass.onProgramEnd();
}

// ---- rule catalogue metadata ----------------------------------------------

TEST(FusionRules, NamesRoundTripAndUnknownRejected) {
  for (std::size_t i = 0; i < kFusionRuleCount; ++i) {
    const auto rule = static_cast<FusionRule>(i);
    const auto back = fusionRuleFromName(fusionRuleName(rule));
    ASSERT_TRUE(back.has_value()) << fusionRuleName(rule);
    EXPECT_EQ(*back, rule);
  }
  EXPECT_FALSE(fusionRuleFromName("load_pear").has_value());
  EXPECT_FALSE(fusionRuleFromName("").has_value());
}

TEST(FusionRules, LegalityPartitionsByArch) {
  const FusionRule rv[] = {FusionRule::LoadPair, FusionRule::IndexedLoad,
                           FusionRule::IndexedStore, FusionRule::LuiAddi,
                           FusionRule::SlliAdd};
  const FusionRule a64[] = {FusionRule::CmpBcc, FusionRule::AdrpAdd};
  for (const FusionRule rule : rv) {
    EXPECT_TRUE(fusionRuleLegalFor(rule, Arch::Rv64));
    EXPECT_FALSE(fusionRuleLegalFor(rule, Arch::AArch64));
  }
  for (const FusionRule rule : a64) {
    EXPECT_FALSE(fusionRuleLegalFor(rule, Arch::Rv64));
    EXPECT_TRUE(fusionRuleLegalFor(rule, Arch::AArch64));
  }
  for (const FusionRule rule : rv) EXPECT_TRUE(rvAll().enabled(rule));
  for (const FusionRule rule : a64) EXPECT_FALSE(rvAll().enabled(rule));
  for (const FusionRule rule : a64) EXPECT_TRUE(a64All().enabled(rule));
  for (const FusionRule rule : rv) EXPECT_FALSE(a64All().enabled(rule));
}

TEST(FusionPass, ArchMismatchThrows) {
  const Program program = makeProgram(Arch::AArch64, {kA64Nop});
  EXPECT_THROW(FusionPass(rvAll(), program, {}), ValidationFault);
}

// ---- one hand-computed sequence per rule ----------------------------------

TEST(FusionPass, LoadPairFusesAdjacentSameBaseLoads) {
  const Program program =
      makeProgram(Arch::Rv64, {rvLd(5, 10, 0), rvLd(6, 10, 8)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(0, rvLd(5, 10, 0), InstGroup::Load);
  a.srcs.push_back(Reg::gp(10));
  a.dsts.push_back(Reg::gp(5));
  a.loads.push_back(MemAccess{0x2000, 8});
  RetiredInst b = at(1, rvLd(6, 10, 8), InstGroup::Load);
  b.srcs.push_back(Reg::gp(10));
  b.dsts.push_back(Reg::gp(6));
  b.loads.push_back(MemAccess{0x2008, 8});

  run(pass, {a, b});

  EXPECT_EQ(pass.pairs(), 1u);
  EXPECT_EQ(pass.pairsByRule()[static_cast<std::size_t>(FusionRule::LoadPair)],
            1u);
  EXPECT_EQ(pass.inputInstructions(), 2u);
  EXPECT_EQ(pass.outputInstructions(), 1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const RetiredInst& macro = capture.records[0];
  EXPECT_EQ(macro.pc, a.pc);
  EXPECT_EQ(macro.group, InstGroup::Load);
  ASSERT_EQ(macro.srcs.size(), 1u);  // shared base, deduplicated
  EXPECT_EQ(macro.srcs[0], Reg::gp(10));
  ASSERT_EQ(macro.dsts.size(), 2u);
  EXPECT_EQ(macro.dsts[0], Reg::gp(5));
  EXPECT_EQ(macro.dsts[1], Reg::gp(6));
  ASSERT_EQ(macro.loads.size(), 2u);
  EXPECT_EQ(macro.loads[1].addr, 0x2008u);
  ASSERT_EQ(pass.kernels().size(), 1u);
  EXPECT_EQ(pass.kernels()[0].pairs, 1u);
  EXPECT_EQ(capture.programEnds, 1);
}

TEST(FusionPass, LoadPairRequiresDynamicAdjacency) {
  const Program program =
      makeProgram(Arch::Rv64, {rvLd(5, 10, 0), rvLd(6, 10, 16)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(0, rvLd(5, 10, 0), InstGroup::Load);
  a.loads.push_back(MemAccess{0x2000, 8});
  RetiredInst b = at(1, rvLd(6, 10, 16), InstGroup::Load);
  b.loads.push_back(MemAccess{0x2010, 8});  // gap: not addr + size

  run(pass, {a, b});
  EXPECT_EQ(pass.pairs(), 0u);
  EXPECT_EQ(capture.records.size(), 2u);
}

TEST(FusionPass, IndexedLoadDropsTheInternalEdge) {
  const Program program =
      makeProgram(Arch::Rv64, {rvAdd(7, 1, 2), rvLd(8, 7, 0)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(0, rvAdd(7, 1, 2));
  a.srcs.push_back(Reg::gp(1));
  a.srcs.push_back(Reg::gp(2));
  a.dsts.push_back(Reg::gp(7));
  RetiredInst b = at(1, rvLd(8, 7, 0), InstGroup::Load);
  b.srcs.push_back(Reg::gp(7));
  b.dsts.push_back(Reg::gp(8));
  b.loads.push_back(MemAccess{0x3000, 8});

  run(pass, {a, b});

  EXPECT_EQ(
      pass.pairsByRule()[static_cast<std::size_t>(FusionRule::IndexedLoad)],
      1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const RetiredInst& macro = capture.records[0];
  EXPECT_EQ(macro.group, InstGroup::Load);
  // x7 (written by A, read by B) must vanish from the external srcs.
  ASSERT_EQ(macro.srcs.size(), 2u);
  EXPECT_EQ(macro.srcs[0], Reg::gp(1));
  EXPECT_EQ(macro.srcs[1], Reg::gp(2));
  ASSERT_EQ(macro.dsts.size(), 2u);
  EXPECT_EQ(macro.dsts[0], Reg::gp(7));
  EXPECT_EQ(macro.dsts[1], Reg::gp(8));
  ASSERT_EQ(macro.loads.size(), 1u);
}

TEST(FusionPass, IndexedStoreFusesAndKeepsStoreAccess) {
  const Program program =
      makeProgram(Arch::Rv64, {rvAdd(7, 1, 2), rvSd0(9, 7)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(0, rvAdd(7, 1, 2));
  a.srcs.push_back(Reg::gp(1));
  a.srcs.push_back(Reg::gp(2));
  a.dsts.push_back(Reg::gp(7));
  RetiredInst b = at(1, rvSd0(9, 7), InstGroup::Store);
  b.srcs.push_back(Reg::gp(7));
  b.srcs.push_back(Reg::gp(9));
  b.stores.push_back(MemAccess{0x4000, 8});

  run(pass, {a, b});

  EXPECT_EQ(
      pass.pairsByRule()[static_cast<std::size_t>(FusionRule::IndexedStore)],
      1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const RetiredInst& macro = capture.records[0];
  EXPECT_EQ(macro.group, InstGroup::Store);
  ASSERT_EQ(macro.srcs.size(), 3u);  // x1, x2, x9 — x7 internal
  EXPECT_EQ(macro.srcs[2], Reg::gp(9));
  ASSERT_EQ(macro.stores.size(), 1u);
  EXPECT_EQ(macro.stores[0].addr, 0x4000u);
}

TEST(FusionPass, LuiAddiFusesConstantMaterialisation) {
  const Program program =
      makeProgram(Arch::Rv64, {rvLui(5, 0x12345), rvAddi(5, 5, 0x678)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(0, rvLui(5, 0x12345));
  a.dsts.push_back(Reg::gp(5));
  RetiredInst b = at(1, rvAddi(5, 5, 0x678));
  b.srcs.push_back(Reg::gp(5));
  b.dsts.push_back(Reg::gp(5));

  run(pass, {a, b});

  EXPECT_EQ(pass.pairsByRule()[static_cast<std::size_t>(FusionRule::LuiAddi)],
            1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const RetiredInst& macro = capture.records[0];
  EXPECT_EQ(macro.group, InstGroup::IntSimple);
  EXPECT_TRUE(macro.srcs.empty());  // fully internal: no external inputs
  ASSERT_EQ(macro.dsts.size(), 1u);
  EXPECT_EQ(macro.dsts[0], Reg::gp(5));
}

TEST(FusionPass, SlliAddFusesShiftedIndexButNotWideShifts) {
  for (const unsigned shamt : {2u, 4u}) {
    const Program program = makeProgram(
        Arch::Rv64, {rvSlli(6, 3, shamt), rvAdd(7, 5, 6)});
    Capture capture;
    FusionPass pass(rvAll(), program, {&capture});

    RetiredInst a = at(0, rvSlli(6, 3, shamt));
    a.srcs.push_back(Reg::gp(3));
    a.dsts.push_back(Reg::gp(6));
    RetiredInst b = at(1, rvAdd(7, 5, 6));
    b.srcs.push_back(Reg::gp(5));
    b.srcs.push_back(Reg::gp(6));
    b.dsts.push_back(Reg::gp(7));

    run(pass, {a, b});

    // Zba shNadd covers shifts 1..3 only; shamt 4 must stay unfused.
    const std::uint64_t expected = shamt <= 3 ? 1u : 0u;
    EXPECT_EQ(
        pass.pairsByRule()[static_cast<std::size_t>(FusionRule::SlliAdd)],
        expected)
        << "shamt=" << shamt;
    if (expected == 1) {
      ASSERT_EQ(capture.records.size(), 1u);
      ASSERT_EQ(capture.records[0].srcs.size(), 2u);  // x3, x5 — x6 internal
      EXPECT_EQ(capture.records[0].srcs[0], Reg::gp(3));
      EXPECT_EQ(capture.records[0].srcs[1], Reg::gp(5));
    }
  }
}

TEST(FusionPass, CmpBccFusesFlagProducerWithConsumingBranch) {
  const Program program = makeProgram(Arch::AArch64, {kA64Nop, kA64Nop});
  Capture capture;
  FusionPass pass(a64All(), program, {&capture});

  RetiredInst a = at(0, 0xeb02003f);  // cmp x1, x2 (subs xzr, ...)
  a.srcs.push_back(Reg::gp(1));
  a.srcs.push_back(Reg::gp(2));
  a.dsts.push_back(Reg::flags());
  RetiredInst b = at(1, 0x54000041, InstGroup::Branch);  // b.ne
  b.srcs.push_back(Reg::flags());
  b.isBranch = true;
  b.branchTaken = true;
  b.branchTarget = Program::kCodeBase + 0x40;

  run(pass, {a, b});

  EXPECT_EQ(pass.pairsByRule()[static_cast<std::size_t>(FusionRule::CmpBcc)],
            1u);
  ASSERT_EQ(capture.records.size(), 1u);
  const RetiredInst& macro = capture.records[0];
  EXPECT_EQ(macro.group, InstGroup::Branch);
  EXPECT_TRUE(macro.isBranch);
  EXPECT_TRUE(macro.branchTaken);
  EXPECT_EQ(macro.branchTarget, Program::kCodeBase + 0x40);
  // flags is A's dst, so B's flags read is internal.
  ASSERT_EQ(macro.srcs.size(), 2u);
  ASSERT_EQ(macro.dsts.size(), 1u);
  EXPECT_EQ(macro.dsts[0], Reg::flags());
}

TEST(FusionPass, AdrpAddFusesAddressFormation) {
  const Program program =
      makeProgram(Arch::AArch64, {a64Adrp(1), a64AddImm(2, 1, 0x123)});
  Capture capture;
  FusionPass pass(a64All(), program, {&capture});

  RetiredInst a = at(0, a64Adrp(1));
  a.dsts.push_back(Reg::gp(1));
  RetiredInst b = at(1, a64AddImm(2, 1, 0x123));
  b.srcs.push_back(Reg::gp(1));
  b.dsts.push_back(Reg::gp(2));

  run(pass, {a, b});

  EXPECT_EQ(pass.pairsByRule()[static_cast<std::size_t>(FusionRule::AdrpAdd)],
            1u);
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_TRUE(capture.records[0].srcs.empty());
}

// ---- negative cases -------------------------------------------------------

TEST(FusionPass, PairStraddlingKernelBoundaryDoesNotFuse) {
  // add ends kernel k1; the consuming load opens kernel k2. Matches
  // indexed_load on encodings alone, but the pair straddles the boundary.
  const std::vector<std::uint32_t> code = {rvAddi(0, 0, 0), rvAdd(7, 1, 2),
                                           rvLd(8, 7, 0), rvAddi(0, 0, 0)};
  const Program program = makeProgram(
      Arch::Rv64, code,
      {Symbol{"k1", Program::kCodeBase, 8},
       Symbol{"k2", Program::kCodeBase + 8, 8}});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(1, rvAdd(7, 1, 2));
  a.dsts.push_back(Reg::gp(7));
  RetiredInst b = at(2, rvLd(8, 7, 0), InstGroup::Load);
  b.srcs.push_back(Reg::gp(7));
  b.loads.push_back(MemAccess{0x3000, 8});

  run(pass, {a, b});

  EXPECT_EQ(pass.pairs(), 0u);
  EXPECT_EQ(capture.records.size(), 2u);
  for (const FusionPass::KernelFusion& kernel : pass.kernels()) {
    EXPECT_EQ(kernel.pairs, 0u) << kernel.name;
  }
}

TEST(FusionPass, BranchTargetSecondInstructionDoesNotFuse) {
  // Word 0 is "j .+8", so word 2 — the load — is a static branch target:
  // the pair could be entered in the middle and must not fuse. Replacing
  // the jump with a non-branch makes the identical stream fuse.
  for (const bool targeted : {true, false}) {
    const std::vector<std::uint32_t> code = {
        targeted ? kRvJalPlus8 : rvAddi(0, 0, 0), rvAdd(7, 1, 2),
        rvLd(8, 7, 0)};
    const Program program = makeProgram(Arch::Rv64, code);
    Capture capture;
    FusionPass pass(rvAll(), program, {&capture});

    RetiredInst a = at(1, rvAdd(7, 1, 2));
    a.dsts.push_back(Reg::gp(7));
    RetiredInst b = at(2, rvLd(8, 7, 0), InstGroup::Load);
    b.srcs.push_back(Reg::gp(7));
    b.loads.push_back(MemAccess{0x3000, 8});

    run(pass, {a, b});

    EXPECT_EQ(pass.pairs(), targeted ? 0u : 1u) << "targeted=" << targeted;
    EXPECT_EQ(capture.records.size(), targeted ? 2u : 1u);
  }
}

TEST(FusionPass, NonAdjacentPcsDoNotFuse) {
  const Program program = makeProgram(
      Arch::Rv64, {rvAdd(7, 1, 2), rvAddi(0, 0, 0), rvLd(8, 7, 0)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  // The add retires at word 0, the load at word 2: not pc-adjacent (the
  // dynamic stream skipped a word via some path not visible here).
  RetiredInst a = at(0, rvAdd(7, 1, 2));
  a.dsts.push_back(Reg::gp(7));
  RetiredInst b = at(2, rvLd(8, 7, 0), InstGroup::Load);
  b.srcs.push_back(Reg::gp(7));
  b.loads.push_back(MemAccess{0x3000, 8});

  run(pass, {a, b});
  EXPECT_EQ(pass.pairs(), 0u);
  EXPECT_EQ(capture.records.size(), 2u);
}

TEST(FusionPass, DisabledRuleDoesNotFire) {
  const Program program =
      makeProgram(Arch::Rv64, {rvAdd(7, 1, 2), rvLd(8, 7, 0)});
  FusionConfig config;
  config.arch = Arch::Rv64;
  config.enable(FusionRule::LoadPair);  // indexed_load left disabled
  Capture capture;
  FusionPass pass(config, program, {&capture});

  RetiredInst a = at(0, rvAdd(7, 1, 2));
  a.dsts.push_back(Reg::gp(7));
  RetiredInst b = at(1, rvLd(8, 7, 0), InstGroup::Load);
  b.srcs.push_back(Reg::gp(7));
  b.loads.push_back(MemAccess{0x3000, 8});

  run(pass, {a, b});
  EXPECT_EQ(pass.pairs(), 0u);
  EXPECT_EQ(capture.records.size(), 2u);
}

TEST(FusionPass, PairWhoseMergedSourcesOverflowStaysUnfused) {
  // cmp_bcc matches, but the union of sources (x1..x6; the flags read is
  // internal) exceeds RetiredInst's five inline source slots.
  const Program program = makeProgram(Arch::AArch64, {kA64Nop, kA64Nop});
  Capture capture;
  FusionPass pass(a64All(), program, {&capture});

  RetiredInst a = at(0, 0xeb02003f);
  for (unsigned r = 1; r <= 3; ++r) a.srcs.push_back(Reg::gp(r));
  a.dsts.push_back(Reg::flags());
  RetiredInst b = at(1, 0x54000041, InstGroup::Branch);
  b.srcs.push_back(Reg::flags());
  for (unsigned r = 4; r <= 6; ++r) b.srcs.push_back(Reg::gp(r));
  b.isBranch = true;

  run(pass, {a, b});
  EXPECT_EQ(pass.pairs(), 0u);
  ASSERT_EQ(capture.records.size(), 2u);
  EXPECT_EQ(capture.records[0], a);
  EXPECT_EQ(capture.records[1], b);
}

TEST(FusionPass, GreedyPairingNeverOverlaps) {
  // Three adjacent same-base loads: greedy left-to-right fuses (1,2) and
  // leaves 3 unfused — never the overlapping (2,3).
  const Program program = makeProgram(
      Arch::Rv64, {rvLd(5, 10, 0), rvLd(6, 10, 8), rvLd(7, 10, 16)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  std::vector<RetiredInst> stream;
  for (std::size_t i = 0; i < 3; ++i) {
    RetiredInst inst = at(i, rvLd(5 + static_cast<unsigned>(i), 10,
                                  static_cast<unsigned>(i) * 8),
                          InstGroup::Load);
    inst.srcs.push_back(Reg::gp(10));
    inst.dsts.push_back(Reg::gp(5 + static_cast<unsigned>(i)));
    inst.loads.push_back(MemAccess{0x2000 + i * 8, 8});
    stream.push_back(inst);
  }

  run(pass, stream);
  EXPECT_EQ(pass.pairs(), 1u);
  ASSERT_EQ(capture.records.size(), 2u);
  EXPECT_EQ(capture.records[0].loads.size(), 2u);  // the fused (1,2)
  EXPECT_EQ(capture.records[1].loads.size(), 1u);  // 3 alone
  EXPECT_EQ(pass.inputInstructions(),
            pass.outputInstructions() + pass.pairs());
}

TEST(FusionPass, PairOutsideEveryKernelCountsAsUnattributed) {
  const Program program = makeProgram(
      Arch::Rv64, {rvAddi(0, 0, 0)},
      {Symbol{"k", Program::kCodeBase, 4}});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  // Both records execute far outside the code image (no staticIndex, pc
  // beyond every kernel region) — e.g. a runtime stub.
  RetiredInst a;
  a.pc = 0x20000;
  a.encoding = rvAdd(7, 1, 2);
  a.dsts.push_back(Reg::gp(7));
  RetiredInst b;
  b.pc = 0x20004;
  b.encoding = rvLd(8, 7, 0);
  b.group = InstGroup::Load;
  b.srcs.push_back(Reg::gp(7));
  b.loads.push_back(MemAccess{0x3000, 8});

  run(pass, {a, b});
  EXPECT_EQ(pass.pairs(), 1u);
  EXPECT_EQ(pass.unattributedPairs(), 1u);
  ASSERT_EQ(pass.kernels().size(), 1u);
  EXPECT_EQ(pass.kernels()[0].pairs, 0u);
}

// ---- block-boundary and fault regressions ---------------------------------

TEST(FusionPass, PairSplitAcrossTraceBlocksStillFuses) {
  // A fusable add/load pair whose halves arrive in different
  // kTraceBlockCapacity-record blocks: the pending candidate must carry
  // across the onRetireBlock boundary (ISSUE 8 regression).
  const std::size_t total = kTraceBlockCapacity + 1;
  std::vector<std::uint32_t> code(total, rvAddi(5, 5, 1));
  code[kTraceBlockCapacity - 1] = rvAdd(7, 1, 2);
  code[kTraceBlockCapacity] = rvLd(8, 7, 0);
  const Program program = makeProgram(Arch::Rv64, code);
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  std::vector<RetiredInst> stream;
  stream.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    RetiredInst inst = at(i, code[i]);
    if (code[i] == rvAdd(7, 1, 2)) {
      inst.srcs.push_back(Reg::gp(1));
      inst.srcs.push_back(Reg::gp(2));
      inst.dsts.push_back(Reg::gp(7));
    } else if (code[i] == rvLd(8, 7, 0)) {
      inst.group = InstGroup::Load;
      inst.srcs.push_back(Reg::gp(7));
      inst.dsts.push_back(Reg::gp(8));
      inst.loads.push_back(MemAccess{0x3000, 8});
    } else {
      inst.srcs.push_back(Reg::gp(5));
      inst.dsts.push_back(Reg::gp(5));
    }
    stream.push_back(inst);
  }

  pass.onRetireBlock({stream.data(), kTraceBlockCapacity});
  pass.onRetireBlock({stream.data() + kTraceBlockCapacity, 1});
  pass.onProgramEnd();

  EXPECT_EQ(pass.pairs(), 1u);
  EXPECT_EQ(
      pass.pairsByRule()[static_cast<std::size_t>(FusionRule::IndexedLoad)],
      1u);
  EXPECT_EQ(pass.inputInstructions(), total);
  EXPECT_EQ(pass.outputInstructions(), total - 1);
  EXPECT_EQ(capture.records.size(), total - 1);
  EXPECT_LE(capture.maxBlock, kTraceBlockCapacity);
  EXPECT_EQ(capture.programEnds, 1);
  // The macro-op sits where the add was.
  EXPECT_EQ(capture.records[kTraceBlockCapacity - 1].group, InstGroup::Load);
  EXPECT_EQ(capture.records[kTraceBlockCapacity - 1].pc,
            Program::kCodeBase + (kTraceBlockCapacity - 1) * 4);
}

TEST(FusionPass, FlushDeliversDeferredRecordAfterMidPairFault) {
  // The machine flushes retired blocks before a fault propagates but never
  // calls onProgramEnd; the harness must be able to flush() the deferred
  // candidate so downstream analyzers see every retired instruction.
  const Program program =
      makeProgram(Arch::Rv64, {rvAdd(7, 1, 2), rvLd(8, 7, 0)});
  Capture capture;
  FusionPass pass(rvAll(), program, {&capture});

  RetiredInst a = at(0, rvAdd(7, 1, 2));
  a.dsts.push_back(Reg::gp(7));
  pass.onRetireBlock({&a, 1});

  // First half retired, second half faulted: nothing forwarded yet.
  EXPECT_EQ(capture.records.size(), 0u);
  EXPECT_EQ(pass.inputInstructions(), 1u);
  EXPECT_EQ(pass.outputInstructions(), 0u);

  pass.flush();
  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].pc, a.pc);
  EXPECT_EQ(pass.outputInstructions(), 1u);
  EXPECT_EQ(capture.programEnds, 0);  // flush() does not signal program end

  pass.flush();  // idempotent
  EXPECT_EQ(capture.records.size(), 1u);
}

}  // namespace
}  // namespace riscmp::uarch
