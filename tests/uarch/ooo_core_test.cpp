#include <gtest/gtest.h>

#include <vector>

#include "support/fault.hpp"
#include "uarch/ooo_core.hpp"

namespace riscmp::uarch {
namespace {

CoreModel makeModel(unsigned width, unsigned rob,
                    unsigned intLatency = 1) {
  CoreModel model;
  model.fetchWidth = width;
  model.dispatchWidth = width;
  model.commitWidth = width;
  model.robSize = rob;
  model.clockGhz = 2.0;
  // One wide port accepting everything avoids port effects unless a test
  // configures ports explicitly.
  Port port;
  port.name = "any";
  port.groupMask = ~0u;
  model.ports = {port, port, port, port, port, port, port, port};
  model.latencies = unitLatencies();
  model.latencies[static_cast<std::size_t>(InstGroup::IntSimple)] = intLatency;
  return model;
}

RetiredInst alu(std::initializer_list<unsigned> srcs, unsigned dst,
                InstGroup group = InstGroup::IntSimple) {
  RetiredInst inst;
  inst.group = group;
  for (const unsigned src : srcs) inst.srcs.push_back(Reg::gp(src));
  inst.dsts.push_back(Reg::gp(dst));
  return inst;
}

TEST(OoOCore, SerialChainBoundByLatency) {
  OoOCoreModel core(makeModel(4, 128, 3));
  for (int i = 0; i < 100; ++i) core.onRetire(alu({1}, 1));
  // Each instruction waits for the previous one's 3-cycle latency.
  EXPECT_NEAR(core.cpi(), 3.0, 0.2);
}

TEST(OoOCore, SourcesDelayOnlyTheirOwnRecord) {
  // The middle record waits for the slow divide; the last reads nothing
  // either wrote, so it issues at dispatch and overlaps both. One block,
  // so all three go through one sink.
  CoreModel model = makeModel(4, 128);
  model.latencies[static_cast<std::size_t>(InstGroup::FpDiv)] = 40;
  OoOCoreModel core(model);
  const std::vector<RetiredInst> block{alu({}, 1, InstGroup::FpDiv),
                                       alu({1}, 2),
                                       alu({}, 3, InstGroup::FpDiv)};
  core.onRetireBlock(block);
  EXPECT_EQ(core.cycles(), 1u + 40u + 1u + 1u);  // the middle record's commit
}

TEST(OoOCore, IndependentStreamBoundByWidth) {
  OoOCoreModel core(makeModel(4, 128));
  for (int i = 0; i < 400; ++i) core.onRetire(alu({}, 1 + (i % 16)));
  EXPECT_NEAR(core.ipc(), 4.0, 0.3);
}

TEST(OoOCore, WiderCoreRunsFaster) {
  OoOCoreModel narrow(makeModel(2, 128));
  OoOCoreModel wide(makeModel(8, 128));
  for (int i = 0; i < 400; ++i) {
    const RetiredInst inst = alu({}, 1 + (i % 16));
    narrow.onRetire(inst);
    wide.onRetire(inst);
  }
  EXPECT_LT(wide.cycles(), narrow.cycles());
  EXPECT_NEAR(narrow.ipc(), 2.0, 0.2);
}

TEST(OoOCore, RobLimitsOverlapOfLongLatencyOps) {
  // A long FP op followed by many independent ints: with a tiny ROB the
  // ints cannot dispatch past the stalled head.
  CoreModel smallRob = makeModel(4, 4);
  smallRob.latencies[static_cast<std::size_t>(InstGroup::FpDiv)] = 40;
  CoreModel bigRob = makeModel(4, 256);
  bigRob.latencies[static_cast<std::size_t>(InstGroup::FpDiv)] = 40;
  OoOCoreModel small(smallRob);
  OoOCoreModel big(bigRob);
  for (int block = 0; block < 10; ++block) {
    const RetiredInst divide = alu({}, 20, InstGroup::FpDiv);
    small.onRetire(divide);
    big.onRetire(divide);
    for (int i = 0; i < 30; ++i) {
      const RetiredInst inst = alu({}, 1 + (i % 8));
      small.onRetire(inst);
      big.onRetire(inst);
    }
  }
  EXPECT_GT(small.cycles(), big.cycles() * 2);
}

TEST(OoOCore, PortContentionSerialisesSameGroup) {
  CoreModel model = makeModel(8, 256);
  Port fp;
  fp.name = "fp";
  fp.groupMask = 1u << static_cast<unsigned>(InstGroup::FpAdd);
  Port any;
  any.name = "any";
  any.groupMask = ~0u & ~fp.groupMask;
  model.ports = {fp, any, any, any};
  OoOCoreModel core(model);
  // Independent FP adds all fight for the single FP port.
  for (int i = 0; i < 200; ++i) {
    core.onRetire(alu({}, 1 + (i % 16), InstGroup::FpAdd));
  }
  EXPECT_NEAR(core.ipc(), 1.0, 0.1);
}

TEST(OoOCore, StoreToLoadForwardingOrdersMemory) {
  OoOCoreModel core(makeModel(4, 64));
  for (int i = 0; i < 50; ++i) {
    RetiredInst st;
    st.group = InstGroup::Store;
    st.srcs.push_back(Reg::gp(1));
    st.stores.push_back(MemAccess{0x100, 8});
    core.onRetire(st);
    RetiredInst ld;
    ld.group = InstGroup::Load;
    ld.dsts.push_back(Reg::gp(1));
    ld.loads.push_back(MemAccess{0x100, 8});
    core.onRetire(ld);
  }
  // Serial store->load chain: each pair costs at least store latency (1)
  // plus load latency (1 by default here).
  EXPECT_GE(core.cpi(), 0.9);
}

TEST(OoOCore, StaticPredictorChargesMispredicts) {
  CoreModel model = makeModel(4, 128);
  model.predictor = BranchPredictor::Static;
  model.mispredictPenalty = 10;
  OoOCoreModel withPenalty(model);
  OoOCoreModel perfect(makeModel(4, 128));

  for (int i = 0; i < 100; ++i) {
    RetiredInst branch;
    branch.group = InstGroup::Branch;
    branch.pc = 0x1000;
    branch.isBranch = true;
    branch.branchTaken = true;
    branch.branchTarget = 0x2000;  // forward taken => static mispredict
    withPenalty.onRetire(branch);
    perfect.onRetire(branch);
    for (int j = 0; j < 3; ++j) {
      withPenalty.onRetire(alu({}, 1 + j));
      perfect.onRetire(alu({}, 1 + j));
    }
  }
  EXPECT_EQ(withPenalty.mispredicts(), 100u);
  EXPECT_EQ(perfect.mispredicts(), 0u);
  EXPECT_GT(withPenalty.cycles(), perfect.cycles() * 3);
}

TEST(OoOCore, BackwardTakenBranchesPredictedByStatic) {
  CoreModel model = makeModel(4, 128);
  model.predictor = BranchPredictor::Static;
  model.mispredictPenalty = 10;
  OoOCoreModel core(model);
  RetiredInst loopBranch;
  loopBranch.group = InstGroup::Branch;
  loopBranch.pc = 0x2000;
  loopBranch.isBranch = true;
  loopBranch.branchTaken = true;
  loopBranch.branchTarget = 0x1000;  // backward taken: predicted correctly
  for (int i = 0; i < 50; ++i) core.onRetire(loopBranch);
  EXPECT_EQ(core.mispredicts(), 0u);
}

TEST(OoOCore, SelfTargetAndZeroTargetBranchesPredictedNotTaken) {
  // ISSUE 7 satellite: the old `branchTarget <= pc` heuristic predicted a
  // self-target branch (target == pc) and an unknown-target indirect
  // branch (target 0) taken. Strictly-backward semantics send both to the
  // not-taken side, so when they ARE taken they must count as mispredicts.
  CoreModel model = makeModel(4, 128);
  model.predictor = BranchPredictor::Static;
  model.mispredictPenalty = 10;
  OoOCoreModel core(model);

  RetiredInst selfTarget;
  selfTarget.group = InstGroup::Branch;
  selfTarget.pc = 0x2000;
  selfTarget.isBranch = true;
  selfTarget.branchTaken = true;
  selfTarget.branchTarget = 0x2000;  // target == pc: not a backward edge
  for (int i = 0; i < 10; ++i) core.onRetire(selfTarget);
  EXPECT_EQ(core.mispredicts(), 10u);

  RetiredInst indirect = selfTarget;
  indirect.branchTarget = 0;  // unknown target: no direction to predict
  for (int i = 0; i < 10; ++i) core.onRetire(indirect);
  EXPECT_EQ(core.mispredicts(), 20u);

  // Not-taken self-target / zero-target branches are predicted correctly.
  RetiredInst notTaken = selfTarget;
  notTaken.branchTaken = false;
  core.onRetire(notTaken);
  notTaken.branchTarget = 0;
  core.onRetire(notTaken);
  EXPECT_EQ(core.mispredicts(), 20u);
}

TEST(OoOCore, NoEligiblePortThrows) {
  // ISSUE 7 satellite: an instruction group no port accepts used to skip
  // the issue stage's structural hazard silently; it must be loud.
  CoreModel model = makeModel(4, 128);
  Port intOnly;
  intOnly.name = "alu";
  intOnly.groupMask = 1u << static_cast<unsigned>(InstGroup::IntSimple);
  model.ports = {intOnly};
  OoOCoreModel core(model);
  core.onRetire(alu({}, 1));  // IntSimple: accepted
  EXPECT_THROW(core.onRetire(alu({}, 2, InstGroup::FpAdd)), ValidationFault);
}

TEST(OoOCore, CpiNeverBelowWidthBound) {
  OoOCoreModel core(makeModel(4, 512));
  for (int i = 0; i < 1000; ++i) core.onRetire(alu({}, 1 + (i % 30)));
  EXPECT_GE(core.cpi(), 1.0 / 4.0 - 0.01);
}

TEST(OoOCore, RuntimeUsesModelClock) {
  CoreModel model = makeModel(1, 16);
  model.clockGhz = 1.0;
  OoOCoreModel core(model);
  for (int i = 0; i < 1000; ++i) core.onRetire(alu({1}, 1));
  EXPECT_NEAR(core.runtimeSeconds(), core.cycles() / 1e9, 1e-12);
}

}  // namespace
}  // namespace riscmp::uarch
