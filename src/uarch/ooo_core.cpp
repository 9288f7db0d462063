#include "uarch/ooo_core.hpp"

#include <algorithm>

#include "support/fault.hpp"

namespace riscmp::uarch {

OoOCoreModel::OoOCoreModel(CoreModel model, bool memoryAware)
    : model_(std::move(model)) {
  if (memoryAware) {
    if (!model_.caches) {
      throw ConfigError(
          "memory-aware OoO model requires a caches: section in core model '" +
              model_.name + "'",
          {}, 0, "caches");
    }
    hierarchy_.emplace(*model_.caches);
  }
  robCommitCycles_.resize(std::max(1u, model_.robSize), 0);
  portFree_.resize(model_.ports.size(), 0);
  if (model_.predictor == BranchPredictor::Gshare) {
    // 2-bit counters initialised weakly taken.
    gshareTable_.assign(std::size_t{1} << model_.gshareBits, 2);
  }
}

bool OoOCoreModel::predictTaken(const RetiredInst& inst) {
  switch (model_.predictor) {
    case BranchPredictor::Perfect:
      return inst.branchTaken;
    case BranchPredictor::Static:
      // Backward-taken / forward-not-taken, *strictly* backward: a
      // self-target branch (target == pc) is not a backward loop edge, and
      // target 0 means the target is unknown (an indirect branch through a
      // cleared register, or a hand-built record) and carries no
      // direction. Both fall to not-taken; the old `target <= pc` form
      // predicted them taken.
      return inst.branchTarget != 0 && inst.branchTarget < inst.pc;
    case BranchPredictor::Gshare: {
      const std::uint64_t mask = gshareTable_.size() - 1;
      const std::uint64_t index = ((inst.pc >> 2) ^ globalHistory_) & mask;
      return gshareTable_[index] >= 2;
    }
  }
  return true;
}

void OoOCoreModel::trainPredictor(const RetiredInst& inst) {
  if (model_.predictor != BranchPredictor::Gshare) return;
  const std::uint64_t mask = gshareTable_.size() - 1;
  const std::uint64_t index = ((inst.pc >> 2) ^ globalHistory_) & mask;
  std::uint8_t& counter = gshareTable_[index];
  if (inst.branchTaken) {
    if (counter < 3) ++counter;
  } else if (counter > 0) {
    --counter;
  }
  globalHistory_ = ((globalHistory_ << 1) | (inst.branchTaken ? 1 : 0)) & mask;
}

std::uint64_t OoOCoreModel::schedule(const RetiredInst& inst,
                                     std::uint64_t operands) {
  ++instructions_;

  // ---- dispatch: in order, `dispatchWidth` per cycle, ROB space needed.
  std::uint64_t dispatch = dispatchCycle_;
  if (dispatchedThisCycle_ >= model_.dispatchWidth) {
    dispatch = dispatchCycle_ + 1;
  }
  dispatch = std::max(dispatch, frontEndStallUntil_);
  if (robCount_ >= robCommitCycles_.size()) {
    // The oldest in-flight instruction must commit before this one enters.
    const std::uint64_t oldestCommit = robCommitCycles_[robHead_];
    dispatch = std::max(dispatch, oldestCommit + 1);
    robHead_ = (robHead_ + 1) % robCommitCycles_.size();
    --robCount_;
  }
  if (dispatch != dispatchCycle_) {
    dispatchCycle_ = dispatch;
    dispatchedThisCycle_ = 0;
  }
  ++dispatchedThisCycle_;

  // ---- operand readiness: the later of dispatch and the sources' ready
  // cycles (registers and memory chunks, from the sink).
  const std::uint64_t ready = std::max(dispatch, operands);

  // ---- issue: earliest eligible port (fully pipelined, one per cycle).
  std::uint64_t issue = ready;
  if (!portFree_.empty()) {
    std::size_t best = portFree_.size();
    std::uint64_t bestCycle = ~std::uint64_t{0};
    for (std::size_t p = 0; p < portFree_.size(); ++p) {
      if (!model_.ports[p].accepts(inst.group)) continue;
      const std::uint64_t cycle = std::max(ready, portFree_[p]);
      if (cycle < bestCycle) {
        bestCycle = cycle;
        best = p;
      }
    }
    if (best == portFree_.size()) {
      // No eligible port: this used to fall through silently, issuing the
      // instruction with no structural hazard at all. Model holes must be
      // loud — CoreModel::fromYaml rejects uncovered groups that have a
      // configured latency, and this catches the rest (defaulted
      // latencies, hand-built models).
      throw ValidationFault(
          "core model '" + model_.name + "': no execution port accepts " +
          std::string(instGroupName(inst.group)) +
          " — add it to a port's groups: list");
    }
    issue = bestCycle;
    portFree_[best] = issue + 1;
  }

  // ---- execute. With a cache model attached, a load's latency is its
  // dynamic load-to-use latency instead of the flat LOAD table entry;
  // stores keep the table latency (write-buffered) but update cache state.
  std::uint32_t latency =
      model_.latencies[static_cast<std::size_t>(inst.group)];
  if (hierarchy_) {
    const std::uint32_t loadLatency = hierarchy_->retire(inst);
    if (!inst.loads.empty()) latency = loadLatency;
  }
  const std::uint64_t complete = issue + latency;

  // ---- branch resolution under the configured predictor.
  if (inst.isBranch && model_.predictor != BranchPredictor::Perfect) {
    const bool predicted = predictTaken(inst);
    trainPredictor(inst);
    if (predicted != inst.branchTaken && model_.mispredictPenalty != 0) {
      ++mispredicts_;
      frontEndStallUntil_ =
          std::max(frontEndStallUntil_, complete + model_.mispredictPenalty);
    }
  }

  // ---- commit: in order, `commitWidth` per cycle.
  std::uint64_t commit = std::max(complete + 1, lastCommitCycle_);
  if (commit == lastCommitCycle_ && committedThisCycle_ >= model_.commitWidth) {
    ++commit;
  }
  if (commit != lastCommitCycle_) {
    lastCommitCycle_ = commit;
    committedThisCycle_ = 0;
  }
  ++committedThisCycle_;

  // ---- ROB bookkeeping.
  const std::size_t tail =
      (robHead_ + robCount_) % robCommitCycles_.size();
  robCommitCycles_[tail] = commit;
  ++robCount_;
  return complete;
}

}  // namespace riscmp::uarch
