#include "analysis/path_length.hpp"

namespace riscmp {

PathLengthCounter::PathLengthCounter(const Program& program)
    : kernelMap_(program) {
  for (const std::string& name : kernelMap_.names()) {
    kernels_.push_back({name, 0});
  }
}

// Counts in locals and folds them into the members once per block, so no
// record waits on the previous record's store to the same counter: the
// total is the block size, kernel counts are added per run of records in
// one kernel, and groups alternate between two local tables.
void PathLengthCounter::onRetireBlock(std::span<const RetiredInst> block) {
  std::array<std::uint64_t, kInstGroupCount> groups[2] = {};
  const auto addRun = [this](std::int32_t kernel, std::uint64_t length) {
    if (kernel >= 0) {
      kernels_[static_cast<std::size_t>(kernel)].count += length;
    } else {
      unattributed_ += length;
    }
  };
  std::int32_t runKernel = -1;
  std::size_t runStart = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const RetiredInst& inst = block[i];
    ++groups[i & 1][static_cast<std::size_t>(inst.group)];
    if (const std::int32_t kernel = kernelMap_.slotOf(inst);
        kernel != runKernel) {
      addRun(runKernel, i - runStart);
      runKernel = kernel;
      runStart = i;
    }
  }
  addRun(runKernel, block.size() - runStart);
  total_ += block.size();
  for (std::size_t g = 0; g < kInstGroupCount; ++g) {
    groups_[g] += groups[0][g] + groups[1][g];
  }
}

std::uint64_t PathLengthCounter::kernelCount(std::string_view name) const {
  for (const KernelCount& kernel : kernels_) {
    if (kernel.name == name) return kernel.count;
  }
  return 0;
}

std::uint64_t PathLengthCounter::branchCount() const {
  return groupCount(InstGroup::Branch);
}

}  // namespace riscmp
