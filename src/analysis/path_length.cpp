#include "analysis/path_length.hpp"

namespace riscmp {

PathLengthCounter::PathLengthCounter(const Program& program)
    : kernelMap_(program) {
  for (const std::string& name : kernelMap_.names()) {
    kernels_.push_back({name, 0});
  }
}

void PathLengthCounter::attribute(const RetiredInst& inst) {
  ++total_;
  ++groups_[static_cast<std::size_t>(inst.group)];
  const std::int32_t kernel = kernelMap_.slotOf(inst);
  if (kernel >= 0) {
    ++kernels_[static_cast<std::size_t>(kernel)].count;
  } else {
    ++unattributed_;
  }
}

void PathLengthCounter::onRetire(const RetiredInst& inst) { attribute(inst); }

void PathLengthCounter::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) attribute(inst);
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
