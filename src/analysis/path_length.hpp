// Path-length analysis (paper §3): dynamic instruction counts, attributed
// per benchmark kernel for the Figure 1 breakdown.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "isa/trace.hpp"

namespace riscmp {

class PathLengthCounter final : public TraceObserver {
 public:
  /// Kernel regions are taken from the program's symbol table. Throws
  /// ValidationFault (naming both symbols) if any two kernel regions
  /// overlap — overlap would make per-kernel attribution ambiguous.
  explicit PathLengthCounter(const Program& program);

  void onRetireBlock(std::span<const RetiredInst> block) override;

  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Instructions whose pc fell outside every kernel region.
  [[nodiscard]] std::uint64_t unattributed() const { return unattributed_; }

  struct KernelCount {
    std::string name;
    std::uint64_t count = 0;
  };
  [[nodiscard]] const std::vector<KernelCount>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] std::uint64_t kernelCount(std::string_view name) const;

  /// Per-group instruction mix (branch fraction etc., used by the §3.3
  /// style analyses).
  [[nodiscard]] std::uint64_t groupCount(InstGroup group) const {
    return groups_[static_cast<std::size_t>(group)];
  }
  [[nodiscard]] std::uint64_t branchCount() const;

 private:
  KernelMap kernelMap_;
  std::vector<KernelCount> kernels_;
  std::array<std::uint64_t, kInstGroupCount> groups_{};
  std::uint64_t total_ = 0;
  std::uint64_t unattributed_ = 0;
};

}  // namespace riscmp
