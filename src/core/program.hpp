// Program image: code, data, and the kernel symbol table used for
// per-kernel path-length attribution (Figure 1 of the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/memory.hpp"
#include "isa/arch.hpp"
#include "isa/trace.hpp"

namespace riscmp {

/// A named code region (one benchmark kernel). Instruction counts are
/// attributed to the region whose [addr, addr+size) contains the pc.
struct Symbol {
  std::string name;
  std::uint64_t addr = 0;
  std::uint64_t size = 0;
};

struct Program {
  Arch arch = Arch::Rv64;
  std::uint64_t entry = 0;

  std::uint64_t codeBase = 0;
  std::vector<std::uint32_t> code;

  std::uint64_t dataBase = 0;
  std::vector<std::uint8_t> data;

  std::uint64_t bssBase = 0;
  std::uint64_t bssSize = 0;

  std::vector<Symbol> kernels;

  /// Conventional layout constants shared with the kernel compiler.
  static constexpr std::uint64_t kCodeBase = 0x10000;

  [[nodiscard]] std::uint64_t codeEnd() const {
    return codeBase + code.size() * 4;
  }

  /// Copy code and initialised data into simulated memory and zero the bss.
  void loadInto(Memory& memory) const;

  /// Find the kernel region containing `pc`, if any.
  [[nodiscard]] const Symbol* kernelAt(std::uint64_t pc) const;

  /// Per-code-word kernel attribution table, built once so per-retire
  /// consumers (PathLengthCounter via RetiredInst::staticIndex) can replace
  /// a pc range search with one indexed load: entry i is the index into
  /// `kernels` of the region containing codeBase + 4*i, or -1 when no
  /// kernel covers that word. Validates that kernel regions do not overlap
  /// — overlap would make attribution ambiguous (double-counting) — and
  /// throws ValidationFault naming both offending symbols if they do.
  [[nodiscard]] std::vector<std::int32_t> kernelWordIndex() const;

  /// Find a kernel by name.
  [[nodiscard]] const Symbol* kernelNamed(std::string_view name) const;

  /// Highest address the program touches statically (for memory sizing).
  [[nodiscard]] std::uint64_t highWaterMark() const;
};

/// Kernel attribution shared by every per-kernel observer (path length,
/// cache model, memory system, throughput bound, fusion). Symbols sharing a
/// name (time-step-unrolled workloads) share one slot, and slots are
/// numbered by each name's first appearance in Program::kernels, so every
/// observer's per-kernel table lines up row for row. A retired record maps
/// to its slot with one table load on RetiredInst::staticIndex (built from
/// kernelWordIndex); records without one (hand-built traces, code outside
/// the static image) fall back to a pc search over the kernel regions.
class KernelMap {
 public:
  /// Throws ValidationFault if two kernel regions overlap.
  explicit KernelMap(const Program& program);

  /// Kernel name per slot.
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Slot of the kernel `inst` retired in, or -1 when outside every kernel.
  [[nodiscard]] std::int32_t slotOf(const RetiredInst& inst) const {
    if (inst.staticIndex < wordSlot_.size()) return wordSlot_[inst.staticIndex];
    return slotAt(inst.pc);
  }

 private:
  /// Slot of the kernel region containing `pc`, or -1.
  [[nodiscard]] std::int32_t slotAt(std::uint64_t pc) const;

  struct Region {
    std::uint64_t begin;
    std::uint64_t end;
    std::int32_t slot;
  };

  std::vector<std::string> names_;
  std::vector<std::int32_t> wordSlot_;  ///< per code word; -1 = no kernel
  std::vector<Region> regions_;         ///< one per symbol, Program order
};

}  // namespace riscmp
