// Architecture-neutral register identifiers.
//
// Both ISAs expose 31/32 general-purpose and 32 floating-point registers;
// AArch64 additionally has the NZCV condition flags, RISC-V the FCSR. The
// trace analyses index registers densely: [0,32) GP, [32,64) FP, 64 flags.
#pragma once

#include <cstdint>

namespace riscmp {

enum class RegClass : std::uint8_t {
  Gp = 0,     ///< integer register file (x0-x31 / X0-X30+SP)
  Fp = 1,     ///< floating-point register file (f0-f31 / D0-D31)
  Flags = 2,  ///< NZCV (AArch64) or FCSR flags (RISC-V)
};

struct Reg {
  RegClass cls = RegClass::Gp;
  std::uint8_t idx = 0;

  constexpr bool operator==(const Reg&) const = default;

  /// Dense index into the per-core dependency-depth array.
  /// Branch-free: it runs for every operand of every retired instruction.
  [[nodiscard]] constexpr unsigned dense() const {
    return 32u * static_cast<unsigned>(cls) +
           (cls == RegClass::Flags ? 0u : idx);
  }

  static constexpr unsigned kDenseCount = 65;

  static constexpr Reg gp(unsigned i) {
    return Reg{RegClass::Gp, static_cast<std::uint8_t>(i)};
  }
  static constexpr Reg fp(unsigned i) {
    return Reg{RegClass::Fp, static_cast<std::uint8_t>(i)};
  }
  static constexpr Reg flags() { return Reg{RegClass::Flags, 0}; }
};

}  // namespace riscmp
