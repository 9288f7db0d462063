// Hardware prefetcher models for the L1D (ISSUE 5 tentpole).
//
// Both models are deliberately address-stream-only: they key on data
// addresses, never on the program counter. The E11 cross-ISA invariant —
// RV64 and A64 compilations of one kernel must produce identical cache
// behaviour — holds because the data-address stream is ISA-invariant while
// pc values are not, so a pc-indexed stride table would break the
// invariant by design.
#pragma once

#include <cstdint>

#include "support/small_vector.hpp"

namespace riscmp::uarch::mem {

enum class PrefetchKind : std::uint8_t {
  None,      ///< no prefetcher (the paper-faithful default)
  NextLine,  ///< on a demand miss of line L, fetch L+1
  Stride,    ///< per-4KiB-page stride detector, confirmed before issuing
};

/// The YAML spelling of each kind ("none" / "next_line" / "stride").
const char* prefetchKindName(PrefetchKind kind);

/// Candidate lines one demand access asks the hierarchy to prefetch.
using PrefetchTargets = SmallVector<std::uint64_t, 2>;

/// Stateful prefetch policy. observe() is called once per demand line
/// access with the line number and whether it missed L1; the returned
/// targets are lines the hierarchy should try to install.
class Prefetcher {
 public:
  explicit Prefetcher(PrefetchKind kind, std::uint32_t lineBytes);

  PrefetchTargets observe(std::uint64_t line, bool missed);

  [[nodiscard]] PrefetchKind kind() const { return kind_; }


 private:
  /// One tracked 4-KiB page: last line touched, last observed line delta,
  /// and whether that delta repeated (stride confirmed).
  struct Stream {
    std::uint64_t page = 0;
    std::uint64_t lastLine = 0;
    std::int64_t stride = 0;
    bool confirmed = false;
    bool valid = false;
  };

  static constexpr std::size_t kStreams = 16;

  PrefetchKind kind_;
  std::uint32_t linesPerPage_;
  Stream streams_[kStreams];
  std::size_t nextVictim_ = 0;
};

}  // namespace riscmp::uarch::mem
