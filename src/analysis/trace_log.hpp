// Trace logging observer: writes the retired-instruction stream as CSV for
// offline analysis (the analogue of the paper artifact's raw SimEng output
// directory). One row per retired instruction:
//
//   index,pc,group,srcs,dsts,loads,stores,branch,taken
//
// Register operands use the dense index (0-31 GP, 32-63 FP, 64 flags);
// memory operands are "addr:size" pairs separated by '|'.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>

#include "isa/trace.hpp"

namespace riscmp {

class TraceLogger final : public TraceObserver {
 public:
  /// `out` must outlive the logger. `limit` caps the number of logged rows
  /// (0 = unlimited) so long simulations can log a prefix only.
  explicit TraceLogger(std::ostream& out, std::uint64_t limit = 0);

  void onRetireBlock(std::span<const RetiredInst> block) override;

  [[nodiscard]] std::uint64_t logged() const { return logged_; }

  /// Write the CSV header row.
  static void writeHeader(std::ostream& out);

 private:
  std::ostream& out_;
  std::uint64_t limit_;
  std::uint64_t index_ = 0;
  std::uint64_t logged_ = 0;
};

}  // namespace riscmp
