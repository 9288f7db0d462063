#include "analysis/trace_log.hpp"

#include <ostream>

namespace riscmp {
namespace {

void writeRegs(std::ostream& out, const SmallVector<Reg, 5>& regs) {
  bool first = true;
  for (const Reg& reg : regs) {
    if (!first) out << '|';
    out << reg.dense();
    first = false;
  }
}

void writeRegs(std::ostream& out, const SmallVector<Reg, 3>& regs) {
  bool first = true;
  for (const Reg& reg : regs) {
    if (!first) out << '|';
    out << reg.dense();
    first = false;
  }
}

void writeMem(std::ostream& out, const SmallVector<MemAccess, 2>& accesses) {
  bool first = true;
  for (const MemAccess& access : accesses) {
    if (!first) out << '|';
    out << access.addr << ':' << static_cast<unsigned>(access.size);
    first = false;
  }
}

}  // namespace

TraceLogger::TraceLogger(std::ostream& out, std::uint64_t limit)
    : out_(out), limit_(limit) {}

void TraceLogger::writeHeader(std::ostream& out) {
  out << "index,pc,group,srcs,dsts,loads,stores,branch,taken\n";
}

void TraceLogger::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) {
    const std::uint64_t index = index_++;
    if (limit_ != 0 && logged_ >= limit_) continue;
    ++logged_;
    out_ << index << ",0x" << std::hex << inst.pc << std::dec << ','
         << instGroupName(inst.group) << ',';
    writeRegs(out_, inst.srcs);
    out_ << ',';
    writeRegs(out_, inst.dsts);
    out_ << ',';
    writeMem(out_, inst.loads);
    out_ << ',';
    writeMem(out_, inst.stores);
    out_ << ',' << (inst.isBranch ? 1 : 0) << ','
         << (inst.branchTaken ? 1 : 0) << '\n';
  }
}

}  // namespace riscmp
