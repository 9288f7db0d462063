#include "core/program.hpp"

#include <algorithm>
#include <cstring>

#include "support/fault.hpp"

namespace riscmp {

void Program::loadInto(Memory& memory) const {
  for (std::size_t i = 0; i < code.size(); ++i) {
    memory.write<std::uint32_t>(codeBase + i * 4, code[i]);
  }
  if (!data.empty()) {
    memory.writeBlock(dataBase, {data.data(), data.size()});
  }
  if (bssSize != 0) {
    memory.fill(bssBase, bssSize, 0);
  }
}

const Symbol* Program::kernelAt(std::uint64_t pc) const {
  for (const Symbol& symbol : kernels) {
    if (pc >= symbol.addr && pc < symbol.addr + symbol.size) return &symbol;
  }
  return nullptr;
}

std::vector<std::int32_t> Program::kernelWordIndex() const {
  // Validate non-overlap first: regions sorted by start must each end
  // before the next begins. Regions may share a *name* (time-step-unrolled
  // workloads) but never an address.
  std::vector<std::size_t> order(kernels.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return kernels[a].addr < kernels[b].addr;
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Symbol& prev = kernels[order[i - 1]];
    const Symbol& next = kernels[order[i]];
    if (prev.addr + prev.size > next.addr && next.size != 0 &&
        prev.size != 0) {
      throw ValidationFault(
          "kernel regions overlap: '" + prev.name + "' [" +
          fault_detail::hexAddr(prev.addr) + ", " +
          fault_detail::hexAddr(prev.addr + prev.size) + ") and '" +
          next.name + "' [" + fault_detail::hexAddr(next.addr) + ", " +
          fault_detail::hexAddr(next.addr + next.size) + ")");
    }
  }

  std::vector<std::int32_t> table(code.size(), -1);
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const Symbol& symbol = kernels[k];
    if (symbol.addr < codeBase || symbol.size == 0) continue;
    const std::uint64_t first = (symbol.addr - codeBase) / 4;
    const std::uint64_t last =
        (std::min(symbol.addr + symbol.size, codeEnd()) - codeBase + 3) / 4;
    for (std::uint64_t w = first; w < last && w < table.size(); ++w) {
      table[w] = static_cast<std::int32_t>(k);
    }
  }
  return table;
}

KernelMap::KernelMap(const Program& program) {
  const std::vector<std::int32_t> symbolOfWord = program.kernelWordIndex();

  std::vector<std::int32_t> symbolSlot(program.kernels.size());
  for (std::size_t s = 0; s < program.kernels.size(); ++s) {
    const Symbol& symbol = program.kernels[s];
    const auto named = std::find(names_.begin(), names_.end(), symbol.name);
    symbolSlot[s] = static_cast<std::int32_t>(named - names_.begin());
    if (named == names_.end()) names_.push_back(symbol.name);
    regions_.push_back({symbol.addr, symbol.addr + symbol.size, symbolSlot[s]});
  }

  wordSlot_.resize(symbolOfWord.size());
  for (std::size_t w = 0; w < symbolOfWord.size(); ++w) {
    wordSlot_[w] = symbolOfWord[w] < 0
                       ? -1
                       : symbolSlot[static_cast<std::size_t>(symbolOfWord[w])];
  }
}

std::int32_t KernelMap::slotAt(std::uint64_t pc) const {
  // Non-empty regions never overlap (kernelWordIndex validated that), so
  // the first region containing pc is the only one.
  for (const Region& region : regions_) {
    if (pc >= region.begin && pc < region.end) return region.slot;
  }
  return -1;
}

const Symbol* Program::kernelNamed(std::string_view name) const {
  for (const Symbol& symbol : kernels) {
    if (symbol.name == name) return &symbol;
  }
  return nullptr;
}

std::uint64_t Program::highWaterMark() const {
  std::uint64_t top = codeEnd();
  if (!data.empty()) top = std::max(top, dataBase + data.size());
  if (bssSize != 0) top = std::max(top, bssBase + bssSize);
  return top;
}

}  // namespace riscmp
