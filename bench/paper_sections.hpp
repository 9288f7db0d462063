// Per-workload tables of the paper's four experiments, shared by the
// stand-alone binaries (fig1, tab1, tab2, fig2) and paper_report, which
// renders all four from one grid. Each renderer prints one "== workload =="
// table per workload and nothing else: titles, geomeans and footnotes stay
// with the binary that owns them.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "paper_data.hpp"
#include "support/table.hpp"

namespace riscmp::bench {

/// E1 (Figure 1): total and per-kernel path lengths, normalised to the
/// first config. Returns the GCC 12.2 RISC-V / AArch64 path-length ratio
/// (configs 3 and 2) of every workload whose cells all ran.
inline std::vector<double> renderPathLengths(std::ostream& out,
                                             const engine::GridResult& grid,
                                             const engine::GridShape& shape) {
  std::vector<double> riscvOverArm;
  for (std::size_t w = 0; w < shape.suite.size(); ++w) {
    out << "== " << shape.suite[w].name << " ==\n";
    Table table({"config", "total", "normalised", "per-kernel breakdown",
                 "paper normalised"});
    double baseline = 0.0;
    bool allCells = true;
    for (std::size_t c = 0; c < shape.configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      const std::string config = configName(shape.configs[c]);
      if (!cell.cell.ok) {
        allCells = false;
        table.addRow({config, failedCellMark(cell), "-", "-", "-"});
        continue;
      }
      const double total = static_cast<double>(cell.instructions);
      if (c == 0) baseline = total;
      std::string breakdown;
      for (const auto& kernel : cell.kernels) {
        if (!breakdown.empty()) breakdown += ", ";
        breakdown += kernel.name + "=" +
                     sigFigs(static_cast<double>(kernel.count) / total * 100.0,
                             3) +
                     "%";
      }
      const double paperNorm =
          static_cast<double>(kPaperRows[w].pathLength[c]) /
          static_cast<double>(kPaperRows[w].pathLength[0]);
      table.addRow({config, withCommas(cell.instructions),
                    baseline > 0.0 ? sigFigs(total / baseline, 4) : "-",
                    breakdown, sigFigs(paperNorm, 4)});
    }
    out << table << "\n";
    if (allCells) {
      riscvOverArm.push_back(static_cast<double>(grid.at(w, 3).instructions) /
                             static_cast<double>(grid.at(w, 2).instructions));
    }
  }
  return riscvOverArm;
}

/// E2 (Table 1): critical path, ILP and ideal 2 GHz runtime.
inline void renderCriticalPaths(std::ostream& out,
                                const engine::GridResult& grid,
                                const engine::GridShape& shape) {
  for (std::size_t w = 0; w < shape.suite.size(); ++w) {
    out << "== " << shape.suite[w].name << " ==\n";
    Table table({"config", "path length", "CP", "ILP", "2GHz runtime (ms)",
                 "paper ILP", "paper runtime (ms)"});
    for (std::size_t c = 0; c < shape.configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok) {
        table.addRow({configName(shape.configs[c]), failedCellMark(cell), "-",
                      "-", "-", "-", "-"});
        continue;
      }
      table.addRow(
          {configName(shape.configs[c]), withCommas(cell.instructions),
           withCommas(cell.criticalPath), sigFigs(cell.ilp(), 3),
           sigFigs(engine::CellResult::runtimeSeconds(cell.criticalPath) * 1e3,
                   3),
           sigFigs(kPaperRows[w].ilp[c], 3),
           sigFigs(kPaperRows[w].runtimeMs[c], 3)});
    }
    out << table << "\n";
  }
}

/// E3 (Table 2): latency-scaled critical path and its ratio to the basic
/// CP. Cells without a scaled CP (no latency table) get no row.
inline void renderScaledCriticalPaths(std::ostream& out,
                                      const engine::GridResult& grid,
                                      const engine::GridShape& shape) {
  for (std::size_t w = 0; w < shape.suite.size(); ++w) {
    out << "== " << shape.suite[w].name << " ==\n";
    Table table({"config", "scaled CP", "ILP", "2GHz runtime (ms)",
                 "scale vs basic CP", "paper ILP", "paper runtime (ms)"});
    for (std::size_t c = 0; c < shape.configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok) {
        table.addRow({configName(shape.configs[c]), failedCellMark(cell), "-",
                      "-", "-", "-", "-"});
        continue;
      }
      if (!cell.hasScaledCp) continue;
      table.addRow(
          {configName(shape.configs[c]), withCommas(cell.scaledCriticalPath),
           sigFigs(cell.scaledIlp(), 3),
           sigFigs(
               engine::CellResult::runtimeSeconds(cell.scaledCriticalPath) *
                   1e3,
               3),
           sigFigs(static_cast<double>(cell.scaledCriticalPath) /
                       static_cast<double>(cell.criticalPath),
                   3),
           sigFigs(kPaperRows[w].scaledIlp[c], 3),
           sigFigs(kPaperRows[w].scaledRuntimeMs[c], 3)});
    }
    out << table << "\n";
  }
}

/// E4 (Figure 2): mean ILP per window size for the GCC 12.2 AArch64 and
/// RISC-V cells (config indices `arm` and `riscv`), plus the RISC-V vs
/// AArch64 delta over windows that filled on both.
inline void renderWindowedIlp(std::ostream& out,
                              const engine::GridResult& grid,
                              const engine::GridShape& shape,
                              const std::vector<std::uint32_t>& windowSizes,
                              std::size_t arm, std::size_t riscv) {
  for (std::size_t w = 0; w < shape.suite.size(); ++w) {
    out << "== " << shape.suite[w].name << " ==\n";
    std::vector<std::string> header = {"config"};
    for (const auto size : windowSizes) {
      header.push_back("W=" + std::to_string(size));
    }
    Table table(header);
    for (const std::size_t c : {arm, riscv}) {
      const engine::CellResult& cell = grid.at(w, c);
      std::vector<std::string> row = {configName(shape.configs[c])};
      if (!cell.cell.ok) {
        row.push_back(failedCellMark(cell));
        while (row.size() < header.size()) row.push_back("-");
      } else {
        for (const auto& result : cell.windows) {
          row.push_back(engine::windowIlpCell(result));
        }
      }
      table.addRow(std::move(row));
    }
    const engine::CellResult& armCell = grid.at(w, arm);
    const engine::CellResult& riscvCell = grid.at(w, riscv);
    if (armCell.cell.ok && riscvCell.cell.ok) {
      const auto& a = armCell.windows;
      const auto& r = riscvCell.windows;
      std::vector<std::string> deltaRow = {"RISC-V vs AArch64"};
      for (std::size_t i = 0; i < windowSizes.size(); ++i) {
        deltaRow.push_back(a[i].windows != 0 && r[i].windows != 0
                               ? percentDelta(r[i].meanIlp, a[i].meanIlp)
                               : "-");
      }
      table.addRow(std::move(deltaRow));
    }
    out << table << "\n";
  }
}

}  // namespace riscmp::bench
