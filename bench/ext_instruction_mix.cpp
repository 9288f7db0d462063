// Extension — instruction-group mix per workload and ISA (the generalised
// form of the paper's §3.3 branch-fraction analysis). Differences in the
// mixes explain the path-length gaps: RISC-V trades AArch64's compare
// instructions for extra integer adds (pointer bumps), and both ISAs
// execute identical FP work. Simulation runs once per cell on the
// experiment engine.
#include <iostream>

#include "harness.hpp"
#include "support/table.hpp"

using namespace riscmp;
using namespace riscmp::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configs = {{Arch::AArch64, kgen::CompilerEra::Gcc12},
                  {Arch::Rv64, kgen::CompilerEra::Gcc12}};
  spec.analyses = engine::kPathLength;

  const InstGroup shown[] = {InstGroup::IntSimple, InstGroup::Branch,
                             InstGroup::Load,      InstGroup::Store,
                             InstGroup::FpAdd,     InstGroup::FpMul,
                             InstGroup::FpFma,     InstGroup::FpDiv,
                             InstGroup::FpSqrt,    InstGroup::FpSimple};

  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);
  const auto& suite = shape.suite;
  const auto& configs = shape.configs;

  verify::FaultBoundary boundary(std::cout);
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "Extension: instruction-group mix (GCC 12.2 binaries)\n\n";

  for (std::size_t w = 0; w < suite.size(); ++w) {
    std::cout << "== " << suite[w].name << " ==\n";
    std::vector<std::string> header = {"config", "total"};
    for (const InstGroup group : shown) {
      header.emplace_back(instGroupName(group));
    }
    Table table(header);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok) continue;
      std::vector<std::string> row = {configName(configs[c]),
                                      withCommas(cell.instructions)};
      for (const InstGroup group : shown) {
        row.push_back(
            sigFigs(100.0 *
                        static_cast<double>(
                            cell.groups[static_cast<std::size_t>(group)]) /
                        static_cast<double>(cell.instructions),
                    3) +
            "%");
      }
      table.addRow(std::move(row));
    }
    std::cout << table << "\n";
  }

  std::cout << "Reading: the FP columns match between ISAs (identical "
               "arithmetic); the INT_SIMPLE and BRANCH columns differ by the "
               "loop-control and addressing idioms of §3.3.\n";
  std::cout << run.footer << "\n";
  return boundary.finish();
}
