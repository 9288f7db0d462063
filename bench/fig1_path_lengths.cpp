// Experiment E1 — Figure 1 and the "Path Length" rows of Table 1.
//
// Dynamic instruction counts per benchmark, broken down by kernel, for both
// ISAs under both compiler-era models. Values are normalised to
// GCC 9.2 / AArch64 exactly as the paper's Figure 1, and the cross-config
// ratios are printed next to the ratios implied by the paper's Table 1.
//
// Simulation runs on the parallel experiment engine: each workload×config
// cell is simulated exactly once (inside a fault boundary, so a failing
// cell prints its crash report and the rest of the run continues) and this
// binary only renders the resulting CellResults.
#include <iostream>

#include "harness.hpp"
#include "paper_sections.hpp"
#include "support/stats.hpp"

using namespace riscmp;
using namespace riscmp::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.analyses = engine::kPathLength;
  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);

  verify::FaultBoundary boundary(std::cout);
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "E1: path lengths per kernel (paper Figure 1 / Table 1)\n"
            << "Workload sizes are laptop-scale; compare ratios, not\n"
            << "absolute counts (see EXPERIMENTS.md).\n\n";

  const std::vector<double> riscvOverArm =
      renderPathLengths(std::cout, grid, shape);
  if (!riscvOverArm.empty()) {
    std::size_t aggregated = 0;
    const double geomean = geometricMean(riscvOverArm, &aggregated);
    if (aggregated < riscvOverArm.size()) {
      std::cout << "warning: skipped " << riscvOverArm.size() - aggregated
                << " non-positive path-length ratio(s) in the geomean\n";
    }
    if (aggregated > 0) {
      std::cout << "GCC 12.2 RISC-V vs AArch64 path-length ratio (geomean "
                   "over "
                << aggregated << " benchmarks): " << sigFigs(geomean, 4)
                << "  (paper: path lengths mostly within 10%, average +2.3% "
                   "for RISC-V)\n";
    }
  }
  std::cout << "\n";
  printFailureFooter(grid, std::cout);
  std::cout << run.footer << "\n";
  return boundary.finish();
}
