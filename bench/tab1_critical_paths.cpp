// Experiment E2 — Table 1: critical paths, ILP, and ideal 2 GHz runtimes.
//
// The critical path is the longest chain of RAW dependencies through
// registers and memory (paper §4.1); ILP = path length / CP; the runtime
// assumes an ideal processor retiring the whole chain at 2 GHz. Simulation
// runs once per cell on the parallel experiment engine; this binary only
// renders the CellResults.
#include <iostream>

#include "harness.hpp"
#include "paper_sections.hpp"

using namespace riscmp;
using namespace riscmp::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.analyses = engine::kCriticalPath;
  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);

  verify::FaultBoundary boundary(std::cout);
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "E2: critical paths and ILP (paper Table 1)\n"
            << "Absolute CPs differ from the paper (reduced problem sizes);\n"
            << "compare ILP magnitudes and the AArch64-vs-RISC-V shape.\n\n";

  renderCriticalPaths(std::cout, grid, shape);
  printFailureFooter(grid, std::cout);
  std::cout << run.footer << "\n";
  return boundary.finish();
}
