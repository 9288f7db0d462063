// The full paper reproduction in ONE engine pass (ISSUE 2 acceptance).
//
// fig1 (path lengths), tab1 (critical paths), tab2 (scaled critical
// paths), and fig2 (windowed ILP) previously each re-simulated the shared
// workload × era × ISA grid. This binary attaches all four analyses to the
// experiment engine's single simulation of each cell — path length, CP,
// scaled CP, windowed CP (GCC 12.2 cells only, as in the paper), and
// dependency distances come from the same dynamic trace, exactly as the
// paper computes them — then renders every report section. The engine
// stats footer is the exactly-once witness: for the 5-workload × 4-config
// grid it reads "20 compiles (+0 cached), 20 simulations".
#include <iostream>
#include <optional>

#include "harness.hpp"
#include "paper_sections.hpp"
#include "support/stats.hpp"
#include "uarch/core_model.hpp"

using namespace riscmp;
using namespace riscmp::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configDir = flags.text("config-dir").value_or(uarch::configDir());
  // The paper's Figure 2 and §6.2 analyses cover only the GCC 12.2
  // binaries; skip the expensive windowed/dep observers elsewhere.
  spec.analyses =
      engine::kPathLength | engine::kCriticalPath | engine::kScaledCP;
  spec.gcc12Analyses = engine::kWindowedCP | engine::kDepDistance;
  spec.windowSizes = WindowedCPAnalyzer::paperWindowSizes();
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  verify::FaultBoundary boundary(std::cout);

  // Render-side loads (the "Latencies:" header); execution loads its own
  // copies from the spec, wherever the cells actually run.
  std::optional<uarch::CoreModel> tx2;
  std::optional<uarch::CoreModel> riscvTx2;
  boundary.run("load-config/tx2", [&] {
    tx2 = uarch::CoreModel::fromFile(spec.configDir + "/tx2.yaml");
  });
  boundary.run("load-config/riscv-tx2", [&] {
    riscvTx2 = uarch::CoreModel::fromFile(spec.configDir + "/riscv-tx2.yaml");
  });

  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "Paper reproduction: all four experiments from one "
               "simulation pass per cell\n"
            << "(E1 path lengths, E2 critical paths, E3 scaled critical "
               "paths, E4 windowed ILP).\n"
            << "Workload sizes are laptop-scale; compare ratios and trends, "
               "not absolute counts.\n\n";

  // ---- E1: path lengths (Figure 1 / Table 1) ----------------------------
  std::cout << "---- E1: path lengths per kernel (paper Figure 1) ----\n\n";
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
      std::cout << "GCC 12.2 RISC-V vs AArch64 path-length ratio (geomean): "
                << sigFigs(geomean, 4) << "  (paper: average +2.3% for "
                << "RISC-V)\n";
    }
    std::cout << "\n";
  }

  // ---- E2: critical paths (Table 1) -------------------------------------
  std::cout << "---- E2: critical paths and ILP (paper Table 1) ----\n\n";
  renderCriticalPaths(std::cout, grid, shape);

  // ---- E3: scaled critical paths (Table 2) ------------------------------
  std::cout << "---- E3: scaled critical paths (paper Table 2) ----\n";
  if (tx2 && riscvTx2) {
    std::cout << "Latencies: " << tx2->name << " / " << riscvTx2->name
              << "\n";
  }
  std::cout << "\n";
  renderScaledCriticalPaths(std::cout, grid, shape);

  // ---- E4: windowed ILP (Figure 2, GCC 12.2 columns) --------------------
  std::cout << "---- E4: windowed critical-path mean ILP (paper Figure 2, "
               "GCC 12.2 binaries) ----\n\n";
  // Configs 2 and 3 of the paper grid are the GCC 12.2 pair.
  renderWindowedIlp(std::cout, grid, shape, spec.windowSizes, 2, 3);

  printFailureFooter(grid, std::cout);
  std::cout << run.footer << "\n";
  return boundary.finish();
}
