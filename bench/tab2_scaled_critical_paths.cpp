// Experiment E3 — Table 2: scaled critical paths.
//
// Same chain analysis as E2, but each non-memory instruction contributes
// its ThunderX2-model execution latency instead of 1 (paper §5.1; loads and
// stores stay at 1 under the store-forwarding assumption). AArch64 uses the
// tx2 model, RISC-V the derived riscv-tx2 model, exactly as the paper.
// The scaled and basic chains are both observers on the engine's single
// simulation pass per cell.
//
// Core models load inside the fault boundary; when a model is broken the
// engine's per-cell setup hook turns that into a ConfigError for exactly
// the cells that need it, the rest of the run completes, and the exit code
// is non-zero.
#include <iostream>
#include <optional>

#include "harness.hpp"
#include "paper_sections.hpp"
#include "uarch/core_model.hpp"

using namespace riscmp;
using namespace riscmp::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configDir = flags.text("config-dir").value_or(uarch::configDir());
  spec.analyses = engine::kCriticalPath | engine::kScaledCP;
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;  // a broken model fails its cells, loudly
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

  std::cout << "E3: scaled critical paths (paper Table 2)\n";
  if (tx2 && riscvTx2) {
    std::cout << "Latencies: " << tx2->name << " / " << riscvTx2->name
              << "\n";
  }
  std::cout << "\n";

  renderScaledCriticalPaths(std::cout, grid, shape);
  std::cout << "Paper scaling factors: miniBUDE ~3.5x, minisweep ~6x, "
               "STREAM ~6x (§5.2); ours depend on which chain dominates\n"
               "after scaling — see EXPERIMENTS.md for the comparison.\n";
  printFailureFooter(grid, std::cout);
  std::cout << run.footer << "\n";
  return boundary.finish();
}
