// The benchmark's workloads and its outside-in layer ladder.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/grid_spec.hpp"

namespace perfbench {

/// One stack's grid resolved through engine::resolveGridSpec, split into
/// one-cell grids so each op is a single ExperimentEngine::runGrid call on
/// one cell (jobs=1, no result store).
struct CellGrid {
  explicit CellGrid(Stack stack);

  [[nodiscard]] std::size_t size() const { return suites.size(); }
  /// A fresh engine over this grid's options, single-threaded.
  [[nodiscard]] std::unique_ptr<riscmp::engine::ExperimentEngine> makeEngine()
      const;
  /// Compile every cell into `engine`'s compile cache.
  void compileAll(riscmp::engine::ExperimentEngine& engine) const;
  /// Run cell `index` as one op; the result is that one-cell grid's cell.
  riscmp::engine::CellResult run(riscmp::engine::ExperimentEngine& engine,
                                 std::size_t index) const;

  Stack stack;
  riscmp::engine::ResolvedGrid resolved;
  std::vector<std::vector<riscmp::workloads::WorkloadSpec>> suites;
  std::vector<std::vector<riscmp::engine::Config>> configs;
};

/// A grid with its engine, compiled and warmed up: what a `*_cells` run
/// sets up before its timed phase.
struct CellSetUp {
  std::unique_ptr<CellGrid> grid;
  std::unique_ptr<riscmp::engine::ExperimentEngine> engine;
  bool ok = true;  ///< every warm-up result matched its golden digest
};

/// Resolve the grid, build the engine, compile every cell, and warm up on
/// one cheap cell per ISA. `setup` mode runs this in a child process, which
/// is how setup_s is timed.
CellSetUp setUpCells(Stack stack, const Golden& golden);

/// The `paper_cells` / `uarch_cells` workloads.
Result runCells(Stack stack, const Args& args, const Golden& golden);

/// The `service_mixed` workload against a spawned simd daemon.
Result runService(const Args& args, const Golden& golden);

/// The traced run: every layer timed through its own public functions.
Result runLadder(const Args& args, const Golden& golden);

/// `golden` mode: print the digest lines of every cell of every stack.
void printGolden();

/// Round trips of `count` warm grid requests to a daemon started (and
/// populated) on a fresh store under `dir`, in ms.
std::vector<double> daemonWarmRtts(const Args& args, const std::string& dir,
                                   int count);

/// Decode a service grid reply and check every cell against the golden
/// digests; the cells' total instruction count, or nullopt when the reply
/// is an error, malformed, incomplete, or any cell is wrong.
std::optional<std::uint64_t> checkGridReply(const std::string& reply,
                                            const Golden& golden);

/// Request lines for the service stack (warm: the stored grid; cold: the
/// same grid under a budget no earlier request used).
std::string gridRequest(std::uint64_t budget);

}  // namespace perfbench
