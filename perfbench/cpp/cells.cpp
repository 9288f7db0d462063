// paper_cells / uarch_cells: one cell per op, jobs=1, one engine per run.
#include <algorithm>
#include <iostream>
#include <numeric>
#include <random>

#include "workloads.hpp"

namespace perfbench {

using namespace riscmp;

namespace {

/// Set-ups per run, spread evenly over the timed phase; setup_s is the
/// fastest.
constexpr std::size_t kSetups = 9;
/// Workload whose GCC 12.2 cells, one per ISA, warm the engine after
/// compiling (one of the cheapest).
constexpr const char* kWarmupWorkload = "miniBUDE";
/// Fewest timed passes, so every cell is timed at least this often.
constexpr int kMinPasses = 3;

}  // namespace

CellGrid::CellGrid(Stack s) : stack(s) {
  engine::EngineOptions base;
  base.jobs = 1;
  resolved = engine::resolveGridSpec(stackSpec(stack), base);
  for (const workloads::WorkloadSpec& workload : resolved.suite) {
    for (const engine::Config& config : resolved.configs) {
      suites.push_back({workload});
      configs.push_back({config});
    }
  }
}

std::unique_ptr<engine::ExperimentEngine> CellGrid::makeEngine() const {
  return std::make_unique<engine::ExperimentEngine>(resolved.options);
}

void CellGrid::compileAll(engine::ExperimentEngine& engine) const {
  for (std::size_t i = 0; i < size(); ++i) {
    engine.compile(suites[i].front().module, configs[i].front());
  }
}

engine::CellResult CellGrid::run(engine::ExperimentEngine& engine,
                                 std::size_t index) const {
  engine::GridResult grid = engine.runGrid(suites[index], configs[index]);
  return std::move(grid.cells.front());
}

CellSetUp setUpCells(Stack stack, const Golden& golden) {
  CellSetUp setup;
  setup.grid = std::make_unique<CellGrid>(stack);
  setup.engine = setup.grid->makeEngine();
  setup.grid->compileAll(*setup.engine);
  for (std::size_t i = 0; i < setup.grid->size(); ++i) {
    if (setup.grid->suites[i].front().name != kWarmupWorkload ||
        setup.grid->configs[i].front().era != kgen::CompilerEra::Gcc12) {
      continue;
    }
    setup.ok = golden.check(stack, setup.grid->run(*setup.engine, i)) &&
               setup.ok;
  }
  return setup;
}

Result runCells(Stack stack, const Args& args, const Golden& golden) {
  Result result;

  // The timed phase's own set-up is untimed. setup_s times whole set-ups,
  // each in a fresh child process (start, set up, exit), run between ops
  // and spread evenly over the timed phase.
  const CellSetUp setup = setUpCells(stack, golden);
  if (!setup.ok) result.fail("wrong warm-up result");
  const CellGrid* grid = setup.grid.get();
  engine::ExperimentEngine& engine = *setup.engine;
  std::size_t setUps = 0;
  std::vector<double> setupSeconds;
  std::vector<std::string> setupArgs = {"setup", "--workload", args.workload,
                                        "--golden", args.golden};
  if (!args.injectMismatch.empty()) {
    setupArgs.insert(setupArgs.end(),
                     {"--inject-mismatch", args.injectMismatch});
  }
  const auto timeSetUp = [&] {
    ++setUps;
    if (const std::optional<double> seconds = timeSelf(setupArgs)) {
      setupSeconds.push_back(*seconds);
    } else {
      result.fail("set-up process failed");
    }
  };

  // Timed phase: whole passes over the grid, each in a fresh seeded order,
  // until --seconds have elapsed, and at least kMinPasses. Whole passes
  // keep the cell mix, and so every percentile, independent of where the
  // clock runs out.
  std::mt19937_64 rng(args.seed);
  std::vector<std::size_t> order(grid->size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::vector<double>> cellMs(grid->size());
  std::vector<std::uint64_t> cellInstructions(grid->size());
  int passes = 0;
  const Clock::time_point phase = Clock::now();
  do {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t index : order) {
      if (setUps < kSetups &&
          secondsSince(phase) >=
              args.seconds * static_cast<double>(setUps) / kSetups) {
        timeSetUp();
      }
      const Clock::time_point start = Clock::now();
      bool ok = false;
      try {
        const engine::CellResult cell = grid->run(engine, index);
        cellInstructions[index] = cell.instructions;
        ok = golden.check(stack, cell);
        if (!ok) std::cerr << "perfbench: wrong result " << cellName(cell.key)
                           << "\n";
      } catch (const std::exception& error) {
        std::cerr << "perfbench: op failed: " << error.what() << "\n";
      }
      cellMs[index].push_back(secondsSince(start) * 1e3);
      result.attempted += 1;
      result.failed += ok ? 0 : 1;
    }
    ++passes;
  } while (passes < kMinPasses || secondsSince(phase) < args.seconds);
  while (setUps < kSetups) timeSetUp();

  // Each cell's time, and setup_s, is the fastest of its samples in this
  // run. On a shared host other tenants only ever add time, in phases
  // lasting seconds to minutes; the fastest sample is the cell's own cost
  // (README.md, "Host noise"). Percentiles then run over the grid's cells.
  std::vector<double> cellTimes;
  double seconds = 0.0;
  std::uint64_t instructions = 0;
  for (std::size_t index = 0; index < grid->size(); ++index) {
    cellTimes.push_back(
        *std::min_element(cellMs[index].begin(), cellMs[index].end()));
    seconds += cellTimes.back() / 1e3;
    instructions += cellInstructions[index];
  }
  result.add("setup_s",
             setupSeconds.empty()
                 ? 0.0
                 : *std::min_element(setupSeconds.begin(), setupSeconds.end()),
             "s");
  // One pass over the grid at each cell's time.
  result.add("sim_mips", static_cast<double>(instructions) / seconds / 1e6,
             "Minst/s");
  result.add("cell_ms_p50", percentile(cellTimes, 50), "ms");
  result.add("cell_ms_p90", percentile(cellTimes, 90), "ms");
  // In-process, an op's round trip is the runGrid call itself, so these
  // repeat the cell times: p50 is cell_ms_p50, p99 lies between the two
  // slowest of the 20 cells.
  result.add("rtt_ms_p50", percentile(cellTimes, 50), "ms");
  result.add("rtt_ms_p99", percentile(cellTimes, 99), "ms");
  result.add("peak_rss_mb", selfPeakRssMb(), "MiB");
  return result;
}

}  // namespace perfbench
