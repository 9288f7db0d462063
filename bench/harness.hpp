// Shared command-line surface of the per-table/figure bench binaries.
//
// Simulation itself lives in the parallel experiment engine (src/engine):
// every workload × era × ISA cell is compiled at most once, simulated
// exactly once on a worker pool (--jobs=N), and all enabled analyses
// observe that single pass. The benches here are pure report
// generators over engine::CellResults; each cell still runs inside a
// verify::FaultBoundary so one failing cell prints its FaultReport and the
// run continues, and every simulated program runs under an instruction
// budget (--budget=N) so a codegen regression cannot hang CI.
//
// Flags are read through one Flags table (flags.hpp): this header declares
// the flags several binaries share (--scale, --jobs, the engine set, and
// --via/--store in runGridSpec), each binary reads its own beside them,
// and one Flags::finish() after the last read rejects the rest.
#pragma once

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "flags.hpp"
#include "engine/cell_codec.hpp"
#include "engine/engine.hpp"
#include "engine/grid_spec.hpp"
#include "engine/result_store.hpp"
#include "engine/service.hpp"
#include "support/atomic_file.hpp"
#include "support/json_lite.hpp"
#include "verify/boundary.hpp"
#include "workloads/workloads.hpp"

namespace riscmp::bench {

using engine::Config;
using engine::configName;
using engine::kDefaultInstructionBudget;
using engine::paperConfigs;

/// "--scale=F": workload size factor (default 1.0). Zero, negative and
/// non-finite scales produce degenerate or empty workloads whose ratios
/// are nonsense.
inline double scaleFlag(Flags& flags) {
  return flags.number(
      "scale", 1.0, [](double s) { return std::isfinite(s) && s > 0.0; },
      "a positive number");
}

/// "--jobs=N": worker threads. Absent means 0, which the engine resolves
/// to hardware_concurrency; an explicit 0 is a usage error (a pool of zero
/// workers can run nothing).
inline unsigned jobsFlag(Flags& flags) {
  return flags.number(
      "jobs", 0u, [](unsigned n) { return n > 0; },
      "a positive worker count");
}

/// Test/CI hook: "--inject-fault=<substr>:<segv|abort|hang|kill>" makes
/// every cell whose name contains <substr> misbehave before compilation —
/// inside the cell's fault boundary, and (because EngineOptions::cellSetup
/// is inherited across fork) inside process-isolated workers too. This is
/// how the crash-recovery tests produce a real SIGSEGV/SIGKILL/hang in an
/// otherwise stock bench binary.
inline std::function<void(const engine::CellKey&)> faultInjection(
    const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  const std::string substr =
      colon == std::string::npos ? "" : spec.substr(0, colon);
  const std::string mode =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (substr.empty() || (mode != "segv" && mode != "abort" &&
                         mode != "hang" && mode != "kill")) {
    exitWithError("--inject-fault needs <substr>:<segv|abort|hang|kill>, "
                  "got '" + spec + "'");
  }
  return [substr, mode](const engine::CellKey& key) {
    const std::string name =
        key.workload + "/" + engine::configName(key.config);
    if (name.find(substr) == std::string::npos) return;
    if (mode == "segv") {
      volatile int* p = nullptr;
      *p = 1;  // NOLINT: deliberate SIGSEGV under test
    } else if (mode == "abort") {
      std::abort();
    } else if (mode == "kill") {
      std::raise(SIGKILL);
    } else {  // hang: wedge outside the simulator loop, where only the
              // process-isolation deadline can reach it
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  };
}

/// Baseline EngineOptions shared by the benches: jobs, budget, and the
/// resilience flags (--deadline / --retries / --retry-backoff-ms /
/// --isolate / --fail-fast / --journal / --resume / --inject-fault) from
/// the command line, everything else per-bench.
inline engine::EngineOptions engineOptions(Flags& flags) {
  engine::EngineOptions options;
  options.jobs = jobsFlag(flags);
  options.budget = flags.number("budget", kDefaultInstructionBudget);
  // Per-cell wall-clock deadline in (fractional) seconds; 0 = none.
  options.deadlineSeconds = flags.number(
      "deadline", 0.0, [](double s) { return std::isfinite(s) && s >= 0.0; },
      "a non-negative number of seconds");
  // Extra attempts for transient failures (timeouts; worker crashes under
  // --isolate=process), with a backoff base that doubles per attempt plus
  // seeded jitter; 0 ms disables the wait, which keeps tests fast.
  options.retries = flags.number("retries", 0u);
  options.retryBackoffMs = flags.number("retry-backoff-ms", 100u);
  // Where cells execute: threads, or one forked worker per cell so crashes
  // and hangs are contained as CrashFault/TimeoutFault records.
  const std::string isolate = flags.text("isolate").value_or("thread");
  if (isolate == "process") {
    options.isolate = engine::IsolationMode::Process;
  } else if (isolate != "thread") {
    exitWithError("--isolate must be 'thread' or 'process', got '" +
                  isolate + "'");
  }
  options.failFast = flags.isSet("fail-fast");
  options.journalPath = flags.path("journal");
  options.resumeFrom = flags.path("resume");
  if (const std::optional<std::string> spec = flags.text("inject-fault")) {
    options.cellSetup = faultInjection(*spec);
  }
  return options;
}

/// Table mark for a failed grid cell: "✗(CrashFault)", "✗(skipped)", ...
/// The kind in parentheses is the fault taxonomy's stable string form.
inline std::string failedCellMark(const engine::CellResult& cell) {
  return "✗(" + (cell.cell.kind.empty() ? std::string("failed")
                                        : cell.cell.kind) +
         ")";
}

/// Footer for partial reports: one line per failed cell, after the tables
/// so a reader sees immediately which numbers are missing and why. Prints
/// nothing when every cell completed.
inline void printFailureFooter(const engine::GridResult& grid,
                               std::ostream& out) {
  if (!grid.anyFailed()) return;
  std::size_t failed = 0;
  for (const engine::CellResult& cell : grid.cells) {
    if (!cell.cell.ok) ++failed;
  }
  out << "PARTIAL REPORT: " << failed << "/" << grid.cells.size()
      << " cells failed; their rows are marked ✗(<fault>).\n";
  for (const engine::CellResult& cell : grid.cells) {
    if (cell.cell.ok) continue;
    out << "  ✗ " << cell.key.workload << "/" << configName(cell.key.config)
        << " — " << (cell.cell.kind.empty() ? "failed" : cell.cell.kind)
        << ": " << cell.cell.summary << "\n";
  }
  out << "\n";
}

/// Shared artifact writer: stage-and-rename so a killed run never leaves a
/// truncated file, with the benches' established error/echo lines. Returns
/// false after printing the error (callers exit 2).
inline bool writeJsonArtifact(const std::string& path,
                              const std::string& content) {
  std::string writeError;
  if (!support::writeFileAtomic(path, content, &writeError)) {
    std::cerr << "error: cannot write " << path << ": " << writeError
              << "\n";
    return false;
  }
  std::cout << "JSON written to " << path << "\n";
  return true;
}

/// One executed grid, however it was executed: the cells plus the footer
/// line the bench prints last ("engine: ..." locally, "service: ..." when
/// a daemon ran the cells). Everything between header and footer renders
/// from the cells alone, which is what makes the two modes byte-identical
/// up to that final line.
struct GridRun {
  engine::GridResult grid;
  std::string footer;
  bool viaSocket = false;
};

/// Execute `spec` per the command line, then audit it (Flags::finish):
/// locally (default, honoring every engine execution flag plus an optional
/// --store=DIR read/write-through result store) or via a simd daemon
/// ("--via=socket:<path>", which owns execution policy and store).
inline GridRun runGridSpec(engine::GridSpec spec, Flags& flags) {
  const engine::EngineOptions base = engineOptions(flags);
  // --budget is part of every cell's identity (it caps the simulated
  // stream), so it must travel inside the spec the daemon fingerprints,
  // not just in the local EngineOptions.
  spec.budget = base.budget;
  const std::string via = flags.text("via").value_or("local");
  const std::string socketPath =
      via.starts_with("socket:") ? via.substr(7) : std::string();
  if (via != "local" && socketPath.empty()) {
    exitWithError("--via must be 'local' or 'socket:<path>', got '" + via +
                  "'");
  }
  const std::string storeRoot = flags.path("store");
  flags.finish();

  GridRun run;
  if (socketPath.empty()) {
    engine::ResolvedGrid resolved = engine::resolveGridSpec(spec, base);
    if (!storeRoot.empty()) {
      resolved.options.resultStore =
          std::make_shared<engine::ResultStore>(storeRoot);
    }
    engine::ExperimentEngine eng(resolved.options);
    run.grid = eng.runGrid(resolved.suite, resolved.configs);
    run.footer = engine::describe(eng.stats());
    return run;
  }

  run.viaSocket = true;
  support::JsonValue request = support::JsonValue::object();
  request.set("type", support::JsonValue("grid"));
  request.set("spec", engine::gridSpecToJson(spec));
  std::string reply;
  try {
    reply = engine::requestOverSocket(socketPath, request.dump());
  } catch (const Fault& fault) {
    exitWithError(fault.what());
  }
  const std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(reply);
  if (!doc) exitWithError("malformed simd reply");
  try {
    const std::string type = doc->at("type").asString();
    if (type == "error") {
      exitWithError("simd: " + doc->at("message").asString());
    }
    if (type != "grid" || doc->at("v").asUint() != engine::kGridSpecV) {
      exitWithError("unexpected simd reply type '" + type + "'");
    }
    run.grid.workloadCount = doc->at("workloads").asUint();
    run.grid.configCount = doc->at("configs").asUint();
    const auto& cells = doc->at("cells").items();
    if (cells.size() != run.grid.workloadCount * run.grid.configCount) {
      exitWithError("simd reply cell count mismatch");
    }
    run.grid.cells.reserve(cells.size());
    for (const support::JsonValue& cell : cells) {
      run.grid.cells.push_back(engine::decodeCell(cell));
    }
    const support::JsonValue& stats = doc->at("stats");
    std::ostringstream footer;
    footer << "service: " << stats.at("cells").asUint() << " cells ("
           << stats.at("store_hits").asUint() << " store hits), "
           << stats.at("compiles").asUint() << " compiles (+"
           << stats.at("compile_hits").asUint() << " cached), "
           << stats.at("simulations").asUint() << " simulations";
    run.footer = footer.str();
  } catch (const Fault& fault) {
    exitWithError(std::string("malformed simd reply: ") + fault.what());
  }
  return run;
}

}  // namespace riscmp::bench
