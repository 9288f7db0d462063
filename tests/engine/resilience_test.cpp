// Resilient execution (ISSUE 6): deterministic retry backoff, the deadline
// watchdog, the forked worker pool, and the engine-level deadline / crash
// isolation / journal-resume contracts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/cell_codec.hpp"
#include "engine/engine.hpp"
#include "engine/process_worker.hpp"
#include "engine/watchdog.hpp"
#include "support/fault.hpp"

namespace riscmp::engine {
namespace {

/// Kill the calling (child) process with SIGSEGV. The default action is
/// restored first: under ASan the sanitizer's own handler would turn the
/// signal into a plain exit, and the tests assert death by the signal.
void dieBySegfault() {
  std::signal(SIGSEGV, SIG_DFL);
  std::raise(SIGSEGV);
}

namespace fs = std::filesystem;

std::vector<Config> gcc12Pair() {
  return {{Arch::AArch64, kgen::CompilerEra::Gcc12},
          {Arch::Rv64, kgen::CompilerEra::Gcc12}};
}

fs::path freshTempDir() {
  const fs::path dir =
      fs::temp_directory_path() /
      ("riscmp-resilience-" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---- retry backoff schedule ----------------------------------------------

TEST(RetryBackoff, AttemptZeroRunsImmediately) {
  EXPECT_EQ(retryBackoffDelayMs(100, 42, 3, 0), 0u);
}

TEST(RetryBackoff, DoublesPerAttemptWithBoundedJitter) {
  for (unsigned attempt = 1; attempt <= 3; ++attempt) {
    const std::uint64_t delay = retryBackoffDelayMs(100, 42, 3, attempt);
    const std::uint64_t base = std::uint64_t{100} << (attempt - 1);
    EXPECT_GE(delay, base) << "attempt " << attempt;
    EXPECT_LT(delay, base + 100) << "attempt " << attempt;
  }
}

TEST(RetryBackoff, ScheduleIsDeterministic) {
  // Same (seed, task, attempt) -> same delay: retried runs replay the same
  // wall-clock schedule, which keeps logs and tests reproducible.
  EXPECT_EQ(retryBackoffDelayMs(100, 7, 5, 2), retryBackoffDelayMs(100, 7, 5, 2));
  EXPECT_EQ(retryBackoffDelayMs(50, 123, 0, 1), retryBackoffDelayMs(50, 123, 0, 1));
}

// ---- watchdog -------------------------------------------------------------

TEST(WatchdogTest, ZeroDeadlineReturnsUnarmedToken) {
  Watchdog watchdog;
  const Watchdog::Token token = watchdog.arm(0);
  EXPECT_EQ(token.flag(), nullptr);
}

TEST(WatchdogTest, ExpiredDeadlineSetsFlagToDeadlineMs) {
  Watchdog watchdog;
  const Watchdog::Token token = watchdog.arm(20);
  ASSERT_NE(token.flag(), nullptr);
  EXPECT_EQ(token.flag()->load(), 0u);  // not expired yet at arm time
  const auto start = std::chrono::steady_clock::now();
  while (token.flag()->load() == 0 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(token.flag()->load(), 20u);
}

// ---- forked worker pool ---------------------------------------------------

TEST(ProcessWorker, DeliversPayloadsFromAllWorkers) {
  ProcessPoolOptions options;
  options.jobs = 2;
  std::map<std::size_t, WorkerOutcome> outcomes;
  const std::vector<std::size_t> skipped = runForkedCells(
      4, options,
      [](std::size_t task) { return "payload-" + std::to_string(task); },
      [&](std::size_t task, const WorkerOutcome& outcome) {
        outcomes[task] = outcome;
        return true;
      });
  EXPECT_TRUE(skipped.empty());
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::size_t task = 0; task < 4; ++task) {
    EXPECT_EQ(outcomes[task].status, WorkerOutcome::Status::Payload);
    EXPECT_EQ(outcomes[task].payload, "payload-" + std::to_string(task));
    EXPECT_EQ(outcomes[task].attempt, 0u);
  }
}

TEST(ProcessWorker, CapturesSegfaultAsCrashedWithSignal) {
  ProcessPoolOptions options;
  options.jobs = 2;
  std::map<std::size_t, WorkerOutcome> outcomes;
  runForkedCells(
      2, options,
      [](std::size_t task) -> std::string {
        if (task == 0) dieBySegfault();
        return "ok";
      },
      [&](std::size_t task, const WorkerOutcome& outcome) {
        outcomes[task] = outcome;
        return outcome.status == WorkerOutcome::Status::Payload;
      });
  EXPECT_EQ(outcomes[0].status, WorkerOutcome::Status::Crashed);
  EXPECT_EQ(outcomes[0].signo, SIGSEGV);
  EXPECT_EQ(outcomes[1].status, WorkerOutcome::Status::Payload);
}

TEST(ProcessWorker, CapturesSilentExitAsCrashedWithCode) {
  ProcessPoolOptions options;
  std::map<std::size_t, WorkerOutcome> outcomes;
  runForkedCells(
      1, options,
      [](std::size_t) -> std::string {
        _exit(7);  // no payload, no signal: still a captured failure
      },
      [&](std::size_t task, const WorkerOutcome& outcome) {
        outcomes[task] = outcome;
        return false;
      });
  EXPECT_EQ(outcomes[0].status, WorkerOutcome::Status::Crashed);
  EXPECT_EQ(outcomes[0].signo, 0);
  EXPECT_EQ(outcomes[0].exitCode, 7);
}

TEST(ProcessWorker, KillsHungWorkerAtDeadline) {
  ProcessPoolOptions options;
  options.jobs = 2;
  options.deadlineMs = 150;
  std::map<std::size_t, WorkerOutcome> outcomes;
  runForkedCells(
      2, options,
      [](std::size_t task) -> std::string {
        if (task == 0) {
          for (;;) pause();  // wedged outside any cooperative check
        }
        return "ok";
      },
      [&](std::size_t task, const WorkerOutcome& outcome) {
        outcomes[task] = outcome;
        return outcome.status == WorkerOutcome::Status::Payload;
      });
  EXPECT_EQ(outcomes[0].status, WorkerOutcome::Status::TimedOut);
  EXPECT_EQ(outcomes[1].status, WorkerOutcome::Status::Payload);
}

TEST(ProcessWorker, RetriesTransientCrashUntilSuccess) {
  const fs::path dir = freshTempDir();
  const fs::path marker = dir / "crashed-once";
  ProcessPoolOptions options;
  options.retries = 2;
  options.backoffBaseMs = 1;
  std::map<std::size_t, WorkerOutcome> outcomes;
  runForkedCells(
      1, options,
      [&](std::size_t) -> std::string {
        if (!fs::exists(marker)) {
          std::ofstream(marker) << "x";
          std::raise(SIGKILL);
        }
        return "recovered";
      },
      [&](std::size_t task, const WorkerOutcome& outcome) {
        outcomes[task] = outcome;
        return outcome.status == WorkerOutcome::Status::Payload;
      });
  EXPECT_EQ(outcomes[0].status, WorkerOutcome::Status::Payload);
  EXPECT_EQ(outcomes[0].payload, "recovered");
  EXPECT_GE(outcomes[0].attempt, 1u);  // first attempt died on SIGKILL
  fs::remove_all(dir);
}

TEST(ProcessWorker, FailFastSkipsTasksAfterFirstFailure) {
  ProcessPoolOptions options;
  options.jobs = 1;  // serial, so the failure deterministically comes first
  options.failFast = true;
  std::map<std::size_t, WorkerOutcome> outcomes;
  const std::vector<std::size_t> skipped = runForkedCells(
      4, options,
      [](std::size_t task) -> std::string {
        if (task == 0) dieBySegfault();
        return "ok";
      },
      [&](std::size_t task, const WorkerOutcome& outcome) {
        outcomes[task] = outcome;
        return outcome.status == WorkerOutcome::Status::Payload;
      });
  EXPECT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(skipped, (std::vector<std::size_t>{1, 2, 3}));
}

// ---- engine-level contracts ----------------------------------------------

TEST(Resilience, ThreadModeDeadlineRaisesTimeoutFault) {
  EngineOptions options;
  options.jobs = 2;
  options.budget = 0;  // unlimited: the deadline, not the budget, must fire
  options.analyses = kPathLength;
  options.deadlineSeconds = 0.001;
  ExperimentEngine eng(options);
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back(
      {"stream-xl", workloads::makeStream({.n = 2048, .reps = 500})});
  const GridResult grid = eng.runGrid(suite, gcc12Pair());
  ASSERT_EQ(grid.cells.size(), 2u);
  EXPECT_TRUE(grid.anyFailed());
  for (const CellResult& cell : grid.cells) {
    EXPECT_FALSE(cell.cell.ok);
    EXPECT_EQ(cell.cell.kind, "TimeoutFault");
    EXPECT_NE(cell.cell.summary.find("wall-clock deadline exceeded (1 ms)"),
              std::string::npos);
    // Cooperative cancellation unwinds through the machine, so the report
    // carries full machine context like any taxonomy fault.
    EXPECT_NE(cell.faultText.find("=== FAULT REPORT: TimeoutFault ==="),
              std::string::npos);
  }
}

TEST(Resilience, ProcessIsolationCapturesCrashAndContinues) {
  EngineOptions options;
  options.jobs = 2;
  options.analyses = kPathLength;
  options.isolate = IsolationMode::Process;
  options.cellSetup = [](const CellKey& key) {
    if (key.workload == "crashy") dieBySegfault();
  };
  ExperimentEngine eng(options);
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back({"crashy", workloads::makeStream({.n = 32, .reps = 1})});
  suite.push_back({"healthy", workloads::makeStream({.n = 64, .reps = 1})});
  const GridResult grid = eng.runGrid(suite, gcc12Pair());
  ASSERT_EQ(grid.cells.size(), 4u);
  for (std::size_t c = 0; c < 2; ++c) {
    const CellResult& crashed = grid.at(0, c);
    EXPECT_FALSE(crashed.cell.ok);
    EXPECT_EQ(crashed.cell.kind, "CrashFault");
    EXPECT_NE(crashed.cell.summary.find("killed by SIGSEGV (signal 11)"),
              std::string::npos);
    EXPECT_NE(crashed.cell.summary.find(crashed.cell.name),
              std::string::npos);  // the fault names the cell
    const CellResult& healthy = grid.at(1, c);
    EXPECT_TRUE(healthy.cell.ok);  // the grid survived the worker's death
    EXPECT_GT(healthy.instructions, 0u);
  }
  EXPECT_TRUE(grid.anyFailed());
}

TEST(Resilience, ProcessIsolationRetriesTransientCrash) {
  const fs::path dir = freshTempDir();
  const fs::path marker = dir / "crashed-once";
  EngineOptions options;
  options.jobs = 1;
  options.analyses = kPathLength;
  options.isolate = IsolationMode::Process;
  options.retries = 1;
  options.retryBackoffMs = 1;
  options.cellSetup = [marker](const CellKey& key) {
    if (key.workload == "flaky" && !fs::exists(marker)) {
      std::ofstream(marker) << "x";
      dieBySegfault();
    }
  };
  ExperimentEngine eng(options);
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back({"flaky", workloads::makeStream({.n = 32, .reps = 1})});
  const GridResult grid =
      eng.runGrid(suite, {{Arch::Rv64, kgen::CompilerEra::Gcc12}});
  ASSERT_EQ(grid.cells.size(), 1u);
  EXPECT_TRUE(grid.cells[0].cell.ok) << grid.cells[0].cell.summary;
  EXPECT_GT(grid.cells[0].instructions, 0u);
  fs::remove_all(dir);
}

TEST(Resilience, FailFastMarksUnstartedCellsSkipped) {
  EngineOptions options;
  options.jobs = 1;  // serial: the failing cell deterministically runs first
  options.analyses = kPathLength;
  options.failFast = true;
  options.cellSetup = [](const CellKey& key) {
    if (key.workloadIndex == 0 && key.configIndex == 0) {
      throw ConfigError("injected failure", "resilience_test");
    }
  };
  ExperimentEngine eng(options);
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back({"stream-a", workloads::makeStream({.n = 32, .reps = 1})});
  suite.push_back({"stream-b", workloads::makeStream({.n = 32, .reps = 1})});
  const GridResult grid = eng.runGrid(suite, gcc12Pair());
  ASSERT_EQ(grid.cells.size(), 4u);
  EXPECT_FALSE(grid.cells[0].cell.ok);
  EXPECT_EQ(grid.cells[0].cell.kind, "ConfigError");
  for (std::size_t i = 1; i < grid.cells.size(); ++i) {
    EXPECT_FALSE(grid.cells[i].cell.ok);
    EXPECT_EQ(grid.cells[i].cell.kind, "skipped");
    EXPECT_NE(grid.cells[i].cell.summary.find("--fail-fast"),
              std::string::npos);
  }
}

TEST(Resilience, ResumeReusesEveryCompletedCell) {
  const fs::path dir = freshTempDir();
  const std::string journal = (dir / "run.jsonl").string();
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back({"stream-a", workloads::makeStream({.n = 64, .reps = 1})});
  suite.push_back({"stream-b", workloads::makeStream({.n = 200, .reps = 2})});
  const std::vector<Config> configs = gcc12Pair();

  EngineOptions options;
  options.jobs = 2;
  options.journalPath = journal;
  ExperimentEngine first(options);
  const GridResult fresh = first.runGrid(suite, configs);
  ASSERT_EQ(fresh.cells.size(), 4u);
  EXPECT_FALSE(fresh.anyFailed());

  EngineOptions resumeOptions = options;
  resumeOptions.resumeFrom = journal;
  ExperimentEngine second(resumeOptions);
  const GridResult resumed = second.runGrid(suite, configs);

  EXPECT_EQ(second.stats().resumed, 4u);
  EXPECT_EQ(second.stats().simulations, 0u);  // nothing re-executed
  ASSERT_EQ(resumed.cells.size(), fresh.cells.size());
  for (std::size_t i = 0; i < fresh.cells.size(); ++i) {
    // Bit-exact reuse, doubles included — the codec round-trip guarantee.
    EXPECT_EQ(cellDigest(resumed.cells[i]), cellDigest(fresh.cells[i]));
  }
  fs::remove_all(dir);
}

TEST(Resilience, ResumeRerunsCellsWhoseModuleChanged) {
  const fs::path dir = freshTempDir();
  const std::string journal = (dir / "run.jsonl").string();
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back({"stream-a", workloads::makeStream({.n = 64, .reps = 1})});
  suite.push_back({"stream-b", workloads::makeStream({.n = 200, .reps = 2})});
  const std::vector<Config> configs = gcc12Pair();

  EngineOptions options;
  options.jobs = 2;
  options.journalPath = journal;
  ExperimentEngine first(options);
  const GridResult fresh = first.runGrid(suite, configs);
  ASSERT_EQ(fresh.cells.size(), 4u);
  EXPECT_FALSE(fresh.anyFailed());

  // Same name, same grid identity, different kernel: only the compile
  // fingerprint in each journal entry tells the old cells apart.
  suite[1].module = workloads::makeStream({.n = 96, .reps = 2});
  EngineOptions resumeOptions = options;
  resumeOptions.resumeFrom = journal;
  ExperimentEngine second(resumeOptions);
  const GridResult resumed = second.runGrid(suite, configs);

  EXPECT_EQ(second.stats().resumed, 2u);
  EXPECT_EQ(second.stats().simulations, 2u);
  ASSERT_EQ(resumed.cells.size(), 4u);
  EXPECT_FALSE(resumed.anyFailed());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(cellDigest(resumed.cells[i]), cellDigest(fresh.cells[i]));
  }
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_LT(resumed.cells[i].instructions, fresh.cells[i].instructions)
        << "cell " << i << " was resumed from the n=200 kernel";
  }
  fs::remove_all(dir);
}

TEST(Resilience, ResumeRejectsJournalFromDifferentGrid) {
  const fs::path dir = freshTempDir();
  const std::string journal = (dir / "run.jsonl").string();
  std::vector<workloads::WorkloadSpec> suite;
  suite.push_back({"stream-a", workloads::makeStream({.n = 64, .reps = 1})});
  const std::vector<Config> configs = gcc12Pair();

  EngineOptions options;
  options.journalPath = journal;
  ExperimentEngine first(options);
  (void)first.runGrid(suite, configs);

  EngineOptions mismatched = options;
  mismatched.resumeFrom = journal;
  mismatched.journalPath.clear();
  mismatched.budget = 12345;  // different grid identity
  ExperimentEngine second(mismatched);
  EXPECT_THROW((void)second.runGrid(suite, configs), ConfigError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace riscmp::engine
