// Experiment E7 — engineering microbenchmarks (google-benchmark): simulator
// front-end throughput and per-analysis overhead, per ISA. These guard the
// simulation engine's performance, which bounds feasible workload sizes.
//
// BM_RunStream{Rv64,A64} are the end-to-end MIPS benchmarks the perf-smoke
// CI step tracks: one full simulation pass with the complete paper analyzer
// stack attached (path length, CP, scaled CP, windowed CP, dep distance),
// i.e. exactly what one engine cell costs. `--json` writes the results to
// BENCH_throughput.json so the trajectory is comparable across PRs.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "aarch64/decode.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/windowed_cp.hpp"
#include "core/machine.hpp"
#include "engine/engine.hpp"
#include "kgen/compile.hpp"
#include "riscv/decode.hpp"
#include "uarch/mem/cache_model.hpp"
#include "uarch/ooo_core.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace riscmp;

const kgen::Module& streamModule() {
  static const kgen::Module module =
      workloads::makeStream({.n = 2000, .reps = 2});
  return module;
}

kgen::Compiled compiledStream(Arch arch) {
  return kgen::compile(streamModule(), arch, kgen::CompilerEra::Gcc12);
}

void BM_DecodeRv64(benchmark::State& state) {
  const auto compiled = compiledStream(Arch::Rv64);
  std::size_t index = 0;
  for (auto _ : state) {
    const auto inst = rv64::decode(
        compiled.program.code[index++ % compiled.program.code.size()]);
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_DecodeRv64);

void BM_DecodeA64(benchmark::State& state) {
  const auto compiled = compiledStream(Arch::AArch64);
  std::size_t index = 0;
  for (auto _ : state) {
    const auto inst = a64::decode(
        compiled.program.code[index++ % compiled.program.code.size()]);
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_DecodeA64);

void runEmulation(benchmark::State& state, Arch arch,
                  std::vector<TraceObserver*> observers) {
  const auto compiled = compiledStream(arch);
  // Budgeted like the bench targets: a codegen regression that loops
  // forever turns into a BudgetExceeded fault instead of a hung run.
  MachineOptions options;
  options.maxInstructions = 1'000'000'000;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    Machine machine(compiled.program, options);
    for (TraceObserver* observer : observers) machine.addObserver(*observer);
    instructions += machine.run().instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}

void BM_EmulateRv64(benchmark::State& state) {
  runEmulation(state, Arch::Rv64, {});
}
BENCHMARK(BM_EmulateRv64);

void BM_EmulateA64(benchmark::State& state) {
  runEmulation(state, Arch::AArch64, {});
}
BENCHMARK(BM_EmulateA64);

void BM_EmulateWithCriticalPath(benchmark::State& state) {
  CriticalPathAnalyzer analyzer;
  runEmulation(state, Arch::Rv64, {&analyzer});
}
BENCHMARK(BM_EmulateWithCriticalPath);

void BM_EmulateWithWindowedCp(benchmark::State& state) {
  WindowedCPAnalyzer analyzer(WindowedCPAnalyzer::paperWindowSizes());
  runEmulation(state, Arch::Rv64, {&analyzer});
}
BENCHMARK(BM_EmulateWithWindowedCp);

void BM_EmulateWithOoOCore(benchmark::State& state) {
  uarch::OoOCoreModel core(uarch::CoreModel::named("riscv-tx2"));
  runEmulation(state, Arch::Rv64, {&core});
}
BENCHMARK(BM_EmulateWithOoOCore);

/// End-to-end engine-cell shape: a fresh Machine and a fresh paper
/// analyzer stack per iteration, built by the engine's own CellObservers,
/// so one simulation pass feeds path length plus the four CP-family
/// analyses through one shared dependency front end. The items/sec counter
/// is simulated instructions per second (MIPS ÷ 1e6).
void runStreamEndToEnd(benchmark::State& state, Arch arch) {
  const auto compiled = compiledStream(arch);
  const LatencyTable latencies =
      uarch::CoreModel::named(arch == Arch::Rv64 ? "riscv-tx2" : "tx2")
          .latencies;
  engine::EngineOptions engineOptions;
  engineOptions.analyses = engine::kPathLength | engine::kCriticalPath |
                           engine::kScaledCP | engine::kWindowedCP |
                           engine::kDepDistance;
  engineOptions.latenciesFor = [&](Arch) { return &latencies; };
  MachineOptions options;
  options.maxInstructions = 1'000'000'000;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    engine::CellObservers cell(engineOptions, engineOptions.analyses, arch,
                               compiled.program);
    Machine machine(compiled.program, options);
    for (TraceObserver* observer : cell.observers()) {
      machine.addObserver(*observer);
    }
    instructions += machine.run().instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}

void BM_RunStreamRv64(benchmark::State& state) {
  runStreamEndToEnd(state, Arch::Rv64);
}
BENCHMARK(BM_RunStreamRv64);

void BM_RunStreamA64(benchmark::State& state) {
  runStreamEndToEnd(state, Arch::AArch64);
}
BENCHMARK(BM_RunStreamA64);

/// Cache-model overhead on the STREAM trace (ISSUE 5): Arg(0) runs the
/// bare emulation, Arg(1) attaches the L1/L2 MPKI observer with the
/// shipped riscv-tx2 geometry, so BM_CacheModel/1 ÷ BM_CacheModel/0 is the
/// per-instruction cost of the memory hierarchy.
void BM_CacheModel(benchmark::State& state) {
  const auto compiled = compiledStream(Arch::Rv64);
  const uarch::mem::CacheConfig caches =
      *uarch::CoreModel::named("riscv-tx2").caches;
  MachineOptions options;
  options.maxInstructions = 1'000'000'000;
  const bool attached = state.range(0) != 0;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    std::optional<uarch::mem::CacheModelAnalyzer> analyzer;
    Machine machine(compiled.program, options);
    if (attached) {
      analyzer.emplace(caches, compiled.program);
      machine.addObserver(*analyzer);
    }
    instructions += machine.run().instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK(BM_CacheModel)->Arg(0)->Arg(1);

void BM_CompileStreamRv64(benchmark::State& state) {
  for (auto _ : state) {
    const auto compiled =
        kgen::compile(streamModule(), Arch::Rv64, kgen::CompilerEra::Gcc12);
    benchmark::DoNotOptimize(compiled.program.code.data());
  }
}
BENCHMARK(BM_CompileStreamRv64);

void BM_CompileStreamA64(benchmark::State& state) {
  for (auto _ : state) {
    const auto compiled = kgen::compile(streamModule(), Arch::AArch64,
                                        kgen::CompilerEra::Gcc12);
    benchmark::DoNotOptimize(compiled.program.code.data());
  }
}
BENCHMARK(BM_CompileStreamA64);

}  // namespace

/// `--json` expands to the google-benchmark flags that write
/// BENCH_throughput.json next to the working directory, so CI (and PR
/// descriptions) can archive the throughput trajectory without remembering
/// the full --benchmark_out spelling. google-benchmark streams into its
/// output file while running, so we point it at a staging path and
/// atomically rename into place afterwards — an interrupted run can never
/// leave a truncated BENCH_throughput.json behind (support/atomic_file
/// convention).
int main(int argc, char** argv) {
  const std::string jsonPath = "BENCH_throughput.json";
  const std::string stagingPath =
      jsonPath + ".tmp." + std::to_string(::getpid());
  bool wantsJson = false;

  std::vector<std::string> args(argv, argv + argc);
  for (auto it = args.begin(); it != args.end(); ++it) {
    if (*it == "--json") {
      wantsJson = true;
      *it = "--benchmark_out=" + stagingPath;
      args.insert(it + 1, "--benchmark_out_format=json");
      break;
    }
  }
  std::vector<char*> argvRewritten;
  argvRewritten.reserve(args.size());
  for (std::string& arg : args) argvRewritten.push_back(arg.data());
  int argcRewritten = static_cast<int>(argvRewritten.size());

  benchmark::Initialize(&argcRewritten, argvRewritten.data());
  if (benchmark::ReportUnrecognizedArguments(argcRewritten,
                                             argvRewritten.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (wantsJson && std::rename(stagingPath.c_str(), jsonPath.c_str()) != 0) {
    std::cerr << "error: cannot publish " << jsonPath << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  return 0;
}
