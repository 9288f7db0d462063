#include "engine/engine.hpp"

#include <chrono>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/machine.hpp"
#include "engine/cell_codec.hpp"
#include "engine/journal.hpp"
#include "engine/process_worker.hpp"
#include "engine/result_store.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"
#include "support/table.hpp"

namespace riscmp::engine {

std::vector<Config> paperConfigs() {
  using kgen::CompilerEra;
  return {{Arch::AArch64, CompilerEra::Gcc9},
          {Arch::Rv64, CompilerEra::Gcc9},
          {Arch::AArch64, CompilerEra::Gcc12},
          {Arch::Rv64, CompilerEra::Gcc12}};
}

std::string configName(const Config& config) {
  return std::string(kgen::eraName(config.era)) + " " +
         std::string(archName(config.arch));
}

std::string describe(const EngineStats& stats) {
  std::ostringstream out;
  out << "engine: " << stats.compiles << " compiles (+" << stats.cacheHits
      << " cached), " << stats.simulations << " simulations, jobs="
      << stats.jobs;
  if (stats.resumed != 0) out << ", resumed=" << stats.resumed;
  if (stats.storeHits != 0) out << ", store-hits=" << stats.storeHits;
  return out.str();
}

std::string windowIlpCell(const WindowedCPAnalyzer::WindowResult& result) {
  if (result.windows == 0) return "-";
  return sigFigs(result.meanIlp, 3);
}

CellObservers::CellObservers(const EngineOptions& options, unsigned analyses,
                             Arch arch, const Program& program) {
  const LatencyTable* latencies =
      options.latenciesFor ? options.latenciesFor(arch) : nullptr;

  if (analyses & kPathLength) {
    observers_.push_back(&pathLength_.emplace(program));
  }
  // CP, scaled CP, windowed CP and dependency distance run inside one
  // resolver walk, so each retired record is resolved once.
  DependencyConsumers dependencies;
  if (analyses & kCriticalPath) {
    dependencies.criticalPath = &criticalPath_.emplace();
  }
  if ((analyses & kScaledCP) && latencies != nullptr) {
    dependencies.scaledCp = &scaledCp_.emplace(*latencies);
  }
  if (analyses & kWindowedCP) {
    dependencies.windowed = &windowed_.emplace(
        options.windowSizes.empty() ? WindowedCPAnalyzer::paperWindowSizes()
                                    : options.windowSizes);
  }
  if (analyses & kDepDistance) {
    dependencies.distance = &depDistance_.emplace();
  }
  if (dependencies.any()) {
    observers_.push_back(&dependencies_.emplace(dependencies));
  }
  // The cache model, the memory system and cache-aware CP each own a
  // private MemoryHierarchy (as does the memory-aware OoO core): observers
  // are independent by contract, and the same trace + geometry gives each
  // replica identical behaviour.
  const uarch::mem::CacheConfig* cacheConfig =
      (analyses & (kCacheModel | kCacheAwareCP | kMemSystem)) &&
              options.cacheConfigFor
          ? options.cacheConfigFor(arch)
          : nullptr;
  if ((analyses & kCacheModel) && cacheConfig != nullptr) {
    observers_.push_back(&cacheModel_.emplace(*cacheConfig, program));
  }
  if ((analyses & kMemSystem) && cacheConfig != nullptr) {
    observers_.push_back(
        &memSystem_.emplace(*cacheConfig, program, options.memCores));
  }
  if ((analyses & kCacheAwareCP) && cacheConfig != nullptr &&
      latencies != nullptr) {
    observers_.push_back(&cacheAwareCp_.emplace(*latencies, *cacheConfig));
  }
  if ((analyses & kThroughputBound) && options.throughputModelFor) {
    if (const ThroughputModel* model = options.throughputModelFor(arch)) {
      observers_.push_back(&throughputBound_.emplace(*model, program));
    }
  }

  // The fusion pass is itself an observer of the one pass; its
  // downstream analyzers see the macro-op stream, so the cell produces
  // fusion-off (plain analyzers above) and fusion-on numbers together.
  if ((analyses & kFusion) && options.fusionFor) {
    if (const uarch::FusionConfig* fusion = options.fusionFor(arch)) {
      std::vector<TraceObserver*> fused;
      fused.push_back(&fusedPathLength_.emplace(program));
      // Fused CP and scaled CP share one front end (one paired DP).
      DependencyConsumers chains;
      chains.criticalPath = &fusedCp_.emplace();
      if (latencies != nullptr) {
        chains.scaledCp = &fusedScaledCp_.emplace(*latencies);
      }
      fused.push_back(&fusedDependencies_.emplace(chains));
      observers_.push_back(
          &fusionPass_.emplace(*fusion, program, std::move(fused)));
    }
  }
}

void CellObservers::harvest(CellResult& out) const {
  if (pathLength_) {
    out.kernels = pathLength_->kernels();
    for (std::size_t g = 0; g < kInstGroupCount; ++g) {
      out.groups[g] = pathLength_->groupCount(static_cast<InstGroup>(g));
    }
    out.unattributed = pathLength_->unattributed();
  }
  if (criticalPath_) out.criticalPath = criticalPath_->criticalPath();
  if (scaledCp_) {
    out.hasScaledCp = true;
    out.scaledCriticalPath = scaledCp_->criticalPath();
  }
  if (windowed_) out.windows = windowed_->results();
  if (depDistance_) {
    out.deps.dependencies = depDistance_->dependencies();
    out.deps.meanDistance = depDistance_->meanDistance();
    out.deps.within4 = depDistance_->fractionWithin(4);
    out.deps.within16 = depDistance_->fractionWithin(16);
    out.deps.within64 = depDistance_->fractionWithin(64);
  }
  if (cacheModel_) {
    out.hasCache = true;
    out.cache = cacheModel_->totals();
    out.cacheFootprintLines = cacheModel_->footprintLines();
    out.cacheLineSetDigest = cacheModel_->lineSetDigest();
    out.cacheKernels = cacheModel_->kernels();
  }
  if (cacheAwareCp_) {
    out.hasCacheAwareCp = true;
    out.cacheAwareCriticalPath = cacheAwareCp_->criticalPath();
  }
  if (memSystem_) {
    out.hasMemSystem = true;
    out.memSystem = memSystem_->summary();
    out.memKernels = memSystem_->kernels();
    out.memScaling = memSystem_->scaling();
  }
  if (throughputBound_) {
    out.hasThroughput = true;
    out.throughputProgram = throughputBound_->program();
    out.throughputKernels = throughputBound_->kernels();
  }
  if (fusionPass_) {
    out.hasFusion = true;
    out.fusedInstructions = fusionPass_->outputInstructions();
    out.fusionPairs = fusionPass_->pairs();
    out.fusionPairsByRule = fusionPass_->pairsByRule();
    out.fusionUnattributedPairs = fusionPass_->unattributedPairs();
    out.fusionKernels = fusionPass_->kernels();
    if (fusedPathLength_) out.fusedKernels = fusedPathLength_->kernels();
    if (fusedCp_) out.fusedCriticalPath = fusedCp_->criticalPath();
    if (fusedScaledCp_) {
      out.hasFusedScaledCp = true;
      out.fusedScaledCriticalPath = fusedScaledCp_->criticalPath();
    }
  }
}

ExperimentEngine::ExperimentEngine(EngineOptions options,
                                   CompileCache* sharedCache)
    : options_(std::move(options)),
      scheduler_(options_.jobs),
      cache_(sharedCache != nullptr ? sharedCache : &ownCache_) {}

std::shared_ptr<const kgen::Compiled> ExperimentEngine::compile(
    const kgen::Module& module, const Config& config) {
  return cache_->get(module, config.arch, config.era);
}

std::uint64_t ExperimentEngine::simulate(
    const kgen::Compiled& compiled,
    const std::vector<TraceObserver*>& observers,
    const std::atomic<std::uint32_t>* deadlineFlag) {
  MachineOptions machineOptions;
  machineOptions.maxInstructions = options_.budget;
  machineOptions.deadlineExpiredMs = deadlineFlag;
  Machine machine(compiled.program, machineOptions);
  for (TraceObserver* observer : observers) machine.addObserver(*observer);
  simulations_.fetch_add(1, std::memory_order_relaxed);
  return machine.run().instructions;
}

void ExperimentEngine::runCellAttempt(
    const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs, std::size_t index, CellResult& out,
    const std::atomic<std::uint32_t>* deadlineFlag) {
  const std::size_t w = index / configs.size();
  const std::size_t c = index % configs.size();
  const workloads::WorkloadSpec& spec = suite[w];

  out.key = CellKey{spec.name, w, configs[c], c};
  const unsigned analyses = options_.analysesFor
                                ? options_.analysesFor(out.key)
                                : options_.analyses;

  std::ostringstream capture;
  verify::FaultBoundary local(capture);
  local.run(spec.name + "/" + configName(configs[c]), [&] {
    if (options_.cellSetup) options_.cellSetup(out.key);

    const auto compiled = compile(spec.module, configs[c]);

    CellObservers cellObservers(options_, analyses, configs[c].arch,
                                compiled->program);
    out.instructions =
        simulate(*compiled, cellObservers.observers(), deadlineFlag);
    cellObservers.harvest(out);
  });
  out.cell = local.results().front();
  out.faultText = capture.str();
}

namespace {

using Clock = std::chrono::steady_clock;

std::uint32_t deadlineMillis(double seconds) {
  if (seconds <= 0.0) return 0;
  double ms = seconds * 1000.0;
  if (ms < 1.0) ms = 1.0;
  const double cap = 4294967295.0;
  if (ms > cap) ms = cap;
  return static_cast<std::uint32_t>(ms);
}

std::uint64_t elapsedMicros(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

CellKey keyForIndex(const std::vector<workloads::WorkloadSpec>& suite,
                    const std::vector<Config>& configs, std::size_t index) {
  const std::size_t w = index / configs.size();
  const std::size_t c = index % configs.size();
  return CellKey{suite[w].name, w, configs[c], c};
}

/// Record a cell that --fail-fast prevented from ever starting. Not a
/// fault (nothing ran), so no crash report — just a failed status the
/// boundary summary and the ✗(skipped) report cell surface.
void markSkipped(CellResult& out,
                 const std::vector<workloads::WorkloadSpec>& suite,
                 const std::vector<Config>& configs, std::size_t index,
                 const std::string& name) {
  out = CellResult{};
  out.key = keyForIndex(suite, configs, index);
  out.cell.name = name;
  out.cell.ok = false;
  out.cell.kind = "skipped";
  out.cell.summary = "not run: --fail-fast stopped the grid after an "
                     "earlier cell failed";
}

JournalHeader gridHeader(const std::vector<workloads::WorkloadSpec>& suite,
                         const std::vector<Config>& configs,
                         const EngineOptions& options) {
  JournalHeader header;
  header.workloads.reserve(suite.size());
  for (const workloads::WorkloadSpec& spec : suite) {
    header.workloads.push_back(spec.name);
  }
  header.configs.reserve(configs.size());
  for (const Config& config : configs) {
    header.configs.push_back(configName(config));
  }
  header.budget = options.budget;
  header.analyses = options.analyses;
  return header;
}

}  // namespace

GridResult ExperimentEngine::runGrid(
    const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs) {
  GridResult grid;
  grid.workloadCount = suite.size();
  grid.configCount = configs.size();
  grid.cells.resize(suite.size() * configs.size());
  const std::size_t count = grid.cells.size();

  const std::string journalPath =
      options_.journalPath.empty() ? options_.resumeFrom
                                   : options_.journalPath;
  std::vector<std::string> names(count);
  std::vector<std::string> fingerprints(count);
  for (std::size_t index = 0; index < count; ++index) {
    const std::size_t w = index / configs.size();
    const std::size_t c = index % configs.size();
    names[index] = suite[w].name + "/" + configName(configs[c]);
    // Only the journal reads these: the cache key is the full module dump,
    // and journal entries store its FNV digest instead so a 20-cell
    // journal stays kilobytes, not MBs. Rendering and hashing a module
    // costs more than serving its cell from the result store, so a run
    // without a journal leaves them empty.
    if (!journalPath.empty()) {
      fingerprints[index] = digestHex(fnv1a64(CompileCache::fingerprint(
          suite[w].module, configs[c].arch, configs[c].era)));
    }
  }

  const JournalHeader header = gridHeader(suite, configs, options_);

  // Resume: reuse every journal cell whose grid identity, compile
  // fingerprint, and result digest all check out. ok=false entries are
  // deliberately not reused — a resumed run re-executes failed cells.
  std::vector<char> done(count, 0);
  if (!options_.resumeFrom.empty()) {
    const RunJournal::Loaded loaded = RunJournal::load(options_.resumeFrom);
    if (loaded.hasHeader && !(loaded.header == header)) {
      throw ConfigError("--resume: journal was written for a different grid "
                        "(workloads, configs, budget, or analyses differ)",
                        options_.resumeFrom);
    }
    for (std::size_t index = 0; index < count; ++index) {
      const auto it = loaded.entries.find(names[index]);
      if (it == loaded.entries.end()) continue;
      if (!it->second.result.cell.ok) continue;
      if (it->second.fingerprint != fingerprints[index]) continue;
      grid.cells[index] = it->second.result;
      done[index] = 1;
      resumed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Result-store read-through (ISSUE 9): any remaining cell whose content
  // key is already stored is served without compiling or simulating. The
  // stored record came from some grid whose cell position may differ, so
  // its grid-relative identity (key indices, boundary name) is rebound to
  // this grid; everything the simulation produced is position-independent.
  if (options_.resultStore && options_.storeKeyFor) {
    for (std::size_t index = 0; index < count; ++index) {
      if (done[index] != 0) continue;
      const CellKey key = keyForIndex(suite, configs, index);
      std::optional<CellResult> stored =
          options_.resultStore->load(options_.storeKeyFor(key));
      if (!stored) continue;
      grid.cells[index] = std::move(*stored);
      grid.cells[index].key = key;
      grid.cells[index].cell.name = names[index];
      done[index] = 1;
      storeHits_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::unique_ptr<RunJournal> journal;
  if (!journalPath.empty()) {
    journal = std::make_unique<RunJournal>(journalPath, header);
  }

  const std::uint32_t deadlineMs = deadlineMillis(options_.deadlineSeconds);
  if (options_.isolate == IsolationMode::Process) {
    runGridProcess(grid, suite, configs, names, fingerprints, done,
                   deadlineMs, journal.get());
  } else {
    runGridThread(grid, suite, configs, names, fingerprints, done,
                  deadlineMs, journal.get());
  }

  if (journal) {
    std::vector<JournalEntry> entries;
    entries.reserve(count);
    for (std::size_t index = 0; index < count; ++index) {
      entries.push_back(
          JournalEntry{names[index], fingerprints[index], grid.cells[index]});
    }
    journal->finalize(entries);
  }
  return grid;
}

void ExperimentEngine::runGridThread(
    GridResult& grid, const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs, const std::vector<std::string>& names,
    const std::vector<std::string>& fingerprints,
    const std::vector<char>& done, std::uint32_t deadlineMs,
    RunJournal* journal) {
  std::atomic<bool> anyFailed{false};

  scheduler_.run(grid.cells.size(), [&](std::size_t index) {
    if (done[index] != 0) return;
    CellResult& out = grid.cells[index];
    if (options_.failFast && anyFailed.load(std::memory_order_acquire)) {
      markSkipped(out, suite, configs, index, names[index]);
      return;
    }

    const auto start = Clock::now();
    unsigned attempt = 0;
    for (;;) {
      out = CellResult{};
      {
        // Token scope = attempt scope: disarmed before any backoff sleep.
        const Watchdog::Token token = watchdog_.arm(deadlineMs);
        runCellAttempt(suite, configs, index, out, token.flag());
      }
      if (out.cell.ok) break;
      // Only timeouts are transient under thread isolation: every
      // in-taxonomy fault is a deterministic property of the cell, and a
      // real crash would have taken this whole process down.
      const bool transient = out.cell.kind == "TimeoutFault";
      if (!transient || attempt >= options_.retries) break;
      ++attempt;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retryBackoffDelayMs(
              options_.retryBackoffMs, options_.retrySeed, index, attempt)));
    }

    if (!out.cell.ok) anyFailed.store(true, std::memory_order_release);
    // Write-through: only ok cells persist — failures are re-attempted by
    // whoever asks for the cell next, like the journal's resume contract.
    if (out.cell.ok && options_.resultStore && options_.storeKeyFor) {
      options_.resultStore->store(options_.storeKeyFor(out.key), out);
    }
    if (journal != nullptr) {
      journal->append(
          JournalEntry{names[index], fingerprints[index], out},
          elapsedMicros(start), attempt);
    }
  });
}

void ExperimentEngine::runGridProcess(
    GridResult& grid, const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs, const std::vector<std::string>& names,
    const std::vector<std::string>& fingerprints,
    const std::vector<char>& done, std::uint32_t deadlineMs,
    RunJournal* journal) {
  std::vector<std::size_t> pending;
  for (std::size_t index = 0; index < grid.cells.size(); ++index) {
    if (done[index] == 0) pending.push_back(index);
  }

  ProcessPoolOptions pool;
  pool.jobs = scheduler_.jobs();
  pool.deadlineMs = deadlineMs;
  pool.retries = options_.retries;
  pool.backoffBaseMs = options_.retryBackoffMs;
  pool.retrySeed = options_.retrySeed;
  pool.failFast = options_.failFast;

  // Runs in the forked child: execute the cell with the inherited engine
  // machinery and ship the full result — plus this worker's stats deltas,
  // so the parent's footer counts stay isolation-mode independent — as one
  // JSON document over the pipe.
  const auto childRun = [&](std::size_t task) -> std::string {
    const std::size_t index = pending[task];
    const std::uint64_t compilesBefore = cache_->compiles();
    const std::uint64_t hitsBefore = cache_->hits();
    const std::uint64_t simsBefore =
        simulations_.load(std::memory_order_relaxed);

    CellResult out;
    runCellAttempt(suite, configs, index, out, nullptr);

    support::JsonValue payload = support::JsonValue::object();
    payload.set("v", support::JsonValue(kCodecV));
    payload.set("result", encodeCell(out));
    payload.set("compiles",
                support::JsonValue(cache_->compiles() - compilesBefore));
    payload.set("hits", support::JsonValue(cache_->hits() - hitsBefore));
    payload.set("sims",
                support::JsonValue(
                    simulations_.load(std::memory_order_relaxed) -
                    simsBefore));
    return payload.dump() + "\n";
  };

  // Runs in the parent as each cell reaches its final outcome. Crash and
  // timeout outcomes are synthesized through a local FaultBoundary so their
  // captured reports format exactly like in-process failures.
  const auto onOutcome = [&](std::size_t task,
                             const WorkerOutcome& outcome) -> bool {
    const std::size_t index = pending[task];
    CellResult& out = grid.cells[index];

    bool decoded = false;
    if (outcome.status == WorkerOutcome::Status::Payload) {
      if (const std::optional<support::JsonValue> doc =
              support::JsonValue::tryParse(outcome.payload)) {
        try {
          if (doc->at("v").asUint() == kCodecV) {
            out = decodeCell(doc->at("result"));
            childCompiles_.fetch_add(doc->at("compiles").asUint(),
                                     std::memory_order_relaxed);
            childHits_.fetch_add(doc->at("hits").asUint(),
                                 std::memory_order_relaxed);
            simulations_.fetch_add(doc->at("sims").asUint(),
                                   std::memory_order_relaxed);
            decoded = true;
          }
        } catch (const Fault&) {
          decoded = false;  // torn payload: fall through to CrashFault
        }
      }
    }

    if (!decoded) {
      out = CellResult{};
      out.key = keyForIndex(suite, configs, index);
      std::ostringstream capture;
      verify::FaultBoundary local(capture);
      local.run(names[index], [&]() {
        if (outcome.status == WorkerOutcome::Status::TimedOut) {
          throw TimeoutFault(deadlineMs);
        }
        if (outcome.signo != 0) {
          throw CrashFault(outcome.signo, names[index]);
        }
        throw CrashFault::exited(outcome.exitCode, names[index]);
      });
      out.cell = local.results().front();
      out.faultText = capture.str();
    }

    if (out.cell.ok && options_.resultStore && options_.storeKeyFor) {
      options_.resultStore->store(options_.storeKeyFor(out.key), out);
    }
    if (journal != nullptr) {
      journal->append(JournalEntry{names[index], fingerprints[index], out},
                      outcome.elapsedUs, outcome.attempt);
    }
    return out.cell.ok;
  };

  const std::vector<std::size_t> skipped =
      runForkedCells(pending.size(), pool, childRun, onOutcome);
  for (const std::size_t task : skipped) {
    const std::size_t index = pending[task];
    markSkipped(grid.cells[index], suite, configs, index, names[index]);
    if (journal != nullptr) {
      journal->append(
          JournalEntry{names[index], fingerprints[index], grid.cells[index]},
          0, 0);
    }
  }
}

std::vector<ExperimentEngine::RawOutcome> ExperimentEngine::runJobs(
    const std::vector<RawJob>& jobs) {
  std::vector<RawOutcome> outcomes(jobs.size());

  scheduler_.run(jobs.size(), [&](std::size_t index) {
    const RawJob& job = jobs[index];
    RawOutcome& out = outcomes[index];

    std::ostringstream capture;
    verify::FaultBoundary local(capture);
    local.run(job.name, [&] {
      CellContext context{
          job.module != nullptr ? compile(*job.module, job.config) : nullptr,
          *this};
      job.run(context);
    });
    out.cell = local.results().front();
    out.faultText = capture.str();
  });
  return outcomes;
}

EngineStats ExperimentEngine::stats() const {
  EngineStats stats;
  stats.compiles =
      cache_->compiles() + childCompiles_.load(std::memory_order_relaxed);
  stats.cacheHits =
      cache_->hits() + childHits_.load(std::memory_order_relaxed);
  stats.simulations = simulations_.load(std::memory_order_relaxed);
  stats.resumed = resumed_.load(std::memory_order_relaxed);
  stats.storeHits = storeHits_.load(std::memory_order_relaxed);
  stats.jobs = scheduler_.jobs();
  return stats;
}

namespace {

void replay(const verify::CellResult& cell, const std::string& faultText,
            verify::FaultBoundary& boundary, std::ostream& out) {
  if (!faultText.empty()) out << faultText;
  boundary.record(cell);
}

}  // namespace

void mergeIntoBoundary(const GridResult& grid, verify::FaultBoundary& boundary,
                       std::ostream& out) {
  for (const CellResult& result : grid.cells) {
    replay(result.cell, result.faultText, boundary, out);
  }
}

void mergeIntoBoundary(const std::vector<ExperimentEngine::RawOutcome>& jobs,
                       verify::FaultBoundary& boundary, std::ostream& out) {
  for (const ExperimentEngine::RawOutcome& outcome : jobs) {
    replay(outcome.cell, outcome.faultText, boundary, out);
  }
}

}  // namespace riscmp::engine
