// The traced run: an outside-in layer ladder. Each layer is timed by
// calling that layer's own public functions from here; nothing inside the
// program is instrumented, so the timed (untraced) workloads run the exact
// code users run.
//
// Trace analyses are timed by record and replay: a ReplayTee attached to a
// live Machine records each retired TraceBlock once, then replays the
// recorded block through onRetireBlock into one fresh observer per
// analysis, timing every call. Each analysis's cost is therefore measured
// directly rather than as the difference between two runs. Blocks are
// replayed as they are recorded, so memory stays at one block and the
// records are as cache-hot as in a live cell.
#include <algorithm>
#include <filesystem>
#include <map>
#include <iostream>
#include <numeric>
#include <optional>
#include <random>

#include "aarch64/decode.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/dep_distance.hpp"
#include "analysis/path_length.hpp"
#include "analysis/throughput_bound.hpp"
#include "analysis/windowed_cp.hpp"
#include "core/machine.hpp"
#include "engine/cell_codec.hpp"
#include "engine/result_store.hpp"
#include "engine/service.hpp"
#include "kgen/compile.hpp"
#include "riscv/decode.hpp"
#include "support/json_lite.hpp"
#include "uarch/fusion/fusion.hpp"
#include "uarch/mem/cache_aware_cp.hpp"
#include "uarch/mem/cache_model.hpp"
#include "uarch/mem/mem_system.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace riscmp;

namespace {

/// Ladder rounds per stack; each metric is the median over its rounds.
constexpr int kPaperRounds = 3;
constexpr int kUarchRounds = 1;
constexpr int kMicroRounds = 5;

double nanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// One analysis fed by the tee, with the time spent inside its calls.
struct Lane {
  std::string metric;
  std::unique_ptr<TraceObserver> observer;
  double ns = 0.0;
  std::uint64_t instructions = 0;
};

class ReplayTee final : public TraceObserver {
 public:
  explicit ReplayTee(std::vector<Lane>& lanes) : lanes_(lanes) {
    recorded_.reserve(kTraceBlockCapacity);
  }

  void onRetire(const RetiredInst& inst) override {
    onRetireBlock(std::span<const RetiredInst>(&inst, 1));
  }

  void onRetireBlock(std::span<const RetiredInst> block) override {
    recorded_.assign(block.begin(), block.end());
    replayed_ += recorded_.size();
    const std::span<const RetiredInst> replay(recorded_);
    for (Lane& lane : lanes_) {
      const Clock::time_point start = Clock::now();
      lane.observer->onRetireBlock(replay);
      lane.ns += nanosSince(start);
      lane.instructions += replay.size();
    }
  }

  void onProgramEnd() override {
    for (Lane& lane : lanes_) {
      const Clock::time_point start = Clock::now();
      lane.observer->onProgramEnd();
      lane.ns += nanosSince(start);
    }
  }

  [[nodiscard]] std::uint64_t replayed() const { return replayed_; }

 private:
  std::vector<Lane>& lanes_;
  std::vector<RetiredInst> recorded_;
  std::uint64_t replayed_ = 0;
};

/// The observers the engine attaches to `key`'s cell under `options`, one
/// lane each (runCellAttempt's MultiAnalysis set, built from the same
/// option closures). `keepAlive` owns the fusion pass's downstream
/// analyzers, which run inside the fusion lane.
std::vector<Lane> lanesFor(const engine::EngineOptions& options,
                           const engine::CellKey& key, const Program& program,
                           std::vector<std::unique_ptr<TraceObserver>>&
                               keepAlive) {
  const unsigned analyses =
      options.analysesFor ? options.analysesFor(key) : options.analyses;
  const Arch arch = key.config.arch;
  const LatencyTable* table =
      options.latenciesFor ? options.latenciesFor(arch) : nullptr;
  const uarch::mem::CacheConfig* caches =
      options.cacheConfigFor ? options.cacheConfigFor(arch) : nullptr;
  const ThroughputModel* throughput =
      options.throughputModelFor ? options.throughputModelFor(arch) : nullptr;
  const uarch::FusionConfig* fusion =
      options.fusionFor ? options.fusionFor(arch) : nullptr;

  std::vector<Lane> lanes;
  const auto add = [&](const char* metric,
                       std::unique_ptr<TraceObserver> observer) {
    lanes.push_back(Lane{metric, std::move(observer)});
  };
  if (analyses & engine::kPathLength) {
    add("analysis.path_length", std::make_unique<PathLengthCounter>(program));
  }
  if (analyses & engine::kCriticalPath) {
    add("analysis.critical_path", std::make_unique<CriticalPathAnalyzer>());
  }
  if ((analyses & engine::kScaledCP) && table != nullptr) {
    add("analysis.scaled_cp", std::make_unique<CriticalPathAnalyzer>(*table));
  }
  if (analyses & engine::kWindowedCP) {
    add("analysis.windowed_cp",
        std::make_unique<WindowedCPAnalyzer>(
            options.windowSizes.empty() ? WindowedCPAnalyzer::paperWindowSizes()
                                        : options.windowSizes));
  }
  if (analyses & engine::kDepDistance) {
    add("analysis.dep_distance",
        std::make_unique<DependencyDistanceAnalyzer>());
  }
  if ((analyses & engine::kCacheModel) && caches != nullptr) {
    add("uarch.cache_model",
        std::make_unique<uarch::mem::CacheModelAnalyzer>(*caches, program));
  }
  if ((analyses & engine::kMemSystem) && caches != nullptr) {
    add("uarch.mem_system", std::make_unique<uarch::mem::MemSystemAnalyzer>(
                                *caches, program, options.memCores));
  }
  if ((analyses & engine::kCacheAwareCP) && caches != nullptr &&
      table != nullptr) {
    add("uarch.cache_aware_cp",
        std::make_unique<uarch::mem::CacheAwareCpAnalyzer>(*table, *caches));
  }
  if ((analyses & engine::kThroughputBound) && throughput != nullptr) {
    add("analysis.throughput_bound",
        std::make_unique<ThroughputBoundAnalyzer>(*throughput, program));
  }
  if ((analyses & engine::kFusion) && fusion != nullptr) {
    std::vector<TraceObserver*> fused;
    keepAlive.push_back(std::make_unique<PathLengthCounter>(program));
    fused.push_back(keepAlive.back().get());
    keepAlive.push_back(std::make_unique<CriticalPathAnalyzer>());
    fused.push_back(keepAlive.back().get());
    if (table != nullptr) {
      keepAlive.push_back(std::make_unique<CriticalPathAnalyzer>(*table));
      fused.push_back(keepAlive.back().get());
    }
    add("uarch.fusion", std::make_unique<uarch::FusionPass>(
                            *fusion, program, std::move(fused)));
  }
  return lanes;
}

/// One cell measured three ways: as an engine op, as a bare Machine::run,
/// and through the replay tee.
struct CellTiming {
  double cellNs = 0.0;
  double emulateNs = 0.0;
  std::uint64_t instructions = 0;  ///< bare live run
  std::uint64_t replayed = 0;      ///< records the tee replayed
  std::uint64_t engineInstructions = 0;
  bool ok = false;                 ///< engine op matched its golden digest
  struct LaneTime {
    std::string metric;
    double ns;
    std::uint64_t instructions;
  };
  std::vector<LaneTime> lanes;
};

CellTiming timeCell(const CellGrid& grid, engine::ExperimentEngine& engine,
                    std::size_t index, const Golden* golden) {
  CellTiming timing;
  const workloads::WorkloadSpec& workload = grid.suites[index].front();
  const engine::Config& config = grid.configs[index].front();

  Clock::time_point start = Clock::now();
  const engine::CellResult cell = grid.run(engine, index);
  timing.cellNs = nanosSince(start);
  timing.engineInstructions = cell.instructions;
  timing.ok = golden == nullptr || golden->check(grid.stack, cell);

  const auto compiled = engine.compile(workload.module, config);
  MachineOptions machineOptions;
  machineOptions.maxInstructions = grid.resolved.options.budget;
  {
    Machine machine(compiled->program, machineOptions);
    start = Clock::now();
    timing.instructions = machine.run().instructions;
    timing.emulateNs = nanosSince(start);
  }

  std::vector<std::unique_ptr<TraceObserver>> keepAlive;
  std::vector<Lane> lanes =
      lanesFor(grid.resolved.options, cell.key, compiled->program, keepAlive);
  ReplayTee tee(lanes);
  Machine machine(compiled->program, machineOptions);
  machine.addObserver(tee);
  machine.run();
  timing.replayed = tee.replayed();
  for (const Lane& lane : lanes) {
    timing.lanes.push_back({lane.metric, lane.ns, lane.instructions});
  }
  return timing;
}

/// Per-round totals of one stack's ladder.
struct StackRound {
  double cellNs = 0.0;
  double emulateNs = 0.0;
  std::uint64_t instructions = 0;
  std::map<std::string, std::pair<double, std::uint64_t>> lanes;
};

/// Runs `rounds` seeded passes over `stack`'s cells; returns one total per
/// round and counts ops (and wrong results) into `result`.
std::vector<StackRound> ladderStack(Stack stack, int rounds,
                                    std::uint64_t seed, const Golden& golden,
                                    Result& result) {
  CellGrid grid(stack);
  const auto engine = grid.makeEngine();
  grid.compileAll(*engine);
  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(grid.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<StackRound> totals;
  std::size_t ops = 0;
  std::size_t matched = 0;
  for (int round = 0; round < rounds; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    StackRound total;
    for (const std::size_t index : order) {
      const CellTiming timing = timeCell(grid, *engine, index, &golden);
      result.attempted += 1;
      if (!timing.ok) result.failed += 1;
      ops += 1;
      if (timing.replayed == timing.instructions &&
          timing.engineInstructions == timing.instructions) {
        matched += 1;
      } else {
        result.fail("replay saw " + std::to_string(timing.replayed) +
                    " instructions, live run " +
                    std::to_string(timing.instructions) + ", engine " +
                    std::to_string(timing.engineInstructions));
      }
      total.cellNs += timing.cellNs;
      total.emulateNs += timing.emulateNs;
      total.instructions += timing.instructions;
      for (const CellTiming::LaneTime& lane : timing.lanes) {
        auto& slot = total.lanes[lane.metric];
        slot.first += lane.ns;
        slot.second += lane.instructions;
      }
    }
    totals.push_back(std::move(total));
  }
  std::cerr << "perfbench: " << stackName(stack) << " replay: " << matched
            << " of " << ops
            << " cell ops replayed exactly the live and engine instruction "
               "counts\n";
  return totals;
}

void reportStack(const std::vector<StackRound>& rounds,
                 const std::string& coverageMetric, bool reportCore,
                 Result& result) {
  std::vector<double> coverage;
  std::vector<double> emulate;
  std::map<std::string, std::vector<double>> lanes;
  for (const StackRound& round : rounds) {
    double attributed = round.emulateNs;
    for (const auto& [metric, slot] : round.lanes) {
      attributed += slot.first;
      lanes[metric].push_back(slot.first / static_cast<double>(slot.second));
    }
    coverage.push_back(attributed / round.cellNs);
    emulate.push_back(round.emulateNs /
                      static_cast<double>(round.instructions));
  }
  if (reportCore) {
    result.add("core.emulate_ns_per_inst", median(emulate), "ns/inst");
    result.add("core.instructions",
               static_cast<double>(rounds.front().instructions), "count");
  }
  for (const auto& [metric, values] : lanes) {
    result.add(metric + "_ns_per_inst", median(values), "ns/inst");
  }
  result.add(coverageMetric, median(coverage), "ratio");
}

/// Median over kMicroRounds of the mean time per call of `body`, in `unit`
/// nanoseconds (1e3 for µs, 1e6 for ms). `body` performs `calls` calls.
template <typename Body>
double microTime(std::size_t calls, double unit, Body body) {
  std::vector<double> samples;
  for (int round = 0; round < kMicroRounds; ++round) {
    const Clock::time_point start = Clock::now();
    body();
    samples.push_back(nanosSince(start) / static_cast<double>(calls) / unit);
  }
  return median(samples);
}

void ladderCompileAndDecode(Result& result) {
  const CellGrid grid(Stack::Paper);
  std::vector<std::uint32_t> rvWords;
  std::vector<std::uint32_t> a64Words;
  std::vector<kgen::Compiled> compiled;
  result.add("kgen.compile_ms", microTime(grid.size(), 1e6, [&] {
               compiled.clear();
               for (std::size_t i = 0; i < grid.size(); ++i) {
                 const engine::Config& config = grid.configs[i].front();
                 compiled.push_back(kgen::compile(
                     grid.suites[i].front().module, config.arch, config.era));
               }
             }),
             "ms");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::vector<std::uint32_t>& words =
        grid.configs[i].front().arch == Arch::Rv64 ? rvWords : a64Words;
    const std::vector<std::uint32_t>& code = compiled[i].program.code;
    words.insert(words.end(), code.begin(), code.end());
  }

  // Decode is cached per word inside the core, so this is the cost of a
  // first sight; repeat the word list enough to time it.
  constexpr int kRepeats = 200;
  std::size_t decoded = 0;
  result.add("riscv.decode_ns_per_word",
             microTime(rvWords.size() * kRepeats, 1.0, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 for (const std::uint32_t word : rvWords) {
                   decoded += rv64::decode(word).has_value() ? 1 : 0;
                 }
               }
             }),
             "ns/word");
  result.add("aarch64.decode_ns_per_word",
             microTime(a64Words.size() * kRepeats, 1.0, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 for (const std::uint32_t word : a64Words) {
                   decoded += a64::decode(word).has_value() ? 1 : 0;
                 }
               }
             }),
             "ns/word");
  if (decoded == 0) result.fail("nothing decoded");  // keeps the loops live
}

void ladderService(const Args& args, const Golden& golden, Result& result) {
  const std::string root = args.workDir + "/ladder";
  std::filesystem::create_directories(root);
  engine::ServiceOptions serviceOptions;
  serviceOptions.jobs = 1;
  serviceOptions.storeRoot = root + "/service-store";
  engine::SimService service(serviceOptions);
  const std::string warm = gridRequest(engine::kDefaultInstructionBudget);

  // Populate, then take the warm reply as the codec/JSON ladder's input.
  service.handleLine(warm);
  const std::string reply = service.handleLine(warm);
  const support::JsonValue doc = support::JsonValue::parse(reply);
  std::vector<engine::CellResult> cells;
  for (const support::JsonValue& encoded : doc.at("cells").items()) {
    cells.push_back(engine::decodeCell(encoded));
    result.attempted += 1;
    if (!golden.check(Stack::Service, cells.back())) result.failed += 1;
  }
  const std::size_t count = cells.size();

  constexpr int kRepeats = 20;
  std::vector<support::JsonValue> encoded;
  result.add("engine.cell_codec_encode_us",
             microTime(count * kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 encoded.clear();
                 for (const engine::CellResult& cell : cells) {
                   encoded.push_back(engine::encodeCell(cell));
                 }
               }
             }),
             "us");
  std::uint64_t checksum = 0;
  result.add("engine.cell_codec_decode_us",
             microTime(count * kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 for (const support::JsonValue& value : encoded) {
                   checksum += engine::decodeCell(value).instructions;
                 }
               }
             }),
             "us");

  engine::EngineOptions base;
  base.jobs = 1;
  const engine::GridSpec spec = stackSpec(Stack::Service);
  std::vector<std::string> keys;
  result.add("engine.grid_spec_resolve_us", microTime(kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 keys = engine::resolveGridSpec(spec, base).cellKeys;
               }
             }),
             "us");

  engine::ResultStore store(root + "/codec-store");
  result.add("engine.result_store_save_us",
             microTime(count * kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 for (std::size_t i = 0; i < count; ++i) {
                   store.store(keys[i], cells[i]);
                 }
               }
             }),
             "us");
  result.add("engine.result_store_load_us",
             microTime(count * kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 for (std::size_t i = 0; i < count; ++i) {
                   checksum += store.load(keys[i]).has_value() ? 1 : 0;
                 }
               }
             }),
             "us");
  if (store.hits() != count * kRepeats * kMicroRounds) {
    result.fail("result store missed a saved cell");
  }

  std::string dumped;
  result.add("support.json_parse_us", microTime(kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) {
                 checksum += support::JsonValue::parse(reply).has("cells");
               }
             }),
             "us");
  result.add("support.json_write_us", microTime(kRepeats, 1e3, [&] {
               for (int r = 0; r < kRepeats; ++r) dumped = doc.dump();
             }),
             "us");
  if (dumped != reply) result.fail("JSON re-emission differs from the reply");

  // SimService::handleLine in-process: warm requests are store hits; cold
  // ones carry a fresh budget, so they miss, simulate, and save.
  std::vector<double> warmMs;
  std::vector<double> coldMs;
  std::uint64_t coldBudget = engine::kDefaultInstructionBudget / 3;
  for (int r = 0; r < kRepeats; ++r) {
    Clock::time_point start = Clock::now();
    const std::string warmReply = service.handleLine(warm);
    warmMs.push_back(secondsSince(start) * 1e3);
    result.attempted += 1;
    if (!checkGridReply(warmReply, golden)) result.failed += 1;
    if (r % 4 == 0) {
      const std::string cold = gridRequest(--coldBudget);
      start = Clock::now();
      const std::string coldReply = service.handleLine(cold);
      coldMs.push_back(secondsSince(start) * 1e3);
      result.attempted += 1;
      if (!checkGridReply(coldReply, golden)) result.failed += 1;
    }
  }
  const double handleWarmMs = median(warmMs);
  result.add("engine.service_handle_warm_ms", handleWarmMs, "ms");
  result.add("engine.service_handle_cold_ms", median(coldMs), "ms");

  const support::JsonValue stats =
      support::JsonValue::parse(service.handleLine(R"({"type":"stats"})"));
  result.add("engine.store_hits",
             static_cast<double>(stats.at("store_hits").asUint()), "count");
  result.add("engine.store_misses",
             static_cast<double>(stats.at("store_misses").asUint()), "count");
  result.add("engine.compile_cache_hits",
             static_cast<double>(stats.at("compile_hits").asUint()), "count");

  // The same warm request through the daemon: what the socket and the
  // batching grace add on top of handling it.
  const std::vector<double> rttMs = daemonWarmRtts(args, root, kRepeats);
  result.add("engine.service_wait_ms", median(rttMs) - handleWarmMs, "ms");

  if (checksum == 0) result.fail("codec and store loops saw no data");
  std::filesystem::remove_all(root);
}

}  // namespace

Result runLadder(const Args& args, const Golden& golden) {
  Result result;
  ladderCompileAndDecode(result);
  reportStack(ladderStack(Stack::Paper, kPaperRounds, args.seed, golden,
                          result),
              "analysis.coverage_paper", true, result);
  reportStack(ladderStack(Stack::Uarch, kUarchRounds, args.seed, golden,
                          result),
              "analysis.coverage_uarch", false, result);
  ladderService(args, golden, result);
  return result;
}

}  // namespace perfbench
