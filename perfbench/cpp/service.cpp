// service_mixed: one closed-loop client against a spawned simd daemon.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <random>
#include <thread>

#include "engine/cell_codec.hpp"
#include "engine/service.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using namespace riscmp;

namespace {

/// Daemon set-ups per run (start + store population), spread evenly over
/// the timed phase; setup_s is the fastest.
constexpr std::size_t kSetups = 9;
/// One request in this many is cold, at a seeded position in each block.
constexpr std::uint64_t kColdEvery = 8;

/// A simd process serving one socket and one fresh store directory. The
/// destructor asks it to shut down and reaps it, killing it if it hangs.
class Daemon {
 public:
  Daemon(const std::string& simd, std::string socket, const std::string& store)
      : socket_(std::move(socket)) {
    std::vector<std::string> argv = {simd, "--socket=" + socket_,
                                     "--store=" + store, "--jobs=1"};
    std::vector<char*> raw;
    for (std::string& arg : argv) raw.push_back(arg.data());
    raw.push_back(nullptr);
    // The daemon's log goes to stderr: stdout carries only the result.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc =
        posix_spawn(&pid_, simd.c_str(), &actions, nullptr, raw.data(),
                    environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + simd);
    }
    try {
      waitReady();
    } catch (...) {
      stop();
      throw;
    }
  }

  ~Daemon() { stop(); }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string request(const std::string& line) const {
    return engine::requestOverSocket(socket_, line);
  }

  [[nodiscard]] double peakRssMb() const { return pidPeakRssMb(pid_); }

  void stop() {
    if (pid_ < 0) return;
    try {
      request(R"({"type":"shutdown"})");
    } catch (const std::exception&) {
    }
    if (!reap(std::chrono::seconds(10))) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    pid_ = -1;
  }

 private:
  bool reap(std::chrono::milliseconds timeout) {
    const Clock::time_point start = Clock::now();
    while (Clock::now() - start < timeout) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  void waitReady() {
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < 20.0) {
      try {
        if (request(R"({"type":"ping"})").find("pong") != std::string::npos) {
          return;
        }
      } catch (const Fault&) {
        // Not listening yet.
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("simd exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("simd did not answer ping within 20 s");
  }

  std::string socket_;
  pid_t pid_ = -1;
};

std::size_t serviceCellCount() {
  const engine::GridShape shape = engine::resolveGridShape(
      stackSpec(Stack::Service));
  return shape.suite.size() * shape.configs.size();
}

}  // namespace

std::optional<std::uint64_t> checkGridReply(const std::string& reply,
                                            const Golden& golden) {
  const std::optional<support::JsonValue> doc =
      support::JsonValue::tryParse(reply);
  if (!doc || doc->at("type").kind() != support::JsonValue::Kind::String ||
      doc->at("type").asString() != "grid") {
    return std::nullopt;
  }
  try {
    if (!doc->at("ok").asBool()) return std::nullopt;
    const std::vector<support::JsonValue>& cells = doc->at("cells").items();
    static const std::size_t expected = serviceCellCount();
    if (cells.size() != expected) return std::nullopt;
    std::uint64_t instructions = 0;
    for (const support::JsonValue& encoded : cells) {
      const engine::CellResult cell = engine::decodeCell(encoded);
      if (!golden.check(Stack::Service, cell)) return std::nullopt;
      instructions += cell.instructions;
    }
    return instructions;
  } catch (const Fault&) {
    return std::nullopt;
  }
}

std::string gridRequest(std::uint64_t budget) {
  engine::GridSpec spec = stackSpec(Stack::Service);
  spec.budget = budget;
  support::JsonValue doc = support::JsonValue::object();
  doc.set("type", support::JsonValue("grid"));
  doc.set("spec", engine::gridSpecToJson(spec));
  return doc.dump();
}

std::vector<double> daemonWarmRtts(const Args& args, const std::string& dir,
                                   int count) {
  const std::string warm = gridRequest(engine::kDefaultInstructionBudget);
  Daemon daemon(args.simd, dir + "/simd.sock", dir + "/daemon-store");
  daemon.request(warm);
  std::vector<double> rttMs;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    daemon.request(warm);
    rttMs.push_back(secondsSince(start) * 1e3);
  }
  return rttMs;
}

Result runService(const Args& args, const Golden& golden) {
  Result result;
  const std::size_t cellCount = serviceCellCount();
  const std::string warm = gridRequest(engine::kDefaultInstructionBudget);
  std::filesystem::create_directories(args.workDir);

  // One set-up: start a daemon on a fresh store and populate the store
  // with the warm grid. The first one serves the timed phase; the others
  // run between requests, spread over the phase, and are shut down again.
  std::vector<double> setupSeconds;
  const auto setUp = [&] {
    const std::string tag = std::to_string(setupSeconds.size());
    const Clock::time_point start = Clock::now();
    auto daemon = std::make_unique<Daemon>(
        args.simd, args.workDir + "/simd-" + tag + ".sock",
        args.workDir + "/store-" + tag);
    if (!checkGridReply(daemon->request(warm), golden)) {
      result.fail("store population returned a wrong grid");
    }
    setupSeconds.push_back(secondsSince(start));
    return daemon;
  };
  const std::unique_ptr<Daemon> daemon = setUp();

  // Timed phase: closed loop, one request in flight. Cold requests carry a
  // budget no earlier request used, so their cells miss the store (the
  // budget is part of every content key), compile-cache hit, simulate,
  // and are saved — with results identical to the warm grid's.
  std::mt19937_64 rng(args.seed);
  std::uint64_t coldSlot = 0;
  std::uint64_t coldBudget = engine::kDefaultInstructionBudget / 2;
  std::vector<double> rttMs;
  std::vector<double> perCellMs;
  double busySeconds = 0.0;
  std::uint64_t instructions = 0;
  const Clock::time_point phase = Clock::now();
  for (std::uint64_t i = 0; secondsSince(phase) < args.seconds; ++i) {
    if (setupSeconds.size() < kSetups &&
        secondsSince(phase) >= args.seconds *
                                   static_cast<double>(setupSeconds.size()) /
                                   kSetups) {
      setUp();
    }
    if (i % kColdEvery == 0) coldSlot = rng() % kColdEvery;
    const bool cold = i % kColdEvery == coldSlot;
    const std::string line = cold ? gridRequest(--coldBudget) : warm;

    const Clock::time_point start = Clock::now();
    std::string reply;
    try {
      reply = daemon->request(line);
    } catch (const Fault& fault) {
      std::cerr << "perfbench: request failed: " << fault.what() << "\n";
    }
    const double seconds = secondsSince(start);

    const std::optional<std::uint64_t> retired =
        checkGridReply(reply, golden);
    result.attempted += 1;
    if (!retired) {
      result.failed += 1;
      std::cerr << "perfbench: wrong " << (cold ? "cold" : "warm")
                << " reply: " << reply.substr(0, 200) << "\n";
    }
    rttMs.push_back(seconds * 1e3);
    perCellMs.push_back(seconds * 1e3 / static_cast<double>(cellCount));
    busySeconds += seconds;
    instructions += retired.value_or(0);
  }

  while (setupSeconds.size() < kSetups) setUp();
  const double rss = daemon->peakRssMb();
  daemon->stop();
  std::filesystem::remove_all(args.workDir);

  // The fastest set-up, as for the cells (README.md, "Host noise").
  result.add("setup_s",
             *std::min_element(setupSeconds.begin(), setupSeconds.end()), "s");
  // Simulated instructions delivered to the client per host second, from
  // the store or freshly simulated.
  result.add("sim_mips", static_cast<double>(instructions) / busySeconds / 1e6,
             "Minst/s");
  result.add("cell_ms_p50", percentile(perCellMs, 50), "ms");
  result.add("cell_ms_p90", percentile(perCellMs, 90), "ms");
  result.add("rtt_ms_p50", percentile(rttMs, 50), "ms");
  result.add("rtt_ms_p99", percentile(rttMs, 99), "ms");
  result.add("peak_rss_mb", rss, "MiB");
  return result;
}

}  // namespace perfbench
