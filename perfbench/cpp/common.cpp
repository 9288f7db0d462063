#include "common.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "engine/cell_codec.hpp"

extern char** environ;

namespace perfbench {

using namespace riscmp;

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench run|golden|setup --workload NAME "
               "--seed N --seconds S --trace 0|1 --golden FILE --simd PATH "
               "--work-dir DIR [--inject-mismatch CELL]\n";
  std::exit(2);
}

std::uint64_t parseUint(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage("invalid value for " + flag + ": '" + text + "'");
}

}  // namespace

Args parseArgs(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parseUint(flag, value);
    } else if (flag == "--seconds") {
      try {
        args.seconds = std::stod(value);
      } catch (const std::exception&) {
        usage("invalid value for --seconds: '" + value + "'");
      }
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = parseUint(flag, value) != 0;
    } else if (flag == "--golden") {
      args.golden = value;
    } else if (flag == "--inject-mismatch") {
      args.injectMismatch = value;
    } else if (flag == "--simd") {
      args.simd = value;
    } else if (flag == "--work-dir") {
      args.workDir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return args;
}

const char* stackName(Stack stack) {
  switch (stack) {
    case Stack::Paper:
      return "paper";
    case Stack::Uarch:
      return "uarch";
    case Stack::Service:
      return "service";
  }
  return "?";
}

engine::GridSpec stackSpec(Stack stack) {
  engine::GridSpec spec;
  switch (stack) {
    case Stack::Paper:
      // paper_report's grid: PL, CP and scaled CP everywhere, windowed CP
      // and dependency distance on the GCC 12.2 columns only.
      spec.scale = 0.1;
      spec.analyses =
          engine::kPathLength | engine::kCriticalPath | engine::kScaledCP;
      spec.gcc12Analyses = engine::kWindowedCP | engine::kDepDistance;
      spec.windowSizes = WindowedCPAnalyzer::paperWindowSizes();
      spec.modelA64 = "tx2";
      spec.modelRv64 = "riscv-tx2";
      break;
    case Stack::Uarch:
      // The extension analyses on the shipped TX2 models. At scale 0.5
      // STREAM's three arrays hold 3 x 12,500 doubles = 300,000 bytes,
      // more than the modelled 256 KiB L2.
      spec.scale = 0.5;
      spec.analyses = engine::kCacheModel | engine::kCacheAwareCP |
                      engine::kThroughputBound | engine::kFusion |
                      engine::kMemSystem;
      spec.modelA64 = "tx2";
      spec.modelRv64 = "riscv-tx2";
      spec.requireModels = true;
      break;
    case Stack::Service:
      // Light analyses, so a cold request costs mostly emulation and the
      // warm path is store + codec + JSON.
      spec.scale = 0.05;
      spec.workloads = {"STREAM", "miniBUDE", "minisweep"};
      spec.analyses = engine::kPathLength | engine::kCriticalPath;
      break;
  }
  return spec;
}

std::string cellName(const engine::CellKey& key) {
  return key.workload + "/" + engine::eraToken(key.config.era) + "/" +
         engine::archToken(key.config.arch);
}

Golden::Golden(const std::string& path, const std::string& injectMismatch) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perfbench: cannot read golden digests " << path << "\n";
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string stack;
    std::string cell;
    std::string hex;
    if (!(fields >> stack >> cell >> hex)) continue;
    std::uint64_t digest = std::strtoull(hex.c_str(), nullptr, 16);
    // The benchmark's own test flips one expected digest to prove that a
    // wrong result is counted as a failed op.
    if (cell == injectMismatch) digest ^= 1;
    digests_[stack + " " + cell] = digest;
  }
}

bool Golden::check(Stack stack, const engine::CellResult& result) const {
  if (!result.cell.ok) return false;
  const auto it =
      digests_.find(std::string(stackName(stack)) + " " + cellName(result.key));
  return it != digests_.end() && it->second == engine::cellDigest(result);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::optional<double> timeSelf(std::vector<std::string> args) {
  const char* exe = "/proc/self/exe";
  args.insert(args.begin(), exe);
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const Clock::time_point start = Clock::now();
  pid_t pid = -1;
  int status = 0;
  if (posix_spawn(&pid, exe, nullptr, nullptr, argv.data(), environ) != 0) {
    throw std::runtime_error("cannot start the benchmark binary itself");
  }
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::nullopt;
  }
  return secondsSince(start);
}

double selfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pidPeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Result::fail(const std::string& why) {
  std::cerr << "perfbench: check failed: " << why << "\n";
  broken = true;
}

void Result::print() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 && !broken ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", metrics[i].second.value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics[i].second.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace perfbench
