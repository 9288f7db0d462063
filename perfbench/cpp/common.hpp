// Shared pieces of the riscmp benchmark binary: the three grid stacks it
// measures, golden-digest checking, timing and percentile helpers, and the
// one-line JSON result every mode prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/grid_spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command line shared by every mode (`perfbench <mode> --key value ...`).
struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;          ///< golden digest file
  std::string injectMismatch;  ///< cell name whose golden digest is flipped
  std::string simd;            ///< path of the simd daemon binary
  std::string workDir;         ///< scratch directory (stores, sockets)
};

/// Parses argv; exits 2 with a message on anything malformed.
Args parseArgs(int argc, char** argv);

/// The grids the benchmark drives, each a GridSpec resolved by the engine
/// exactly as the report benches and the daemon resolve theirs.
enum class Stack { Paper, Uarch, Service };
const char* stackName(Stack stack);
riscmp::engine::GridSpec stackSpec(Stack stack);

/// "STREAM/gcc12/rv64": how golden files and failure messages name a cell.
std::string cellName(const riscmp::engine::CellKey& key);

/// Expected cellDigest per (stack, cell), read from the committed golden
/// file. The benchmark counts an op whose result digest differs (or whose
/// cell is missing from the file) as failed.
class Golden {
 public:
  Golden() = default;
  Golden(const std::string& path, const std::string& injectMismatch);

  /// True when `result` ran ok and its digest matches the golden one.
  [[nodiscard]] bool check(Stack stack,
                           const riscmp::engine::CellResult& result) const;

 private:
  std::map<std::string, std::uint64_t> digests_;  // "<stack> <cell>"
};

/// Linear-interpolation percentile (numpy's default) of `values`, p in
/// [0, 100]; values need not be sorted. Returns 0 for an empty input.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Runs this binary with `args` in a child process and waits for it: the
/// host seconds from spawn to reaping, or nullopt unless it exited with 0.
std::optional<double> timeSelf(std::vector<std::string> args);

/// Peak resident set of this process, or of `pid` (VmHWM), in MiB.
double selfPeakRssMb();
double pidPeakRssMb(int pid);

/// Ops attempted / failed plus named metrics, printed as the benchmark's
/// final stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool broken = false;  ///< a check outside per-op digests failed
  struct Metric {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Metric>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, Metric{value, unit}});
  }
  /// A check outside the per-op digests failed: report it on stderr and
  /// print `"correct": false`.
  void fail(const std::string& why);
  void print() const;
};

}  // namespace perfbench
