#include "verify/conformance/oracle.hpp"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "analysis/path_length.hpp"
#include "core/machine.hpp"
#include "kgen/interp.hpp"
#include "support/fault.hpp"
#include "uarch/fusion/fusion.hpp"
#include "verify/conformance/invariant_checker.hpp"

namespace riscmp::verify::conformance {

namespace {

/// FNV-1a 64-bit. Stable everywhere; the golden snapshots depend on it.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void u8(std::uint8_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    u8(0);  // delimit so ("ab","c") != ("a","bc")
  }
};

/// One store record, attributed to the enclosing kernel ("" for stores
/// outside every kernel region, i.e. the epilogue scalar spills).
struct StoreRec {
  std::string kernel;
  std::uint64_t addr = 0;
  std::uint8_t size = 0;

  bool operator==(const StoreRec&) const = default;
};

/// Streams the trace into the trace digest and the flattened store stream.
class TraceRecorder final : public TraceObserver {
 public:
  explicit TraceRecorder(const Program& program) : program_(program) {}

  void onRetireBlock(std::span<const RetiredInst> block) override {
    for (const RetiredInst& inst : block) {
      digest_.u64(inst.pc);
      digest_.u64(inst.encoding);
      digest_.u8(static_cast<std::uint8_t>(inst.group));
      digest_.u8(static_cast<std::uint8_t>(inst.srcs.size()));
      for (const Reg src : inst.srcs) digest_.u8(src.dense());
      digest_.u8(static_cast<std::uint8_t>(inst.dsts.size()));
      for (const Reg dst : inst.dsts) digest_.u8(dst.dense());
      for (const MemAccess& load : inst.loads) {
        digest_.u64(load.addr);
        digest_.u8(load.size);
      }
      const Symbol* kernel =
          inst.stores.empty() ? nullptr : program_.kernelAt(inst.pc);
      for (const MemAccess& store : inst.stores) {
        digest_.u64(store.addr);
        digest_.u8(store.size);
        stores_.push_back(
            StoreRec{kernel != nullptr ? kernel->name : std::string(),
                     store.addr, store.size});
      }
      if (inst.isBranch) {
        digest_.u8(inst.branchTaken ? 2 : 1);
        digest_.u64(inst.branchTarget);
      }
    }
  }

  [[nodiscard]] std::uint64_t traceDigest() const { return digest_.h; }
  [[nodiscard]] const std::vector<StoreRec>& stores() const { return stores_; }

  [[nodiscard]] std::uint64_t storeDigest() const {
    Fnv64 digest;
    for (const StoreRec& store : stores_) {
      digest.str(store.kernel);
      digest.u64(store.addr);
      digest.u8(store.size);
    }
    return digest.h;
  }

 private:
  const Program& program_;
  Fnv64 digest_;
  std::vector<StoreRec> stores_;
};

/// Bit-exact double comparison where NaN == NaN (the rule the existing
/// workload validation uses): the backends and the interpreter contract FMA
/// identically, so anything weaker would hide real divergences.
bool sameValue(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

std::string describeStore(const StoreRec& store) {
  std::ostringstream out;
  out << (store.kernel.empty() ? std::string("<outside kernels>")
                               : store.kernel)
      << " " << fault_detail::hexAddr(store.addr) << " size "
      << static_cast<int>(store.size);
  return out.str();
}

std::uint64_t memoryImageDigest(const Program& program, Machine& machine) {
  const std::uint64_t dataEnd = program.dataBase + program.data.size();
  const std::uint64_t bssEnd = program.bssBase + program.bssSize;
  const std::uint64_t end = bssEnd > dataEnd ? bssEnd : dataEnd;
  Fnv64 digest;
  for (std::uint64_t addr = program.dataBase; addr < end; ++addr) {
    digest.u8(machine.memory().read<std::uint8_t>(addr));
  }
  return digest.h;
}

std::uint64_t registerImageDigest(const Machine& machine) {
  Fnv64 digest;
  for (const auto& [name, value] : machine.registers()) {
    digest.str(name);
    digest.u64(value);
  }
  return digest.h;
}

/// Per-config cap on value-mismatch findings; everything past it collapses
/// into one "... and N more" line so a wholesale divergence stays readable.
constexpr int kMaxValueFindings = 6;

}  // namespace

std::vector<OracleConfig> allConfigs() {
  using kgen::CompilerEra;
  return {{Arch::AArch64, CompilerEra::Gcc9},
          {Arch::Rv64, CompilerEra::Gcc9},
          {Arch::AArch64, CompilerEra::Gcc12},
          {Arch::Rv64, CompilerEra::Gcc12}};
}

std::string configLabel(const OracleConfig& config) {
  return std::string(config.arch == Arch::Rv64 ? "rv64" : "aarch64") +
         (config.era == kgen::CompilerEra::Gcc9 ? "/gcc9" : "/gcc12");
}

bool OracleReport::hasDivergence() const {
  for (const Finding& finding : findings) {
    if (finding.kind == Finding::Kind::Divergence) return true;
  }
  return false;
}

bool OracleReport::hasViolation() const {
  for (const Finding& finding : findings) {
    if (finding.kind == Finding::Kind::InvariantViolation) return true;
  }
  return false;
}

std::string OracleReport::summary() const {
  std::ostringstream out;
  for (const Finding& finding : findings) {
    switch (finding.kind) {
      case Finding::Kind::Divergence:
        out << "divergence";
        break;
      case Finding::Kind::InvariantViolation:
        out << "invariant violation";
        break;
      case Finding::Kind::Fault:
        out << "fault";
        break;
    }
    out << " [" << finding.config << "] " << finding.detail << "\n";
  }
  return out.str();
}

OracleReport runOracle(const kgen::Module& module,
                       const OracleOptions& options) {
  module.validate();

  kgen::Interpreter interp(module);
  interp.run();

  const std::vector<OracleConfig> configs =
      options.configs.empty() ? allConfigs() : options.configs;
  const CompileFn compileFn =
      options.compileFn
          ? options.compileFn
          : [](const kgen::Module& m, const OracleConfig& c) {
              return std::make_shared<const kgen::Compiled>(
                  kgen::compile(m, c.arch, c.era));
            };

  OracleReport report;
  // Store stream of the first configuration that ran to completion; every
  // later run must match it exactly.
  std::vector<StoreRec> referenceStores;
  std::string referenceLabel;

  for (const OracleConfig& config : configs) {
    const std::string label = configLabel(config);
    const auto fail = [&](Finding::Kind kind, std::string detail) {
      report.findings.push_back(Finding{kind, label, std::move(detail)});
    };

    std::shared_ptr<const kgen::Compiled> compiled;
    try {
      compiled = compileFn(module, config);
    } catch (const std::exception& error) {
      fail(Finding::Kind::Fault,
           std::string("compilation failed: ") + error.what());
      continue;
    }

    MachineOptions machineOptions;
    machineOptions.maxInstructions = options.budget;
    Machine machine(compiled->program, machineOptions);

    PathLengthCounter pathLength(compiled->program);
    TraceInvariantChecker checker(compiled->program, machine.memory().base(),
                                  machine.memory().end());
    TraceRecorder recorder(compiled->program);
    machine.addObserver(pathLength);
    if (options.checkInvariants) machine.addObserver(checker);
    machine.addObserver(recorder);

    RunResult result;
    try {
      result = machine.run();
    } catch (const Fault& fault) {
      fail(fault.kind() == FaultKind::Validation
               ? Finding::Kind::InvariantViolation
               : Finding::Kind::Fault,
           fault.report());
      continue;
    }
    if (!result.exitedCleanly) {
      fail(Finding::Kind::Fault, "run ended without reaching the exit "
                                 "syscall");
      continue;
    }

    if (options.checkInvariants) {
      std::uint64_t kernelSum = 0;
      for (const auto& kernel : pathLength.kernels()) {
        kernelSum += kernel.count;
      }
      try {
        checkRetiredConsistency(result.instructions, checker,
                                pathLength.total(), kernelSum,
                                pathLength.unattributed());
      } catch (const Fault& fault) {
        fail(Finding::Kind::InvariantViolation, fault.what());
      }
    }

    // Final memory vs the reference interpreter.
    int valueFindings = 0;
    std::uint64_t suppressed = 0;
    const auto mismatch = [&](const std::string& where, double simulated,
                              double expected) {
      if (valueFindings >= kMaxValueFindings) {
        ++suppressed;
        return;
      }
      ++valueFindings;
      std::ostringstream out;
      out.precision(17);
      out << where << " = " << simulated << ", interpreter says " << expected;
      fail(Finding::Kind::Divergence, out.str());
    };

    for (const kgen::ArrayDecl& array : module.arrays) {
      const std::uint64_t base = compiled->arrayAddr.at(array.name);
      const std::vector<double>& expected = interp.array(array.name);
      for (std::int64_t i = 0; i < array.elems; ++i) {
        const double simulated = machine.memory().read<double>(
            base + static_cast<std::uint64_t>(i) * 8);
        if (!sameValue(simulated, expected[static_cast<std::size_t>(i)])) {
          mismatch(array.name + "[" + std::to_string(i) + "]", simulated,
                   expected[static_cast<std::size_t>(i)]);
        }
      }
    }
    for (const kgen::ScalarDecl& scalar : module.scalars) {
      const double simulated =
          machine.memory().read<double>(compiled->scalarAddr.at(scalar.name));
      const double expected = interp.scalarValue(scalar.name);
      if (!sameValue(simulated, expected)) {
        mismatch("scalar " + scalar.name, simulated, expected);
      }
    }
    if (suppressed > 0) {
      fail(Finding::Kind::Divergence,
           "... and " + std::to_string(suppressed) + " more value mismatches");
    }

    // Store stream vs the first completed configuration.
    if (referenceLabel.empty()) {
      referenceStores = recorder.stores();
      referenceLabel = label;
    } else if (recorder.stores() != referenceStores) {
      const std::vector<StoreRec>& mine = recorder.stores();
      std::size_t at = 0;
      while (at < mine.size() && at < referenceStores.size() &&
             mine[at] == referenceStores[at]) {
        ++at;
      }
      std::ostringstream out;
      out << "store stream diverges from " << referenceLabel << " at store #"
          << at << " (" << mine.size() << " vs " << referenceStores.size()
          << " stores): ";
      if (at < mine.size()) {
        out << describeStore(mine[at]);
      } else {
        out << "<stream ended>";
      }
      out << " vs ";
      if (at < referenceStores.size()) {
        out << describeStore(referenceStores[at]);
      } else {
        out << "<stream ended>";
      }
      fail(Finding::Kind::Divergence, out.str());
    }

    RunDigest digest;
    digest.config = label;
    digest.retired = result.instructions;
    digest.traceDigest = recorder.traceDigest();
    digest.storeDigest = recorder.storeDigest();
    digest.memoryDigest = memoryImageDigest(compiled->program, machine);
    digest.registerDigest = registerImageDigest(machine);

    // Fusion semantics cross-check (ISSUE 8): replay the same compiled
    // program with the macro-op FusionPass attached. The pass is a pure
    // observer, so everything architectural must be bit-identical to the
    // fusion-off run — any difference is a fusion (or machine) bug.
    if (options.fusion) {
      Machine fusedMachine(compiled->program, machineOptions);
      TraceRecorder upstream(compiled->program);
      PathLengthCounter fusedPathLength(compiled->program);
      uarch::FusionPass fusionPass(
          uarch::FusionConfig::allRulesFor(config.arch), compiled->program,
          {&fusedPathLength});
      fusedMachine.addObserver(upstream);
      fusedMachine.addObserver(fusionPass);

      bool fusedOk = false;
      RunResult fusedResult;
      try {
        fusedResult = fusedMachine.run();
        fusedOk = fusedResult.exitedCleanly;
        if (!fusedOk) {
          fail(Finding::Kind::Divergence,
               "fusion-enabled run ended without reaching the exit syscall "
               "but the fusion-off run exited cleanly");
        }
      } catch (const Fault& fault) {
        fail(Finding::Kind::Divergence,
             std::string("fusion-enabled run faulted but the fusion-off run "
                         "was clean: ") +
                 fault.report());
      }

      if (fusedOk) {
        if (fusedResult.instructions != result.instructions) {
          fail(Finding::Kind::Divergence,
               "fusion-enabled run retired " +
                   std::to_string(fusedResult.instructions) +
                   " instructions, fusion-off retired " +
                   std::to_string(result.instructions));
          fusedOk = false;
        }
        if (upstream.traceDigest() != recorder.traceDigest()) {
          fail(Finding::Kind::Divergence,
               "unfused retired stream differs under fusion (trace digest "
               "mismatch)");
          fusedOk = false;
        }
        if (upstream.storeDigest() != recorder.storeDigest()) {
          fail(Finding::Kind::Divergence,
               "store stream differs under fusion");
          fusedOk = false;
        }
        if (memoryImageDigest(compiled->program, fusedMachine) !=
            digest.memoryDigest) {
          fail(Finding::Kind::Divergence,
               "final memory image differs under fusion");
          fusedOk = false;
        }
        if (registerImageDigest(fusedMachine) != digest.registerDigest) {
          fail(Finding::Kind::Divergence,
               "final register file differs under fusion");
          fusedOk = false;
        }
        // Pair accounting: every retired record is forwarded exactly once,
        // either alone or as half of one macro-op.
        if (fusionPass.outputInstructions() + fusionPass.pairs() !=
            fusedResult.instructions) {
          fail(Finding::Kind::InvariantViolation,
               "fusion pair accounting: forwarded " +
                   std::to_string(fusionPass.outputInstructions()) +
                   " + pairs " + std::to_string(fusionPass.pairs()) +
                   " != retired " +
                   std::to_string(fusedResult.instructions));
          fusedOk = false;
        }
        if (fusedPathLength.total() != fusionPass.outputInstructions()) {
          fail(Finding::Kind::InvariantViolation,
               "downstream analyzer saw " +
                   std::to_string(fusedPathLength.total()) +
                   " macro-ops but the pass forwarded " +
                   std::to_string(fusionPass.outputInstructions()));
          fusedOk = false;
        }
      }
      if (fusedOk) {
        digest.fused = true;
        digest.fusedRetired = fusionPass.outputInstructions();
        digest.fusionPairs = fusionPass.pairs();
      }
    }

    report.runs.push_back(std::move(digest));
  }
  return report;
}

}  // namespace riscmp::verify::conformance
