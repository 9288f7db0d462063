#include "verify/differential.hpp"

#include <cmath>
#include <sstream>

#include "aarch64/asm.hpp"
#include "aarch64/decode.hpp"
#include "aarch64/disasm.hpp"
#include "core/machine.hpp"
#include "kgen/interp.hpp"
#include "riscv/asm.hpp"
#include "riscv/decode.hpp"
#include "riscv/disasm.hpp"
#include "support/fault.hpp"
#include "uarch/core_model.hpp"

namespace riscmp::verify {
namespace {

std::string hexWord(std::uint32_t word) { return fault_detail::hexWord(word); }

OutcomeKind outcomeForFault(const Fault& fault) {
  switch (fault.kind()) {
    case FaultKind::Decode:
      return OutcomeKind::DecodeFault;
    case FaultKind::Memory:
      return OutcomeKind::MemoryFault;
    case FaultKind::Trap:
      return OutcomeKind::TrapFault;
    case FaultKind::Budget:
      return OutcomeKind::BudgetExceeded;
    case FaultKind::Config:
      return OutcomeKind::ConfigError;
    case FaultKind::Validation:
      return OutcomeKind::Divergence;
    case FaultKind::Timeout:
    case FaultKind::Crash:
      return OutcomeKind::Unclassified;
  }
  return OutcomeKind::Unclassified;
}

/// Shared decode→disassemble→assemble round-trip; Decoder/Disasm/Asm are
/// the per-ISA entry points.
template <typename DecodeFn, typename DisasmFn, typename AsmFn>
Outcome roundTripWord(std::uint32_t word, DecodeFn&& decodeFn,
                      DisasmFn&& disasmFn, AsmFn&& asmFn) {
  const auto inst = decodeFn(word);
  if (!inst) return {OutcomeKind::DecodeFault, {}};

  const std::string text = disasmFn(*inst);
  std::vector<std::uint32_t> rewords;
  try {
    rewords = asmFn(text);
  } catch (const std::exception& e) {
    return {OutcomeKind::Divergence, "word " + hexWord(word) +
                                         " disassembles to '" + text +
                                         "' which does not re-assemble: " +
                                         e.what()};
  }
  if (rewords.size() != 1) {
    return {OutcomeKind::Divergence,
            "'" + text + "' re-assembled to " +
                std::to_string(rewords.size()) + " words"};
  }
  if (rewords[0] == word) return {OutcomeKind::ValidDecode, {}};

  // The re-encoding may legitimately differ (alias/canonical forms); the
  // round trip still agrees if both encodings disassemble identically.
  const auto reinst = decodeFn(rewords[0]);
  if (reinst && disasmFn(*reinst) == text) {
    return {OutcomeKind::ValidDecode, {}};
  }
  return {OutcomeKind::Divergence,
          "round-trip mismatch: " + hexWord(word) + " ('" + text + "') -> " +
              hexWord(rewords[0]) +
              (reinst ? " ('" + disasmFn(*reinst) + "')"
                      : " (undecodable)")};
}

}  // namespace

std::string_view outcomeName(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::ValidDecode:
      return "valid-decode";
    case OutcomeKind::DecodeFault:
      return "decode-fault";
    case OutcomeKind::CleanRun:
      return "clean-run";
    case OutcomeKind::MemoryFault:
      return "memory-fault";
    case OutcomeKind::TrapFault:
      return "trap-fault";
    case OutcomeKind::BudgetExceeded:
      return "budget-exceeded";
    case OutcomeKind::ConfigError:
      return "config-error";
    case OutcomeKind::Divergence:
      return "divergence";
    case OutcomeKind::Unclassified:
      return "UNCLASSIFIED";
  }
  return "?";
}

void CampaignStats::record(const Outcome& outcome) {
  ++counts[static_cast<std::size_t>(outcome.kind)];
  ++total;
  if (outcome.kind == OutcomeKind::Unclassified &&
      firstUnclassified.empty()) {
    firstUnclassified =
        outcome.detail.empty() ? "(no detail)" : outcome.detail;
  }
}

std::string CampaignStats::summary() const {
  std::ostringstream out;
  out << total << " outcomes:";
  for (std::size_t i = 0; i < kOutcomeKinds; ++i) {
    if (counts[i] == 0) continue;
    out << " " << outcomeName(static_cast<OutcomeKind>(i)) << "=" << counts[i];
  }
  if (!allClassified()) out << " | first escape: " << firstUnclassified;
  return out.str();
}

Outcome classifyWord(Arch arch, std::uint32_t word) {
  try {
    if (arch == Arch::Rv64) {
      return roundTripWord(
          word, [](std::uint32_t w) { return rv64::decode(w); },
          [](const rv64::Inst& inst) { return rv64::disassemble(inst, 0); },
          [](const std::string& text) { return rv64::assemble(text, 0); });
    }
    return roundTripWord(
        word, [](std::uint32_t w) { return a64::decode(w); },
        [](const a64::Inst& inst) { return a64::disassemble(inst, 0); },
        [](const std::string& text) { return a64::assemble(text, 0); });
  } catch (const std::exception& e) {
    return {OutcomeKind::Unclassified,
            "exception escaped word classification of " + hexWord(word) +
                ": " + e.what()};
  } catch (...) {
    return {OutcomeKind::Unclassified,
            "non-standard exception escaped word classification of " +
                hexWord(word)};
  }
}

Outcome runCorruptedProgram(const kgen::Module& module, Arch arch,
                            kgen::CompilerEra era, FaultInjector& injector,
                            std::uint64_t budget) {
  try {
    kgen::Compiled compiled = kgen::compile(module, arch, era);
    injector.corruptCodeWord(compiled.program);

    MachineOptions options;
    options.maxInstructions = budget;
    Machine machine(compiled.program, options);
    try {
      machine.run();
    } catch (const Fault& fault) {
      return {outcomeForFault(fault), fault.report()};
    }

    // Clean exit: the corruption must not have silently changed results.
    kgen::Interpreter interp(module);
    interp.run();
    for (const kgen::ArrayDecl& array : module.arrays) {
      const std::uint64_t base = compiled.arrayAddr.at(array.name);
      const auto& expected = interp.array(array.name);
      for (std::int64_t i = 0; i < array.elems; ++i) {
        const double actual = machine.memory().read<double>(base + i * 8);
        const double want = expected[static_cast<std::size_t>(i)];
        if (std::isnan(actual) && std::isnan(want)) continue;
        if (actual != want) {
          std::ostringstream detail;
          detail << "silent divergence after clean exit: " << array.name
                 << "[" << i << "] = " << actual << ", reference " << want;
          return {OutcomeKind::Divergence, detail.str()};
        }
      }
    }
    return {OutcomeKind::CleanRun, {}};
  } catch (const std::exception& e) {
    return {OutcomeKind::Unclassified,
            "exception escaped corrupted-program run: " +
                std::string(e.what())};
  } catch (...) {
    return {OutcomeKind::Unclassified,
            "non-standard exception escaped corrupted-program run"};
  }
}

CampaignStats decodeCampaign(Arch arch, std::span<const std::uint32_t> corpus,
                             std::uint64_t seed, std::uint64_t rounds) {
  CampaignStats stats;
  if (corpus.empty()) return stats;
  FaultInjector injector(seed);
  for (std::uint64_t i = 0; i < rounds; ++i) {
    const std::uint32_t word =
        corpus[injector.rng().below(corpus.size())];
    stats.record(classifyWord(arch, injector.corruptWord(word)));
  }
  return stats;
}

CampaignStats execCampaign(const kgen::Module& module, std::uint64_t seed,
                           int roundsPerConfig, std::uint64_t budget) {
  CampaignStats stats;
  FaultInjector injector(seed);
  for (const Arch arch : {Arch::Rv64, Arch::AArch64}) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      for (int i = 0; i < roundsPerConfig; ++i) {
        stats.record(runCorruptedProgram(module, arch, era, injector, budget));
      }
    }
  }
  return stats;
}

CampaignStats configCampaign(const std::string& yamlText, std::uint64_t seed,
                             int rounds) {
  CampaignStats stats;
  FaultInjector injector(seed);
  for (int i = 0; i < rounds; ++i) {
    const std::string corrupted = injector.corruptYaml(yamlText);
    Outcome outcome;
    try {
      (void)uarch::CoreModel::fromYaml(yaml::parse(corrupted));
      outcome = {OutcomeKind::CleanRun, {}};
    } catch (const Fault& fault) {
      outcome = {outcomeForFault(fault), fault.what()};
    } catch (const std::exception& e) {
      outcome = {OutcomeKind::Unclassified,
                 "exception escaped config load: " + std::string(e.what())};
    } catch (...) {
      outcome = {OutcomeKind::Unclassified,
                 "non-standard exception escaped config load"};
    }
    stats.record(outcome);
  }
  return stats;
}

}  // namespace riscmp::verify
