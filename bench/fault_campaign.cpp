// Fault-injection campaign driver (ISSUE 1 tentpole, part 2).
//
// Runs the three differential campaigns from the command line and prints a
// classified-outcome tally for each:
//
//   word   — corrupted encodings through decode→disassemble→assemble
//   exec   — corrupted programs through emulate-vs-interpreter
//   config — corrupted core-model YAML through the validating loader
//
//   $ ./build/bench/fault_campaign --seed=1 --rounds=10000
//
// Flags: --seed=N          campaign seed (default 42)
//        --rounds=N        corrupted words per ISA (default 10000)
//        --exec-rounds=N   corrupted programs per (ISA, era) (default 25)
//        --config-rounds=N corrupted YAML variants (default 200)
//        --budget=N        instruction budget per corrupted run
//
// Exit code is non-zero if any outcome escapes the fault taxonomy.
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kgen/compile.hpp"
#include "support/read_file.hpp"
#include "uarch/core_model.hpp"
#include "verify/differential.hpp"
#include "workloads/workloads.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

/// Corpus of valid words for one ISA: the STREAM kernels under both eras.
std::vector<std::uint32_t> corpusFor(Arch arch) {
  const kgen::Module stream = workloads::makeStream({.n = 256, .reps = 1});
  std::vector<std::uint32_t> corpus;
  for (const auto era : {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
    const auto compiled = kgen::compile(stream, arch, era);
    corpus.insert(corpus.end(), compiled.program.code.begin(),
                  compiled.program.code.end());
  }
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto seed = flags.number<std::uint64_t>("seed", 42);
  const auto rounds = flags.number<std::uint64_t>("rounds", 10000);
  const int execRounds = flags.number("exec-rounds", 25);
  const int configRounds = flags.number("config-rounds", 200);
  const std::uint64_t budget =
      flags.number("budget", kDefaultInstructionBudget);
  flags.finish();

  bool classified = true;

  std::cout << "Fault-injection campaign (seed " << seed << ")\n\n";

  for (const Arch arch : {Arch::Rv64, Arch::AArch64}) {
    const auto corpus = corpusFor(arch);
    const auto stats = verify::decodeCampaign(arch, corpus, seed, rounds);
    std::cout << "word campaign, " << archName(arch) << " (" << rounds
              << " corrupted words from a " << corpus.size()
              << "-word corpus):\n  " << stats.summary() << "\n";
    classified &= stats.allClassified();
    if (!stats.allClassified()) {
      std::cout << "  FIRST ESCAPE: " << stats.firstUnclassified << "\n";
    }
  }

  {
    const kgen::Module stream = workloads::makeStream({.n = 64, .reps = 1});
    const auto stats = verify::execCampaign(stream, seed, execRounds, budget);
    std::cout << "\nexec campaign (" << execRounds
              << " corrupted programs per ISA x era):\n  " << stats.summary()
              << "\n";
    classified &= stats.allClassified();
    if (!stats.allClassified()) {
      std::cout << "  FIRST ESCAPE: " << stats.firstUnclassified << "\n";
    }
  }

  {
    const std::string path = uarch::configDir() + "/tx2.yaml";
    bool opened = false;
    const std::string text = support::readWholeFile(path, &opened);
    if (!opened) {
      std::cerr << "cannot open " << path << "\n";
      return 1;
    }
    const auto stats = verify::configCampaign(text, seed, configRounds);
    std::cout << "\nconfig campaign (" << configRounds
              << " corrupted variants of tx2.yaml):\n  " << stats.summary()
              << "\n";
    classified &= stats.allClassified();
    if (!stats.allClassified()) {
      std::cout << "  FIRST ESCAPE: " << stats.firstUnclassified << "\n";
    }
  }

  std::cout << (classified
                    ? "\nAll outcomes classified by the fault taxonomy.\n"
                    : "\nUNCLASSIFIED outcomes escaped the taxonomy — "
                      "engine bug.\n");
  return classified ? 0 : 1;
}
