// Differential conformance campaign driver (ISSUE 3 tentpole CLI).
//
// Generates seeded random kernels, runs each through the reference
// interpreter and both ISA backends under both compiler eras, and reports
// any divergence (minimized to the smallest failing module) or trace
// invariant violation:
//
//   $ ./build/bench/sim_conformance --seed=2026 --count=200 --jobs=8
//
// Flags: --seed=N         base seed; kernel i replays as --seed=N+i --count=1
//        --count=N        kernels to generate (default 200; 0 is an error)
//        --jobs=N         worker threads (default: hardware concurrency)
//        --budget=N       instruction budget per run
//        --digest-file=P  write the per-run digest lines to P (golden format)
//        --no-shrink      skip divergence minimization
//        --fusion         replay every run with the macro-op FusionPass and
//                         assert identical architectural state (ISSUE 8);
//                         digest lines gain fused=/pairs= fields
//
// Exit: 0 clean, 1 findings, 2 usage error.
#include <iostream>
#include <string>

#include "harness.hpp"
#include "support/atomic_file.hpp"
#include "verify/conformance/campaign.hpp"

using namespace riscmp;
using namespace riscmp::bench;
using verify::conformance::CampaignOptions;
using verify::conformance::CampaignResult;
using verify::conformance::KernelOutcome;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  CampaignOptions options;
  options.seed = flags.number("seed", options.seed);
  options.count = flags.number(
      "count", options.count, [](int n) { return n > 0; },
      "a positive kernel count");
  options.jobs = jobsFlag(flags);
  options.budget = flags.number("budget", kDefaultInstructionBudget);
  options.shrink = !flags.isSet("no-shrink");
  options.fusion = flags.isSet("fusion");
  const std::string digestFile = flags.text("digest-file").value_or("");
  flags.finish();

  std::cout << "Conformance campaign: " << options.count
            << " kernels from seed " << options.seed
            << " (interpreter vs both ISAs x both eras"
            << (options.fusion ? ", fusion replay on" : "") << ")\n\n";

  const CampaignResult result = verify::conformance::runCampaign(options);

  for (const KernelOutcome& outcome : result.outcomes) {
    if (outcome.report.ok()) continue;
    std::cout << "kernel seed=" << outcome.seed << " FAILED:\n"
              << outcome.report.summary();
    if (!outcome.minimized.empty()) {
      std::cout << "minimized repro (" << outcome.minimizedOps << " ops):\n"
                << outcome.minimized;
    }
    std::cout << "replay: sim_conformance --seed=" << outcome.seed
              << " --count=1\n\n";
  }

  if (!digestFile.empty()) {
    // Stage-and-rename so a killed campaign never leaves a truncated
    // digest file for the next differential run to trust.
    std::string writeError;
    if (!support::writeFileAtomic(digestFile, result.digestText(),
                                  &writeError)) {
      std::cerr << "error: cannot write " << digestFile << ": " << writeError
                << "\n";
      return 2;
    }
    std::cout << "wrote digests to " << digestFile << "\n";
  }

  std::cout << result.summary() << "\n"
            << engine::describe(result.engineStats) << "\n";
  return result.clean() ? 0 : 1;
}
