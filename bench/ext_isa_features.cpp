// Extension — ISA-feature ablation (quantifying the §3.3 mechanisms in
// isolation). Three probe kernels isolate the effects the paper discusses:
//
//   copy1   c[i] = a[i]            — addressing modes + loop control
//   triad3  a[i] = b[i] + s*c[i]   — three live arrays (the paper: "AArch64
//                                    wins on add and triad ... the need to
//                                    only increment one register instead of
//                                    three")
//   stencil o[i] = in[i-1]+in[i+1] — offset reuse within one pointer group
//
// For each probe the per-iteration instruction budget is derived from two
// run lengths, separating loop-body cost from prologue cost. Probe cells
// run in parallel on the engine's worker pool through its compile cache.
#include <iostream>

#include "harness.hpp"
#include "kgen/compile.hpp"
#include "support/table.hpp"

using namespace riscmp;
using namespace riscmp::bench;
using namespace riscmp::kgen;

namespace {

Module copyProbe(std::int64_t n) {
  Module module;
  module.name = "copy1";
  module.array("a", n).init.assign(static_cast<std::size_t>(n), 1.0);
  module.array("c", n);
  module.kernel("k").body.push_back(
      loop("i", n, {storeArr("c", idx("i"), load("a", idx("i")))}));
  return module;
}

Module triadProbe(std::int64_t n) {
  Module module;
  module.name = "triad3";
  module.array("a", n);
  module.array("b", n).init.assign(static_cast<std::size_t>(n), 1.0);
  module.array("c", n).init.assign(static_cast<std::size_t>(n), 2.0);
  module.scalarInit("s", 3.0);
  module.kernel("k").body.push_back(loop(
      "i", n, {storeArr("a", idx("i"),
                        add(load("b", idx("i")),
                            mul(scalar("s"), load("c", idx("i")))))}));
  return module;
}

Module stencilProbe(std::int64_t n) {
  Module module;
  module.name = "stencil";
  module.array("in", n + 2).init.assign(static_cast<std::size_t>(n + 2), 1.0);
  module.array("o", n + 2);
  module.kernel("k").body.push_back(
      loop("i", n, {storeArr("o", idx("i") + 1,
                             add(load("in", idx("i")),
                                 load("in", idx("i") + 2)))}));
  return module;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const engine::EngineOptions options = engineOptions(flags);
  flags.finish();
  const auto configs = paperConfigs();
  verify::FaultBoundary boundary(std::cout);

  struct Probe {
    const char* name;
    Module (*make)(std::int64_t);
    const char* note;
  };
  const Probe probes[] = {
      {"copy1", copyProbe, "1 shared index (A64) vs 2 pointer bumps (RV)"},
      {"triad3", triadProbe, "1 shared index (A64) vs 3 pointer bumps (RV)"},
      {"stencil", stencilProbe,
       "offsets share a pointer group on both ISAs"},
  };
  constexpr std::size_t kProbeCount = std::size(probes);

  engine::ExperimentEngine eng(options);

  // One cell per probe×config; the per-iteration cost comes from two run
  // lengths, both compiled through the engine's cache and simulated on the
  // cell's worker.
  std::vector<double> perIter(kProbeCount * configs.size());
  std::vector<engine::ExperimentEngine::RawJob> jobs;
  for (std::size_t p = 0; p < kProbeCount; ++p) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::size_t slot = p * configs.size() + c;
      jobs.push_back(
          {std::string(probes[p].name) + "/" + configName(configs[c]),
           nullptr, configs[c],
           [&, p, c, slot](engine::ExperimentEngine::CellContext& ctx) {
             const std::int64_t n1 = 256;
             const std::int64_t n2 = 512;
             const auto count = [&](std::int64_t n) {
               const auto compiled =
                   ctx.engine.compile(probes[p].make(n), configs[c]);
               return ctx.engine.simulate(*compiled, {});
             };
             perIter[slot] = static_cast<double>(count(n2) - count(n1)) /
                             static_cast<double>(n2 - n1);
           }});
    }
  }
  const auto outcomes = eng.runJobs(jobs);
  engine::mergeIntoBoundary(outcomes, boundary, std::cout);

  std::cout << "Extension: per-iteration instruction budgets for probe "
               "kernels (the §3.3 mechanisms in isolation)\n\n";

  Table table({"probe", "GCC9 A64", "GCC9 RV", "GCC12 A64", "GCC12 RV",
               "era delta (A64)", "note"});
  for (std::size_t p = 0; p < kProbeCount; ++p) {
    const auto ok = [&](std::size_t c) {
      return outcomes[p * configs.size() + c].cell.ok;
    };
    const auto cell = [&](std::size_t c) {
      return ok(c) ? sigFigs(perIter[p * configs.size() + c], 3)
                   : std::string("-");
    };
    table.addRow({probes[p].name, cell(0), cell(1), cell(2), cell(3),
                  ok(0) && ok(2)
                      ? sigFigs(perIter[p * configs.size()] -
                                    perIter[p * configs.size() + 2],
                                2)
                      : std::string("-"),
                  probes[p].note});
  }
  std::cout << table << "\n";

  std::cout
      << "Readings:\n"
      << "  * copy1: 5 vs 5 per element under GCC 12.2 (paper Listings "
         "1/2); the GCC 9.2 era costs AArch64 exactly +1.\n"
      << "  * triad3: RISC-V pays one add per live array, AArch64 one "
         "shared index + compare — the addressing-mode trade the paper "
         "analyses.\n"
      << "  * stencil: constant offsets fold into displacements on both "
         "ISAs, so neither pays per-offset instructions.\n"
      << "  * The paper's upper bound: conditional-branch compare overhead "
         "can cost AArch64 up to 15% extra instructions; register-offset "
         "addressing can save it one instruction per extra array.\n";
  std::cout << engine::describe(eng.stats()) << "\n";
  return boundary.finish();
}
