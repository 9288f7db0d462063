// Experiment E6 (extension) — the paper's §8 future work: run the suite
// through a finite-resource out-of-order core model ("using real-world
// sizes for OoO resources") and compare ISA CPIs on matched hardware.
//
// Both ISAs run on the TX2-like model (AArch64: tx2, RISC-V: riscv-tx2),
// plus the hypothetical wider M1-Firestorm-like configuration the paper
// gestures at. Both models are observers on the engine's single simulation
// pass per workload×config cell (previously every model re-simulated the
// whole grid).
#include <array>
#include <iostream>
#include <optional>

#include "harness.hpp"
#include "support/table.hpp"
#include "uarch/ooo_core.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

struct ModelPair {
  const char* label;
  const char* aarch64Name;
  const char* riscvName;
  std::optional<uarch::CoreModel> aarch64;
  std::optional<uarch::CoreModel> riscv;

  [[nodiscard]] const std::optional<uarch::CoreModel>& forArch(
      Arch arch) const {
    return arch == Arch::Rv64 ? riscv : aarch64;
  }
};

/// Per-model numbers extracted from one cell's OoO observers.
struct ModelCell {
  bool present = false;
  std::uint64_t cycles = 0;
  double cpi = 0.0;
  double ipc = 0.0;
  double runtimeSeconds = 0.0;
};

struct OooCell {
  std::uint64_t instructions = 0;
  std::array<ModelCell, 2> models;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double scale = scaleFlag(flags);
  const engine::EngineOptions options = engineOptions(flags);
  flags.finish();
  const auto suite = workloads::paperSuite(scale);
  const auto configs = paperConfigs();
  verify::FaultBoundary boundary(std::cout);

  std::vector<ModelPair> models;
  models.push_back({"TX2-like (4-wide, ROB 180)", "tx2", "riscv-tx2", {}, {}});
  models.push_back({"Firestorm-like (8-wide, ROB 630)", "m1-firestorm",
                    "m1-firestorm", {}, {}});
  for (ModelPair& model : models) {
    boundary.run(std::string("load-config/") + model.aarch64Name, [&] {
      model.aarch64 = uarch::CoreModel::named(model.aarch64Name);
    });
    if (std::string(model.riscvName) == model.aarch64Name) {
      model.riscv = model.aarch64;
    } else {
      boundary.run(std::string("load-config/") + model.riscvName, [&] {
        model.riscv = uarch::CoreModel::named(model.riscvName);
      });
    }
  }

  engine::ExperimentEngine eng(options);

  // One raw job per workload×config cell; each simulates once with every
  // loaded model's OoO core attached and writes only its own slot.
  std::vector<OooCell> cells(suite.size() * configs.size());
  std::vector<engine::ExperimentEngine::RawJob> jobs;
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::size_t slot = w * configs.size() + c;
      jobs.push_back(
          {suite[w].name + "/" + configName(configs[c]), &suite[w].module,
           configs[c],
           [&, slot, w, c](engine::ExperimentEngine::CellContext& ctx) {
             std::vector<std::optional<uarch::OoOCoreModel>> cores(
                 models.size());
             std::vector<TraceObserver*> observers;
             for (std::size_t m = 0; m < models.size(); ++m) {
               if (const auto& coreModel =
                       models[m].forArch(configs[c].arch)) {
                 observers.push_back(&cores[m].emplace(*coreModel));
               }
             }
             cells[slot].instructions =
                 ctx.engine.simulate(*ctx.compiled, observers);
             for (std::size_t m = 0; m < models.size(); ++m) {
               if (!cores[m]) continue;
               ModelCell& out = cells[slot].models[m];
               out.present = true;
               out.cycles = cores[m]->cycles();
               out.cpi = cores[m]->cpi();
               out.ipc = cores[m]->ipc();
               out.runtimeSeconds = cores[m]->runtimeSeconds();
             }
           }});
    }
  }
  const auto outcomes = eng.runJobs(jobs);
  engine::mergeIntoBoundary(outcomes, boundary, std::cout);

  std::cout << "E6 (extension): finite-resource OoO core model (paper §8)\n\n";

  for (std::size_t m = 0; m < models.size(); ++m) {
    std::cout << "-- " << models[m].label << " --\n";
    for (std::size_t w = 0; w < suite.size(); ++w) {
      std::cout << "== " << suite[w].name << " ==\n";
      Table table({"config", "instructions", "cycles", "CPI", "IPC",
                   "runtime (ms)"});
      for (std::size_t c = 0; c < configs.size(); ++c) {
        const std::size_t slot = w * configs.size() + c;
        const ModelCell& cell = cells[slot].models[m];
        if (!outcomes[slot].cell.ok || !cell.present) continue;
        table.addRow({configName(configs[c]),
                      withCommas(cells[slot].instructions),
                      withCommas(cell.cycles), sigFigs(cell.cpi, 3),
                      sigFigs(cell.ipc, 3),
                      sigFigs(cell.runtimeSeconds * 1e3, 3)});
      }
      std::cout << table << "\n";
    }
  }
  std::cout << engine::describe(eng.stats()) << "\n";
  return boundary.finish();
}
