// Experiment E12 — per-kernel throughput bounds (extension).
//
// The paper's critical-path metrics bound latency but treat issue
// bandwidth as infinite; OSACA (Laukemann et al., PAPERS.md) predicts
// loop-kernel performance as max(throughput bound, CP bound) instead. E12
// attaches the ISSUE 7 throughput analyzer to the engine's single
// simulation pass per cell and reports, for both ISAs × both compiler
// eras × all five workloads, per kernel:
//   - the port-pressure bound (busiest port under least-loaded
//     assignment) with the binding port named,
//   - the issue-width bound ceil(instructions / width),
//   - the latency-scaled CP bound,
//   - their max — the predicted cycles — with the binding resource named,
// plus the reciprocal-throughput table (port multiplicity × issue width)
// of all four YAML core models, and a cross-ISA comparison: tx2 and
// riscv-tx2 share ports and issue width by construction, so per-kernel
// bound ratios isolate what the ISA does to port pressure.
//
// Consistency cross-check per cell: the analyzer's whole-program CP bound
// must equal the engine's scaled critical path (same chain semantics fed
// by the same trace); divergence fails the run.
//
// `--json[=PATH]` additionally writes the full grid as machine-readable
// JSON; the output contains no thread-count or timing fields, so reports
// from different --jobs values are byte-identical
// (tests/compare_throughput_determinism.cmake + CI artifact).
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/throughput_bound.hpp"
#include "harness.hpp"
#include "support/atomic_file.hpp"
#include "support/table.hpp"
#include "uarch/core_model.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

std::string rcpCell(const ThroughputModel& model, InstGroup group) {
  const unsigned multiplicity = model.portMultiplicity(group);
  if (multiplicity == 0) return "-";
  return std::to_string(multiplicity) + "p " +
         sigFigs(model.reciprocalThroughput(group), 3);
}

const engine::CellResult* findCell(const engine::GridResult& grid,
                                   std::size_t workload, Arch arch,
                                   kgen::CompilerEra era) {
  for (std::size_t c = 0; c < grid.configCount; ++c) {
    const engine::CellResult& cell = grid.at(workload, c);
    if (cell.key.config.arch == arch && cell.key.config.era == era) {
      return &cell;
    }
  }
  return nullptr;
}

void writeBoundJson(std::ostream& out, const std::string& indent,
                    const ThroughputBoundAnalyzer::KernelBound& bound) {
  out << indent << "{\"name\": \"" << bound.name
      << "\", \"instructions\": " << bound.instructions
      << ", \"port_bound\": " << bound.portBound << ", \"binding_port\": \""
      << bound.bindingPort << "\", \"issue_bound\": " << bound.issueBound
      << ", \"cp_bound\": " << bound.cpBound
      << ", \"bound_cycles\": " << bound.boundCycles()
      << ", \"binding\": \"" << bound.bindingResource()
      << "\", \"cpi\": \"" << sigFigs(bound.cyclesPerInstruction(), 4)
      << "\"}";
}

void writeCellJson(std::ostream& out, const engine::CellResult& cell) {
  out << "      {\"config\": \"" << configName(cell.key.config)
      << "\", \"ok\": " << (cell.cell.ok ? "true" : "false");
  if (!cell.cell.ok || !cell.hasThroughput) {
    out << "}";
    return;
  }
  out << ",\n       \"program\":\n";
  writeBoundJson(out, "        ", cell.throughputProgram);
  out << ",\n       \"kernels\": [\n";
  for (std::size_t k = 0; k < cell.throughputKernels.size(); ++k) {
    writeBoundJson(out, "        ", cell.throughputKernels[k]);
    out << (k + 1 < cell.throughputKernels.size() ? ",\n" : "\n");
  }
  out << "       ]}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configDir = flags.text("config-dir").value_or(uarch::configDir());
  spec.analyses = engine::kScaledCP | engine::kThroughputBound;
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;  // a broken model fails its cells, loudly
  const std::optional<std::string> jsonPath =
      flags.textOrBare("json", "BENCH_throughput_bound.json");
  const double scale = spec.scale;
  verify::FaultBoundary boundary(std::cout);

  // tx2/riscv-tx2 drive the grid; a64fx and m1-firestorm appear in the
  // reciprocal-throughput table so all four models' port maps are audited.
  // These are render-side loads; execution loads its own copies from the
  // spec, wherever the cells actually run.
  const char* const modelNames[] = {"tx2", "riscv-tx2", "a64fx",
                                    "m1-firestorm"};
  std::optional<ThroughputModel> models[4];
  for (std::size_t m = 0; m < 4; ++m) {
    boundary.run(std::string("load-config/") + modelNames[m], [&] {
      models[m] = uarch::CoreModel::fromFile(spec.configDir + "/" +
                                             std::string(modelNames[m]) +
                                             ".yaml")
                      .throughputModel();
    });
  }
  const std::optional<ThroughputModel>& tx2 = models[0];
  const std::optional<ThroughputModel>& riscvTx2 = models[1];

  // The cross-ISA comparison reads per-kernel ratios as an ISA effect;
  // that only holds when both ISAs face the same structural resources.
  boundary.run("port-identity", [&] {
    if (!tx2 || !riscvTx2) {
      throw ConfigError("core models unavailable (failed to load)", {}, 0,
                        "ports");
    }
    if (tx2->issueWidth != riscvTx2->issueWidth ||
        tx2->ports.size() != riscvTx2->ports.size()) {
      throw ValidationFault(
          "tx2 and riscv-tx2 issue/port structure differs; the cross-ISA "
          "bound comparison requires identical resources");
    }
    for (std::size_t p = 0; p < tx2->ports.size(); ++p) {
      if (tx2->ports[p].groupMask != riscvTx2->ports[p].groupMask) {
        throw ValidationFault("tx2 and riscv-tx2 port '" +
                              tx2->ports[p].name +
                              "' accepts different groups; the cross-ISA "
                              "bound comparison requires identical ports");
      }
    }
  });

  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);
  const auto& suite = shape.suite;
  const auto& configs = shape.configs;
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "E12: per-kernel throughput bounds (port pressure x issue "
               "width x scaled CP)\n";
  if (tx2) {
    std::cout << "Grid model (both ISAs): " << tx2->ports.size()
              << " ports, issue width " << tx2->issueWidth << "\n";
  }
  std::cout << "\n";

  // Reciprocal throughput per group: "Np R" = N eligible ports, R cycles
  // per instruction best case (max(1/N, 1/issueWidth)).
  Table rcp({"group", "tx2", "riscv-tx2", "a64fx", "m1-firestorm"});
  for (std::size_t g = 0; g < kInstGroupCount; ++g) {
    const InstGroup group = static_cast<InstGroup>(g);
    std::vector<std::string> row{std::string(instGroupName(group))};
    for (const auto& model : models) {
      row.push_back(model ? rcpCell(*model, group) : "-");
    }
    rcp.addRow(row);
  }
  std::cout << rcp << "\n";

  // Per-cell consistency: the analyzer's whole-program CP bound recomputes
  // the engine's scaled critical path from the same trace.
  for (const engine::CellResult& cell : grid.cells) {
    if (!cell.cell.ok || !cell.hasThroughput || !cell.hasScaledCp) continue;
    boundary.run(cell.key.workload + "/" + configName(cell.key.config) +
                     "/cp-consistency",
                 [&] {
                   if (cell.throughputProgram.cpBound !=
                       cell.scaledCriticalPath) {
                     throw ValidationFault(
                         "throughput analyzer CP bound " +
                         std::to_string(cell.throughputProgram.cpBound) +
                         " != engine scaled CP " +
                         std::to_string(cell.scaledCriticalPath));
                   }
                 });
  }

  for (std::size_t w = 0; w < suite.size(); ++w) {
    std::cout << "== " << suite[w].name << " ==\n";
    Table table({"kernel", "config", "instructions", "port bound", "port",
                 "issue bound", "CP bound", "cycles", "binding", "CPI"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasThroughput) continue;
      std::vector<ThroughputBoundAnalyzer::KernelBound> rows =
          cell.throughputKernels;
      rows.push_back(cell.throughputProgram);
      for (const auto& bound : rows) {
        table.addRow({bound.name, configName(configs[c]),
                      withCommas(bound.instructions),
                      withCommas(bound.portBound), bound.bindingPort,
                      withCommas(bound.issueBound), withCommas(bound.cpBound),
                      withCommas(bound.boundCycles()),
                      bound.bindingResource(),
                      sigFigs(bound.cyclesPerInstruction(), 3)});
      }
    }
    std::cout << table << "\n";
  }

  // Cross-ISA comparison: same kernels, same ports, same issue width —
  // the RV64/A64 bound ratio is the ISA's throughput cost (or saving).
  std::cout << "== cross-ISA bound comparison (RV64 / A64, same ports) ==\n";
  Table cross({"workload", "era", "kernel", "A64 cycles", "A64 binding",
               "RV64 cycles", "RV64 binding", "ratio"});
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      const engine::CellResult* a64 = findCell(grid, w, Arch::AArch64, era);
      const engine::CellResult* rv64 = findCell(grid, w, Arch::Rv64, era);
      if (a64 == nullptr || rv64 == nullptr || !a64->cell.ok ||
          !rv64->cell.ok || !a64->hasThroughput || !rv64->hasThroughput) {
        continue;
      }
      for (const auto& ka : a64->throughputKernels) {
        const ThroughputBoundAnalyzer::KernelBound* kr = nullptr;
        for (const auto& candidate : rv64->throughputKernels) {
          if (candidate.name == ka.name) {
            kr = &candidate;
            break;
          }
        }
        if (kr == nullptr || ka.boundCycles() == 0) continue;
        cross.addRow({suite[w].name, std::string(kgen::eraName(era)),
                      ka.name, withCommas(ka.boundCycles()),
                      ka.bindingResource(), withCommas(kr->boundCycles()),
                      kr->bindingResource(),
                      sigFigs(static_cast<double>(kr->boundCycles()) /
                                  static_cast<double>(ka.boundCycles()),
                              3)});
      }
    }
  }
  std::cout << cross << "\n";
  std::cout << "Bounds follow OSACA's max(port pressure, issue width, "
               "scaled CP) per kernel;\nwith identical ports on both "
               "models, the cross-ISA ratio isolates the ISA's effect\n"
               "on port pressure and front-end occupancy.\n";

  if (jsonPath) {
    std::ostringstream json;
    json << "{\n  \"experiment\": \"E12\",\n  \"scale\": "
         << sigFigs(scale, 6) << ",\n  \"rthroughput\": [\n";
    for (std::size_t g = 0; g < kInstGroupCount; ++g) {
      const InstGroup group = static_cast<InstGroup>(g);
      json << "    {\"group\": \"" << instGroupName(group) << "\"";
      for (std::size_t m = 0; m < 4; ++m) {
        json << ", \"" << modelNames[m] << "\": \""
             << (models[m] ? rcpCell(*models[m], group) : "-") << "\"";
      }
      json << "}" << (g + 1 < kInstGroupCount ? ",\n" : "\n");
    }
    json << "  ],\n  \"workloads\": [\n";
    for (std::size_t w = 0; w < suite.size(); ++w) {
      json << "    {\"name\": \"" << suite[w].name << "\", \"cells\": [\n";
      for (std::size_t c = 0; c < configs.size(); ++c) {
        writeCellJson(json, grid.at(w, c));
        json << (c + 1 < configs.size() ? ",\n" : "\n");
      }
      json << "    ]}" << (w + 1 < suite.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    if (!writeJsonArtifact(*jsonPath, json.str())) return 2;
  }

  std::cout << run.footer << "\n";
  return boundary.finish();
}
