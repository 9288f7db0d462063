// Experiment E13 — macro-op fusion off/on (extension).
//
// Celio et al. ("The Renewed Case for the Reduced Instruction Set
// Computer", PAPERS.md) argue the paper's headline RISC-V instruction-count
// gap (Figure 1) largely disappears once the decoder fuses common adjacent
// pairs. E13 quantifies that claim against this repo's own Figure 1 /
// Table 1 / Table 2 numbers: the ISSUE 8 FusionPass rides the engine's
// single simulation pass per cell, so every workload × era × ISA cell
// yields fusion-off (the plain analyzers) and fusion-on (the macro-op
// stream's path lengths and CPs) side by side, plus the fused-pair rate
// per rule per kernel. Rules come from the `fusion:` sections of
// riscv-tx2.yaml (the five Celio RV64 idioms) and tx2.yaml (cmp_bcc and
// the zero-fire adrp_add control).
//
// Per-cell invariant (boundary-checked): the macro-op stream must satisfy
// fused + pairs == retired, hence fused <= retired — fusion only ever
// shrinks the dynamic count; the acceptance criterion "RV64 fused count <=
// unfused count in every cell" is the RV64 half of that check.
//
// `--json[=PATH]` writes the full grid as BENCH_fusion.json; the output
// has no thread-count or timing fields, so reports from different --jobs
// values are byte-identical (tests/compare_fusion_determinism.cmake + CI
// artifact).
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "support/atomic_file.hpp"
#include "support/table.hpp"
#include "uarch/core_model.hpp"
#include "uarch/fusion/fusion.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

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

std::string ratioCell(std::uint64_t numer, std::uint64_t denom) {
  if (denom == 0) return "-";
  return sigFigs(static_cast<double>(numer) / static_cast<double>(denom), 3);
}

std::string enabledRules(const uarch::FusionConfig& config) {
  std::string out;
  for (std::size_t r = 0; r < uarch::kFusionRuleCount; ++r) {
    const auto rule = static_cast<uarch::FusionRule>(r);
    if (!config.enabled(rule)) continue;
    if (!out.empty()) out += ", ";
    out += std::string(uarch::fusionRuleName(rule));
  }
  return out;
}

void writeCellJson(std::ostream& out, const engine::CellResult& cell) {
  out << "      {\"config\": \"" << configName(cell.key.config)
      << "\", \"ok\": " << (cell.cell.ok ? "true" : "false");
  if (!cell.cell.ok || !cell.hasFusion) {
    out << "}";
    return;
  }
  out << ",\n       \"instructions\": " << cell.instructions
      << ", \"fused_instructions\": " << cell.fusedInstructions
      << ", \"pairs\": " << cell.fusionPairs << ",\n       \"by_rule\": {";
  for (std::size_t r = 0; r < uarch::kFusionRuleCount; ++r) {
    out << "\"" << uarch::fusionRuleName(static_cast<uarch::FusionRule>(r))
        << "\": " << cell.fusionPairsByRule[r]
        << (r + 1 < uarch::kFusionRuleCount ? ", " : "},\n");
  }
  out << "       \"cp\": " << cell.criticalPath
      << ", \"fused_cp\": " << cell.fusedCriticalPath
      << ", \"scaled_cp\": " << cell.scaledCriticalPath
      << ", \"fused_scaled_cp\": " << cell.fusedScaledCriticalPath
      << ",\n       \"kernels\": [\n";
  for (std::size_t k = 0; k < cell.fusionKernels.size(); ++k) {
    const auto& kernel = cell.fusionKernels[k];
    out << "        {\"name\": \"" << kernel.name << "\", \"instructions\": "
        << (k < cell.kernels.size() ? cell.kernels[k].count : 0)
        << ", \"fused_instructions\": "
        << (k < cell.fusedKernels.size() ? cell.fusedKernels[k].count : 0)
        << ", \"pairs\": " << kernel.pairs << ", \"by_rule\": {";
    for (std::size_t r = 0; r < uarch::kFusionRuleCount; ++r) {
      out << "\"" << uarch::fusionRuleName(static_cast<uarch::FusionRule>(r))
          << "\": " << kernel.byRule[r]
          << (r + 1 < uarch::kFusionRuleCount ? ", " : "}}");
    }
    out << (k + 1 < cell.fusionKernels.size() ? ",\n" : "\n");
  }
  out << "       ]}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configDir = flags.text("config-dir").value_or(uarch::configDir());
  spec.analyses = engine::kPathLength | engine::kCriticalPath |
                  engine::kScaledCP | engine::kFusion;
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;  // no model / no fusion: section fails the cell
  const std::optional<std::string> jsonPath =
      flags.textOrBare("json", "BENCH_fusion.json");
  const double scale = spec.scale;
  verify::FaultBoundary boundary(std::cout);

  // tx2/riscv-tx2 carry the grid's fusion rule sets and latency tables.
  // These are render-side loads (the rule-set header); execution loads its
  // own copies from the spec, wherever the cells actually run.
  std::optional<uarch::CoreModel> a64Model;
  std::optional<uarch::CoreModel> rvModel;
  boundary.run("load-config/tx2", [&] {
    a64Model = uarch::CoreModel::fromFile(spec.configDir + "/tx2.yaml");
    if (!a64Model->fusion) {
      throw ConfigError("tx2.yaml has no fusion: section", {}, 0, "fusion");
    }
  });
  boundary.run("load-config/riscv-tx2", [&] {
    rvModel = uarch::CoreModel::fromFile(spec.configDir + "/riscv-tx2.yaml");
    if (!rvModel->fusion) {
      throw ConfigError("riscv-tx2.yaml has no fusion: section", {}, 0,
                        "fusion");
    }
  });

  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);
  const auto& suite = shape.suite;
  const auto& configs = shape.configs;
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "E13: macro-op fusion off/on (Celio et al. rules over the "
               "paper's grid)\n";
  if (rvModel && rvModel->fusion) {
    std::cout << "RV64 rules (riscv-tx2): " << enabledRules(*rvModel->fusion)
              << "\n";
  }
  if (a64Model && a64Model->fusion) {
    std::cout << "A64 rules (tx2):        "
              << enabledRules(*a64Model->fusion) << "\n";
  }
  std::cout << "\n";

  // Per-cell invariant: the fused stream is the retired stream with each
  // fused pair collapsed into one macro-op, nothing added or dropped.
  for (const engine::CellResult& cell : grid.cells) {
    if (!cell.cell.ok || !cell.hasFusion) continue;
    boundary.run(cell.key.workload + "/" + configName(cell.key.config) +
                     "/fusion-invariant",
                 [&] {
                   if (cell.fusedInstructions + cell.fusionPairs !=
                       cell.instructions) {
                     throw ValidationFault(
                         "fused " + std::to_string(cell.fusedInstructions) +
                         " + pairs " + std::to_string(cell.fusionPairs) +
                         " != retired " + std::to_string(cell.instructions));
                   }
                 });
  }

  // Figure 1 with a fusion axis: dynamic-instruction ratios RV64/A64 per
  // era, before and after fusion.
  std::cout << "== Figure 1 ratios, fusion off vs on (RV64 / A64) ==\n";
  Table fig1({"workload", "era", "A64", "A64 fused", "RV64", "RV64 fused",
              "ratio off", "ratio on"});
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      const engine::CellResult* a64 = findCell(grid, w, Arch::AArch64, era);
      const engine::CellResult* rv64 = findCell(grid, w, Arch::Rv64, era);
      if (a64 == nullptr || rv64 == nullptr || !a64->cell.ok ||
          !rv64->cell.ok || !a64->hasFusion || !rv64->hasFusion) {
        continue;
      }
      fig1.addRow({suite[w].name, std::string(kgen::eraName(era)),
                   withCommas(a64->instructions),
                   withCommas(a64->fusedInstructions),
                   withCommas(rv64->instructions),
                   withCommas(rv64->fusedInstructions),
                   ratioCell(rv64->instructions, a64->instructions),
                   ratioCell(rv64->fusedInstructions,
                             a64->fusedInstructions)});
    }
  }
  std::cout << fig1 << "\n";

  // Table 1 (unscaled CP) and Table 2 (latency-scaled CP) with the fusion
  // axis: fused macro-ops merge the pair-internal RAW edge, so the CP can
  // only shrink or stay.
  std::cout << "== Table 1/2 critical paths, fusion off vs on ==\n";
  Table cp({"workload", "config", "CP", "CP fused", "scaled CP",
            "scaled CP fused"});
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasFusion) continue;
      cp.addRow({suite[w].name, configName(configs[c]),
                 withCommas(cell.criticalPath),
                 withCommas(cell.fusedCriticalPath),
                 cell.hasScaledCp ? withCommas(cell.scaledCriticalPath) : "-",
                 cell.hasFusedScaledCp
                     ? withCommas(cell.fusedScaledCriticalPath)
                     : "-"});
    }
  }
  std::cout << cp << "\n";

  // Fused-pair rate per rule per kernel: which Celio idioms actually fire,
  // and where. Rate = pairs / kernel dynamic instructions (unfused).
  for (std::size_t w = 0; w < suite.size(); ++w) {
    std::cout << "== " << suite[w].name << ": fused pairs per rule ==\n";
    Table table({"kernel", "config", "instructions", "pairs", "rate",
                 "load_pair", "indexed_load", "indexed_store", "lui_addi",
                 "slli_add", "cmp_bcc", "adrp_add"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasFusion) continue;
      for (std::size_t k = 0; k < cell.fusionKernels.size(); ++k) {
        const auto& kernel = cell.fusionKernels[k];
        const std::uint64_t insts =
            k < cell.kernels.size() ? cell.kernels[k].count : 0;
        std::vector<std::string> row{
            kernel.name, configName(configs[c]), withCommas(insts),
            withCommas(kernel.pairs),
            insts == 0 ? "-"
                       : sigFigs(static_cast<double>(kernel.pairs) /
                                     static_cast<double>(insts),
                                 3)};
        for (const std::uint64_t count : kernel.byRule) {
          row.push_back(withCommas(count));
        }
        table.addRow(row);
      }
    }
    std::cout << table << "\n";
  }
  std::cout << "Rules follow Celio et al.: RV64 load_pair / indexed "
               "load+store / lui+addi /\nslli+add (cmp+branch is native); "
               "A64 cmp+b.cc, with adrp+add as a zero-fire\ncontrol. The "
               "'ratio on' column is the fusion-adjusted cross-ISA "
               "instruction\nratio — the paper's Figure 1 after an "
               "idealized fusing decoder.\n";

  if (jsonPath) {
    std::ostringstream json;
    json << "{\n  \"experiment\": \"E13\",\n  \"scale\": "
         << sigFigs(scale, 6) << ",\n  \"workloads\": [\n";
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
