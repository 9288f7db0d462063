// Experiment E11 — memory-hierarchy cache model (extension).
//
// The paper's latency model is flat: every load costs the core model's
// LOAD entry and memory behaviour is out of scope (§6.1). E11 attaches the
// ISSUE 5 cache subsystem to the engine's single simulation pass per cell
// and reports, for both ISAs × both compiler eras × all five workloads:
//   - whole-program and per-kernel L1/L2 miss counts and MPKI,
//   - prefetcher accuracy,
//   - the cache-aware scaled critical path next to the flat Table 2 chain.
//
// Cross-ISA invariant: the data-address stream is a property of the
// algorithm, not the ISA — the conformance oracle already proves the store
// streams identical (DESIGN.md §9). With identical cache geometry on both
// core models, RV64 and AArch64 must therefore touch the same cache-line
// sets and take the same misses, kernel by kernel; MPKI then differs by
// exactly the dynamic path-length ratio (the paper's Figure 1 result).
// This bench checks that invariant per era/workload and fails the run with
// a ValidationFault if any kernel diverges.
//
// `--json[=PATH]` additionally writes the full grid (and the invariant
// verdicts) as machine-readable JSON; the output contains no thread-count
// or timing fields, so reports from different --jobs values are
// byte-identical (tests/uarch/cache determinism check + CI artifact).
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "harness.hpp"
#include "support/atomic_file.hpp"
#include "support/table.hpp"
#include "uarch/core_model.hpp"
#include "uarch/mem/cache_model.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

std::string hexDigest(std::uint64_t digest) {
  std::ostringstream out;
  out << "0x" << std::hex << digest;
  return out.str();
}

std::string describeCaches(const uarch::mem::CacheConfig& caches) {
  std::ostringstream out;
  out << caches.l1d.sizeBytes / 1024 << " KiB/" << caches.l1d.ways
      << "w L1D + " << caches.l2.sizeBytes / 1024 << " KiB/" << caches.l2.ways
      << "w L2, " << caches.lineBytes << " B lines, "
      << uarch::mem::prefetchKindName(caches.prefetch) << " prefetcher, "
      << caches.memoryLatency << "-cycle memory";
  return out.str();
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

/// The E11 cross-ISA invariant for one workload × era pair: identical
/// demand traffic, miss counts, and line sets between the two ISAs.
void checkCrossIsa(const std::string& workload, kgen::CompilerEra era,
                   const engine::CellResult& a64,
                   const engine::CellResult& rv64) {
  const std::string where =
      workload + " (" + std::string(kgen::eraName(era)) + ")";
  if (!a64.cell.ok || !rv64.cell.ok || !a64.hasCache || !rv64.hasCache) {
    throw ValidationFault("cross-ISA cache check for " + where +
                          ": one or both cells missing cache results");
  }
  if (!(a64.cache == rv64.cache)) {
    throw ValidationFault(
        "cross-ISA cache divergence in " + where +
        ": whole-program hierarchy counters differ (A64 L1 misses " +
        std::to_string(a64.cache.l1Misses) + " vs RV64 " +
        std::to_string(rv64.cache.l1Misses) + ", L2 misses " +
        std::to_string(a64.cache.l2Misses) + " vs " +
        std::to_string(rv64.cache.l2Misses) + ")");
  }
  if (a64.cacheFootprintLines != rv64.cacheFootprintLines ||
      a64.cacheLineSetDigest != rv64.cacheLineSetDigest) {
    throw ValidationFault("cross-ISA cache divergence in " + where +
                          ": program line sets differ (" +
                          std::to_string(a64.cacheFootprintLines) + " lines " +
                          hexDigest(a64.cacheLineSetDigest) + " vs " +
                          std::to_string(rv64.cacheFootprintLines) +
                          " lines " + hexDigest(rv64.cacheLineSetDigest) +
                          ")");
  }
  if (a64.cacheKernels.size() != rv64.cacheKernels.size()) {
    throw ValidationFault("cross-ISA cache divergence in " + where +
                          ": kernel counts differ");
  }
  for (const auto& ka : a64.cacheKernels) {
    const auto it = std::find_if(
        rv64.cacheKernels.begin(), rv64.cacheKernels.end(),
        [&](const auto& kr) { return kr.name == ka.name; });
    if (it == rv64.cacheKernels.end()) {
      throw ValidationFault("cross-ISA cache divergence in " + where +
                            ": kernel '" + ka.name + "' missing on RV64");
    }
    if (ka.loads != it->loads || ka.stores != it->stores ||
        ka.l1Misses != it->l1Misses || ka.l2Misses != it->l2Misses ||
        ka.footprintLines != it->footprintLines ||
        ka.lineSetDigest != it->lineSetDigest) {
      throw ValidationFault(
          "cross-ISA cache divergence in " + where + ", kernel '" + ka.name +
          "': A64 " + std::to_string(ka.loads) + "ld/" +
          std::to_string(ka.stores) + "st, " + std::to_string(ka.l1Misses) +
          " L1 miss, " + std::to_string(ka.footprintLines) + " lines " +
          hexDigest(ka.lineSetDigest) + " vs RV64 " +
          std::to_string(it->loads) + "ld/" + std::to_string(it->stores) +
          "st, " + std::to_string(it->l1Misses) + " L1 miss, " +
          std::to_string(it->footprintLines) + " lines " +
          hexDigest(it->lineSetDigest));
    }
  }
}

void writeKernelJson(std::ostream& out, const std::string& indent,
                     const uarch::mem::CacheModelAnalyzer::KernelStats& k) {
  out << indent << "{\"name\": \"" << k.name << "\", \"instructions\": "
      << k.instructions << ", \"loads\": " << k.loads << ", \"stores\": "
      << k.stores << ", \"l1_misses\": " << k.l1Misses << ", \"l2_misses\": "
      << k.l2Misses << ", \"l1_mpki\": \"" << sigFigs(k.l1Mpki(), 4)
      << "\", \"l2_mpki\": \"" << sigFigs(k.l2Mpki(), 4)
      << "\", \"footprint_lines\": " << k.footprintLines
      << ", \"line_set_digest\": \"" << hexDigest(k.lineSetDigest) << "\"}";
}

void writeCellJson(std::ostream& out, const engine::CellResult& cell) {
  out << "      {\"config\": \"" << configName(cell.key.config)
      << "\", \"ok\": " << (cell.cell.ok ? "true" : "false");
  if (!cell.cell.ok || !cell.hasCache) {
    out << "}";
    return;
  }
  const uarch::mem::HierarchyStats& s = cell.cache;
  const double instrs = static_cast<double>(cell.instructions);
  out << ",\n       \"instructions\": " << cell.instructions
      << ", \"loads\": " << s.loads << ", \"stores\": " << s.stores
      << ",\n       \"l1_hits\": " << s.l1Hits << ", \"l1_misses\": "
      << s.l1Misses << ", \"l2_hits\": " << s.l2Hits << ", \"l2_misses\": "
      << s.l2Misses << ",\n       \"writebacks_to_l2\": " << s.writebacksToL2
      << ", \"writebacks_to_mem\": " << s.writebacksToMem
      << ",\n       \"prefetches_issued\": " << s.prefetchesIssued
      << ", \"prefetches_useful\": " << s.prefetchesUseful
      << ",\n       \"l1_mpki\": \""
      << sigFigs(instrs == 0.0
                     ? 0.0
                     : 1000.0 * static_cast<double>(s.l1Misses) / instrs,
                 4)
      << "\", \"l2_mpki\": \""
      << sigFigs(instrs == 0.0
                     ? 0.0
                     : 1000.0 * static_cast<double>(s.l2Misses) / instrs,
                 4)
      << "\",\n       \"footprint_lines\": " << cell.cacheFootprintLines
      << ", \"line_set_digest\": \"" << hexDigest(cell.cacheLineSetDigest)
      << "\"";
  if (cell.hasScaledCp) {
    out << ",\n       \"flat_scaled_cp\": " << cell.scaledCriticalPath;
  }
  if (cell.hasCacheAwareCp) {
    out << ",\n       \"cache_aware_cp\": " << cell.cacheAwareCriticalPath;
  }
  out << ",\n       \"kernels\": [\n";
  for (std::size_t k = 0; k < cell.cacheKernels.size(); ++k) {
    writeKernelJson(out, "        ", cell.cacheKernels[k]);
    out << (k + 1 < cell.cacheKernels.size() ? ",\n" : "\n");
  }
  out << "       ]}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configDir = flags.text("config-dir").value_or(uarch::configDir());
  spec.analyses =
      engine::kScaledCP | engine::kCacheModel | engine::kCacheAwareCP;
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;  // no model / no caches: section fails the cell
  const std::optional<std::string> jsonPath =
      flags.textOrBare("json", "BENCH_cache.json");
  const double scale = spec.scale;
  verify::FaultBoundary boundary(std::cout);

  // Render-side loads (cache-geometry header + identity check); execution
  // loads its own copies from the spec, wherever the cells actually run.
  std::optional<uarch::CoreModel> tx2;
  std::optional<uarch::CoreModel> riscvTx2;
  boundary.run("load-config/tx2", [&] {
    tx2 = uarch::CoreModel::fromFile(spec.configDir + "/tx2.yaml");
  });
  boundary.run("load-config/riscv-tx2", [&] {
    riscvTx2 = uarch::CoreModel::fromFile(spec.configDir + "/riscv-tx2.yaml");
  });
  // The cross-ISA invariant only holds when both ISAs simulate the same
  // hierarchy; diverging geometry is a config bug, not a finding.
  boundary.run("cache-config-identity", [&] {
    if (!tx2 || !riscvTx2) {
      throw ConfigError("core models unavailable (failed to load)", {}, 0,
                        "caches");
    }
    if (!tx2->caches || !riscvTx2->caches) {
      throw ConfigError("E11 needs a caches: section in both core models",
                        {}, 0, "caches");
    }
    if (!(*tx2->caches == *riscvTx2->caches)) {
      throw ValidationFault(
          "tx2 and riscv-tx2 caches: sections differ; the cross-ISA MPKI "
          "comparison requires identical geometry");
    }
  });

  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);
  const auto& suite = shape.suite;
  const auto& configs = shape.configs;
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "E11: memory-hierarchy cache model (per-kernel MPKI + "
               "cache-aware CP)\n";
  if (tx2 && tx2->caches) {
    std::cout << "Caches (both ISAs): " << describeCaches(*tx2->caches)
              << "\n";
  }
  std::cout << "\n";

  for (std::size_t w = 0; w < suite.size(); ++w) {
    std::cout << "== " << suite[w].name << " ==\n";
    Table table({"config", "instructions", "loads", "stores", "L1 misses",
                 "L1 MPKI", "L2 MPKI", "pf acc", "flat CP", "cache CP",
                 "mem cost"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasCache) continue;
      const double instrs = static_cast<double>(cell.instructions);
      const double l1Mpki =
          instrs == 0.0
              ? 0.0
              : 1000.0 * static_cast<double>(cell.cache.l1Misses) / instrs;
      const double l2Mpki =
          instrs == 0.0
              ? 0.0
              : 1000.0 * static_cast<double>(cell.cache.l2Misses) / instrs;
      table.addRow(
          {configName(configs[c]), withCommas(cell.instructions),
           withCommas(cell.cache.loads), withCommas(cell.cache.stores),
           withCommas(cell.cache.l1Misses), sigFigs(l1Mpki, 3),
           sigFigs(l2Mpki, 3), sigFigs(cell.cache.prefetchAccuracy(), 3),
           cell.hasScaledCp ? withCommas(cell.scaledCriticalPath) : "-",
           cell.hasCacheAwareCp ? withCommas(cell.cacheAwareCriticalPath)
                                : "-",
           cell.hasScaledCp && cell.hasCacheAwareCp &&
                   cell.scaledCriticalPath != 0
               ? sigFigs(static_cast<double>(cell.cacheAwareCriticalPath) /
                             static_cast<double>(cell.scaledCriticalPath),
                         3)
               : "-"});
    }
    std::cout << table << "\n";

    Table kernels({"kernel", "config", "instructions", "L1 misses",
                   "L1 MPKI", "L2 MPKI", "lines", "line-set digest"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasCache) continue;
      for (const auto& k : cell.cacheKernels) {
        kernels.addRow({k.name, configName(configs[c]),
                        withCommas(k.instructions), withCommas(k.l1Misses),
                        sigFigs(k.l1Mpki(), 3), sigFigs(k.l2Mpki(), 3),
                        withCommas(k.footprintLines),
                        hexDigest(k.lineSetDigest)});
      }
    }
    std::cout << kernels << "\n";
  }

  // Cross-ISA invariant: per era, both ISAs must show identical demand
  // traffic, misses, and line sets for every kernel.
  std::vector<std::pair<std::string, bool>> verdicts;
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      const std::string name = suite[w].name + "/" +
                               std::string(kgen::eraName(era)) +
                               "/cross-isa-line-sets";
      const bool ok = boundary.run(name, [&] {
        const engine::CellResult* a64 =
            findCell(grid, w, Arch::AArch64, era);
        const engine::CellResult* rv64 = findCell(grid, w, Arch::Rv64, era);
        if (a64 == nullptr || rv64 == nullptr) {
          throw ValidationFault("cross-ISA cache check: grid is missing an "
                                "ISA column for " +
                                suite[w].name);
        }
        checkCrossIsa(suite[w].name, era, *a64, *rv64);
      });
      verdicts.emplace_back(name, ok);
    }
  }
  std::size_t crossIsaOk = 0;
  for (const auto& [name, ok] : verdicts) crossIsaOk += ok ? 1 : 0;
  std::cout << "Cross-ISA line-set identity: " << crossIsaOk << "/"
            << verdicts.size() << " workload x era pairs match\n";
  std::cout << "Per-kernel misses and line sets are ISA-invariant; MPKI "
               "differs between ISAs by exactly the dynamic path-length\n"
               "ratio (Figure 1), so RISC-V's higher instruction counts "
               "show up here as lower MPKI for the same miss traffic.\n";

  if (jsonPath) {
    std::ostringstream json;
    json << "{\n  \"experiment\": \"E11\",\n  \"scale\": "
         << sigFigs(scale, 6) << ",\n  \"workloads\": [\n";
    for (std::size_t w = 0; w < suite.size(); ++w) {
      json << "    {\"name\": \"" << suite[w].name << "\", \"cells\": [\n";
      for (std::size_t c = 0; c < configs.size(); ++c) {
        writeCellJson(json, grid.at(w, c));
        json << (c + 1 < configs.size() ? ",\n" : "\n");
      }
      json << "    ]}" << (w + 1 < suite.size() ? ",\n" : "\n");
    }
    json << "  ],\n  \"cross_isa\": [\n";
    for (std::size_t v = 0; v < verdicts.size(); ++v) {
      json << "    {\"pair\": \"" << verdicts[v].first << "\", \"match\": "
           << (verdicts[v].second ? "true" : "false") << "}"
           << (v + 1 < verdicts.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    if (!writeJsonArtifact(*jsonPath, json.str())) return 2;
  }

  std::cout << run.footer << "\n";
  return boundary.finish();
}
