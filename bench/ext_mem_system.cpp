// Experiment E14 — complete memory system: TLBs, finite MSHRs + bandwidth,
// and shared-L2 multi-core contention (extension).
//
// E11 gave the hierarchy demand misses; E13 gave the core a port/issue
// throughput model. E14 closes the gap between them: with finite MSHRs and
// a peak memory bandwidth the model can finally say *which* resource binds
// a kernel — max(CP, port, issue, MSHR, bandwidth) — instead of assuming
// the core is always the limit. At production sizes STREAM's triad loop is
// bandwidth-bound on both ISAs, which no prior experiment could express.
//
// Cross-ISA invariants (both asserted per workload × era, failing the run
// with a ValidationFault on divergence):
//   - line sets: the E11 identity, re-checked here because this grid runs
//     its own cells;
//   - page sets: the same argument one level up — the data-page stream is
//     a property of the algorithm, so with identical TLB geometry both
//     ISAs walk the same pages and take the same TLB walks, kernel by
//     kernel (footprint + order-independent page-set digest).
//
// The shared-L2 scaling points carry an exact conservation invariant —
// sum(perCore.l1Misses) == sharedL2Accesses and sum(perCore.l2Misses) ==
// sharedL2Misses, tallied on independent code paths — asserted here for
// every cell × core count.
//
// `--json[=PATH]` writes the grid as machine-readable JSON; the output has
// no thread-count or timing fields, so reports from different --jobs
// values (and local vs daemon execution) are byte-identical.
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "support/table.hpp"
#include "uarch/core_model.hpp"
#include "uarch/mem/mem_system.hpp"

using namespace riscmp;
using namespace riscmp::bench;

namespace {

std::string hexDigest(std::uint64_t digest) {
  std::ostringstream out;
  out << "0x" << std::hex << digest;
  return out.str();
}

std::string describeMemSystem(const uarch::mem::CacheConfig& caches) {
  std::ostringstream out;
  out << caches.l1d.sizeBytes / 1024 << " KiB L1D + "
      << caches.l2.sizeBytes / 1024 << " KiB L2, " << caches.lineBytes
      << " B lines, " << caches.mshrs << " MSHRs, "
      << caches.memBytesPerCycle << " B/cycle memory";
  if (caches.tlb) {
    out << "; TLB " << caches.tlb->l1Entries << "+" << caches.tlb->l2Entries
        << " entries, " << caches.tlb->pageBytes / 1024 << " KiB pages, "
        << caches.tlb->walkLatency << "-cycle walk";
  }
  return out.str();
}

/// The combined lower bound and the resource that sets it. Pure function
/// of one cell, so local and daemon renders agree byte for byte. Memory
/// structural bounds win ties against core bounds (a saturated memory
/// system is the physical limit), mirroring KernelBound::bindingResource.
struct CombinedBound {
  std::uint64_t cycles = 0;
  std::string binding = "-";
};

CombinedBound combinedBound(const engine::CellResult& cell) {
  CombinedBound out;
  const auto consider = [&](std::uint64_t cycles, const std::string& name) {
    if (cycles > out.cycles) {
      out.cycles = cycles;
      out.binding = name;
    }
  };
  // Order encodes the tie-break: first listed wins equal values.
  if (cell.hasMemSystem) {
    consider(cell.memSystem.bandwidthBoundCycles, "bandwidth");
    consider(cell.memSystem.mshrBoundCycles, "mshr");
  }
  if (cell.hasThroughput) {
    consider(cell.throughputProgram.portBound,
             "port:" + cell.throughputProgram.bindingPort);
    consider(cell.throughputProgram.issueBound, "issue");
  }
  if (cell.hasScaledCp) consider(cell.scaledCriticalPath, "CP");
  return out;
}

/// Single-core compute bound for the scaling model: the part of the
/// combined bound that does not change with the core count (each simulated
/// core runs the full stream).
std::uint64_t computeBound(const engine::CellResult& cell) {
  std::uint64_t bound = cell.hasScaledCp ? cell.scaledCriticalPath : 0;
  if (cell.hasThroughput) {
    bound = std::max(bound, cell.throughputProgram.portBound);
    bound = std::max(bound, cell.throughputProgram.issueBound);
  }
  return bound;
}

/// Modelled cycles for one scaling point: the fixed compute bound against
/// the contended memory bounds.
std::uint64_t scalingCycles(const engine::CellResult& cell,
                            const uarch::mem::ScalingPoint& point) {
  return std::max({computeBound(cell), point.mshrBoundCycles,
                   point.bandwidthBoundCycles});
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

/// The E14 cross-ISA invariant for one workload × era pair: identical line
/// sets (E11) *and* identical page sets / TLB walk counts (new).
void checkCrossIsa(const std::string& workload, kgen::CompilerEra era,
                   const engine::CellResult& a64,
                   const engine::CellResult& rv64) {
  const std::string where =
      workload + " (" + std::string(kgen::eraName(era)) + ")";
  if (!a64.cell.ok || !rv64.cell.ok || !a64.hasMemSystem ||
      !rv64.hasMemSystem) {
    throw ValidationFault("cross-ISA memory-system check for " + where +
                          ": one or both cells missing results");
  }
  if (a64.cacheFootprintLines != rv64.cacheFootprintLines ||
      a64.cacheLineSetDigest != rv64.cacheLineSetDigest) {
    throw ValidationFault("cross-ISA divergence in " + where +
                          ": program line sets differ (" +
                          std::to_string(a64.cacheFootprintLines) +
                          " lines " + hexDigest(a64.cacheLineSetDigest) +
                          " vs " + std::to_string(rv64.cacheFootprintLines) +
                          " lines " + hexDigest(rv64.cacheLineSetDigest) +
                          ")");
  }
  if (a64.memSystem.footprintPages != rv64.memSystem.footprintPages ||
      a64.memSystem.pageSetDigest != rv64.memSystem.pageSetDigest) {
    throw ValidationFault("cross-ISA divergence in " + where +
                          ": program page sets differ (" +
                          std::to_string(a64.memSystem.footprintPages) +
                          " pages " + hexDigest(a64.memSystem.pageSetDigest) +
                          " vs " +
                          std::to_string(rv64.memSystem.footprintPages) +
                          " pages " +
                          hexDigest(rv64.memSystem.pageSetDigest) + ")");
  }
  if (a64.memSystem.tlb.walks != rv64.memSystem.tlb.walks) {
    throw ValidationFault(
        "cross-ISA divergence in " + where + ": TLB walks differ (A64 " +
        std::to_string(a64.memSystem.tlb.walks) + " vs RV64 " +
        std::to_string(rv64.memSystem.tlb.walks) + ")");
  }
  if (a64.memKernels.size() != rv64.memKernels.size()) {
    throw ValidationFault("cross-ISA divergence in " + where +
                          ": kernel counts differ");
  }
  for (const auto& ka : a64.memKernels) {
    const auto it = std::find_if(
        rv64.memKernels.begin(), rv64.memKernels.end(),
        [&](const auto& kr) { return kr.name == ka.name; });
    if (it == rv64.memKernels.end()) {
      throw ValidationFault("cross-ISA divergence in " + where +
                            ": kernel '" + ka.name + "' missing on RV64");
    }
    if (ka.tlbWalks != it->tlbWalks ||
        ka.footprintPages != it->footprintPages ||
        ka.pageSetDigest != it->pageSetDigest) {
      throw ValidationFault(
          "cross-ISA divergence in " + where + ", kernel '" + ka.name +
          "': A64 " + std::to_string(ka.tlbWalks) + " walks, " +
          std::to_string(ka.footprintPages) + " pages " +
          hexDigest(ka.pageSetDigest) + " vs RV64 " +
          std::to_string(it->tlbWalks) + " walks, " +
          std::to_string(it->footprintPages) + " pages " +
          hexDigest(it->pageSetDigest));
    }
  }
}

/// The shared-L2 conservation invariant for one cell: every miss a core
/// observed is accounted for by the shared structures, at every core
/// count. The two sides are tallied on independent code paths.
void checkConservation(const engine::CellResult& cell) {
  for (const uarch::mem::ScalingPoint& point : cell.memScaling) {
    std::uint64_t l1MissSum = 0;
    std::uint64_t l2MissSum = 0;
    std::uint64_t l2HitSum = 0;
    for (const uarch::mem::CoreShare& core : point.perCore) {
      l1MissSum += core.l1Misses;
      l2MissSum += core.l2Misses;
      l2HitSum += core.l2Hits;
    }
    const std::string where =
        cell.key.workload + "/" + configName(cell.key.config) + " @" +
        std::to_string(point.cores) + " cores";
    if (l1MissSum != point.sharedL2Accesses) {
      throw ValidationFault(
          "miss-conservation violation in " + where +
          ": sum of per-core L1 misses " + std::to_string(l1MissSum) +
          " != shared-L2 accesses " +
          std::to_string(point.sharedL2Accesses));
    }
    if (l2MissSum != point.sharedL2Misses ||
        l2HitSum != point.sharedL2Hits) {
      throw ValidationFault(
          "miss-conservation violation in " + where +
          ": per-core L2 hit/miss sums " + std::to_string(l2HitSum) + "/" +
          std::to_string(l2MissSum) + " != shared counters " +
          std::to_string(point.sharedL2Hits) + "/" +
          std::to_string(point.sharedL2Misses));
    }
    if (point.sharedL2Hits + point.sharedL2Misses !=
        point.sharedL2Accesses) {
      throw ValidationFault("shared-L2 accounting hole in " + where +
                            ": hits + misses != accesses");
    }
  }
}

void writeCellJson(std::ostream& out, const engine::CellResult& cell) {
  out << "      {\"config\": \"" << configName(cell.key.config)
      << "\", \"ok\": " << (cell.cell.ok ? "true" : "false");
  if (!cell.cell.ok || !cell.hasMemSystem) {
    out << "}";
    return;
  }
  const uarch::mem::MemSummary& m = cell.memSystem;
  const CombinedBound bound = combinedBound(cell);
  out << ",\n       \"instructions\": " << cell.instructions
      << ",\n       \"tlb\": {\"accesses\": " << m.tlb.accesses
      << ", \"l1_hits\": " << m.tlb.l1Hits << ", \"l2_hits\": "
      << m.tlb.l2Hits << ", \"walks\": " << m.tlb.walks
      << ", \"walk_cycles\": " << m.tlb.walkCycles << "}"
      << ",\n       \"footprint_pages\": " << m.footprintPages
      << ", \"page_set_digest\": \"" << hexDigest(m.pageSetDigest) << "\""
      << ",\n       \"demand_fill_bytes\": " << m.demandFillBytes
      << ", \"prefetch_fill_bytes\": " << m.prefetchFillBytes
      << ", \"writeback_bytes\": " << m.writebackBytes
      << ",\n       \"bounds\": {\"cp\": "
      << (cell.hasScaledCp ? cell.scaledCriticalPath : 0) << ", \"port\": "
      << (cell.hasThroughput ? cell.throughputProgram.portBound : 0)
      << ", \"issue\": "
      << (cell.hasThroughput ? cell.throughputProgram.issueBound : 0)
      << ", \"mshr\": " << m.mshrBoundCycles << ", \"bandwidth\": "
      << m.bandwidthBoundCycles << ",\n                  \"bound\": "
      << bound.cycles << ", \"binding\": \"" << bound.binding << "\"}"
      << ",\n       \"kernels\": [\n";
  for (std::size_t k = 0; k < cell.memKernels.size(); ++k) {
    const uarch::mem::MemKernelStats& kernel = cell.memKernels[k];
    out << "        {\"name\": \"" << kernel.name
        << "\", \"instructions\": " << kernel.instructions
        << ", \"tlb_accesses\": " << kernel.tlbAccesses
        << ", \"tlb_walks\": " << kernel.tlbWalks
        << ", \"footprint_pages\": " << kernel.footprintPages
        << ", \"page_set_digest\": \"" << hexDigest(kernel.pageSetDigest)
        << "\"}" << (k + 1 < cell.memKernels.size() ? ",\n" : "\n");
  }
  out << "       ],\n       \"scaling\": [\n";
  for (std::size_t s = 0; s < cell.memScaling.size(); ++s) {
    const uarch::mem::ScalingPoint& point = cell.memScaling[s];
    out << "        {\"cores\": " << point.cores
        << ", \"shared_l2_accesses\": " << point.sharedL2Accesses
        << ", \"shared_l2_misses\": " << point.sharedL2Misses
        << ", \"bytes_from_mem\": " << point.bytesFromMem
        << ", \"mshr_bound\": " << point.mshrBoundCycles
        << ", \"bandwidth_bound\": " << point.bandwidthBoundCycles
        << ", \"cycles\": " << scalingCycles(cell, point) << "}"
        << (s + 1 < cell.memScaling.size() ? ",\n" : "\n");
  }
  out << "       ]}";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  engine::GridSpec spec;
  spec.scale = scaleFlag(flags);
  spec.configDir = flags.text("config-dir").value_or(uarch::configDir());
  spec.analyses = engine::kScaledCP | engine::kCacheModel |
                  engine::kThroughputBound | engine::kMemSystem;
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;  // no model / no caches: section fails the cell
  const std::optional<std::string> jsonPath =
      flags.textOrBare("json", "BENCH_mem.json");
  const double scale = spec.scale;
  verify::FaultBoundary boundary(std::cout);

  // Render-side loads (memory-system header + identity check); execution
  // loads its own copies from the spec, wherever the cells actually run.
  std::optional<uarch::CoreModel> tx2;
  std::optional<uarch::CoreModel> riscvTx2;
  boundary.run("load-config/tx2", [&] {
    tx2 = uarch::CoreModel::fromFile(spec.configDir + "/tx2.yaml");
  });
  boundary.run("load-config/riscv-tx2", [&] {
    riscvTx2 = uarch::CoreModel::fromFile(spec.configDir + "/riscv-tx2.yaml");
  });
  // The cross-ISA invariants only hold when both ISAs simulate the same
  // hierarchy *and* the same TLB; diverging geometry is a config bug.
  boundary.run("mem-config-identity", [&] {
    if (!tx2 || !riscvTx2) {
      throw ConfigError("core models unavailable (failed to load)", {}, 0,
                        "caches");
    }
    if (!tx2->caches || !riscvTx2->caches) {
      throw ConfigError("E14 needs a caches: section in both core models",
                        {}, 0, "caches");
    }
    if (!tx2->caches->tlb || !riscvTx2->caches->tlb) {
      throw ConfigError("E14 needs a tlb: section in both core models", {},
                        0, "tlb");
    }
    if (!(*tx2->caches == *riscvTx2->caches)) {
      throw ValidationFault(
          "tx2 and riscv-tx2 caches: sections differ; the cross-ISA "
          "page-set comparison requires identical geometry");
    }
  });

  const GridRun run = runGridSpec(spec, flags);
  const engine::GridResult& grid = run.grid;
  const engine::GridShape shape = engine::resolveGridShape(spec);
  const auto& suite = shape.suite;
  const auto& configs = shape.configs;
  engine::mergeIntoBoundary(grid, boundary, std::cout);

  std::cout << "E14: memory system (TLB + MSHR/bandwidth bounds + "
               "shared-L2 scaling)\n";
  if (tx2 && tx2->caches) {
    std::cout << "Memory system (both ISAs): "
              << describeMemSystem(*tx2->caches) << "\n";
  }
  std::cout << "\n";

  for (std::size_t w = 0; w < suite.size(); ++w) {
    std::cout << "== " << suite[w].name << " ==\n";
    Table bounds({"config", "instructions", "TLB walks", "pages",
                  "mem bytes", "CP", "port", "issue", "MSHR", "bandwidth",
                  "bound", "binding"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasMemSystem) continue;
      const uarch::mem::MemSummary& m = cell.memSystem;
      const CombinedBound bound = combinedBound(cell);
      bounds.addRow(
          {configName(configs[c]), withCommas(cell.instructions),
           withCommas(m.tlb.walks), withCommas(m.footprintPages),
           withCommas(m.totalBytes()),
           cell.hasScaledCp ? withCommas(cell.scaledCriticalPath) : "-",
           cell.hasThroughput ? withCommas(cell.throughputProgram.portBound)
                              : "-",
           cell.hasThroughput
               ? withCommas(cell.throughputProgram.issueBound)
               : "-",
           withCommas(m.mshrBoundCycles), withCommas(m.bandwidthBoundCycles),
           withCommas(bound.cycles), bound.binding});
    }
    std::cout << bounds << "\n";

    Table kernels({"kernel", "config", "instructions", "TLB accesses",
                   "TLB walks", "pages", "page-set digest"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasMemSystem) continue;
      for (const auto& k : cell.memKernels) {
        kernels.addRow({k.name, configName(configs[c]),
                        withCommas(k.instructions),
                        withCommas(k.tlbAccesses), withCommas(k.tlbWalks),
                        withCommas(k.footprintPages),
                        hexDigest(k.pageSetDigest)});
      }
    }
    std::cout << kernels << "\n";

    Table scaling({"config", "cores", "L2 accesses", "L2 misses",
                   "bytes from mem", "MSHR bound", "BW bound", "cycles",
                   "speedup"});
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasMemSystem || cell.memScaling.empty()) {
        continue;
      }
      const std::uint64_t base = scalingCycles(cell, cell.memScaling[0]);
      for (const uarch::mem::ScalingPoint& point : cell.memScaling) {
        const std::uint64_t cycles = scalingCycles(cell, point);
        // Throughput speedup over the 1-core point: N cores retire N
        // copies of the stream in cycles(N).
        const double speedup =
            cycles == 0 ? 0.0
                        : static_cast<double>(point.cores) *
                              static_cast<double>(base) /
                              static_cast<double>(cycles);
        scaling.addRow({configName(configs[c]),
                        std::to_string(point.cores),
                        withCommas(point.sharedL2Accesses),
                        withCommas(point.sharedL2Misses),
                        withCommas(point.bytesFromMem),
                        withCommas(point.mshrBoundCycles),
                        withCommas(point.bandwidthBoundCycles),
                        withCommas(cycles), sigFigs(speedup, 3)});
      }
    }
    std::cout << scaling << "\n";
  }

  // Cross-ISA invariant: per era, both ISAs must show identical line sets
  // AND page sets (program- and kernel-level) for every workload.
  std::vector<std::pair<std::string, bool>> verdicts;
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      const std::string name = suite[w].name + "/" +
                               std::string(kgen::eraName(era)) +
                               "/cross-isa-page-sets";
      const bool ok = boundary.run(name, [&] {
        const engine::CellResult* a64 =
            findCell(grid, w, Arch::AArch64, era);
        const engine::CellResult* rv64 = findCell(grid, w, Arch::Rv64, era);
        if (a64 == nullptr || rv64 == nullptr) {
          throw ValidationFault("cross-ISA memory-system check: grid is "
                                "missing an ISA column for " +
                                suite[w].name);
        }
        checkCrossIsa(suite[w].name, era, *a64, *rv64);
      });
      verdicts.emplace_back(name, ok);
    }
  }
  std::size_t crossIsaOk = 0;
  for (const auto& [name, ok] : verdicts) crossIsaOk += ok ? 1 : 0;
  std::cout << "Cross-ISA page-set identity: " << crossIsaOk << "/"
            << verdicts.size() << " workload x era pairs match\n";

  // Conservation invariant: every scaling point of every completed cell.
  std::size_t conservationOk = 0;
  std::size_t conservationAll = 0;
  for (std::size_t w = 0; w < suite.size(); ++w) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const engine::CellResult& cell = grid.at(w, c);
      if (!cell.cell.ok || !cell.hasMemSystem) continue;
      ++conservationAll;
      const std::string name = suite[w].name + "/" +
                               configName(configs[c]) +
                               "/miss-conservation";
      conservationOk +=
          boundary.run(name, [&] { checkConservation(cell); }) ? 1 : 0;
    }
  }
  std::cout << "Shared-L2 miss conservation: " << conservationOk << "/"
            << conservationAll << " cells conserve per-core miss sums\n";
  std::cout << "Page sets, like line sets, are ISA-invariant; the binding "
               "resource column shows where each workload leaves the\n"
               "core-bound regime — at production sizes (--scale=1) "
               "STREAM's bytes/cycle demand exceeds the modelled memory\n"
               "bandwidth and the bound switches from the core to "
               "'bandwidth'.\n";

  if (jsonPath) {
    std::ostringstream json;
    json << "{\n  \"experiment\": \"E14\",\n  \"scale\": "
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
    json << "  ],\n  \"conservation\": {\"ok\": " << conservationOk
         << ", \"cells\": " << conservationAll << "}\n}\n";
    if (!writeJsonArtifact(*jsonPath, json.str())) return 2;
  }

  std::cout << run.footer << "\n";
  return boundary.finish();
}
