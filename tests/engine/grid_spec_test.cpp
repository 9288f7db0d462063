// GridSpec tests (ISSUE 9): exact JSON round-trip, shape resolution and
// its usage errors, fingerprint/cell-key stability properties, and the
// resolver's wiring of analyses and store keys into EngineOptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "engine/grid_spec.hpp"
#include "support/fault.hpp"

namespace riscmp::engine {
namespace {

GridSpec smallSpec() {
  GridSpec spec;
  spec.scale = 0.05;
  spec.workloads = {"STREAM", "LBM"};
  spec.analyses = kPathLength | kCriticalPath;
  spec.budget = 123456;
  return spec;
}

TEST(GridSpecJson, RoundTripsExactly) {
  GridSpec spec = smallSpec();
  spec.configs = {{Arch::AArch64, kgen::CompilerEra::Gcc9},
                  {Arch::Rv64, kgen::CompilerEra::Gcc12}};
  spec.gcc12Analyses = kWindowedCP;
  spec.windowSizes = {4, 64};
  spec.configDir = "/tmp/configs";
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;
  spec.memCores = {1, 2, 4};

  const GridSpec back = gridSpecFromJson(gridSpecToJson(spec));
  EXPECT_EQ(back.scale, spec.scale);  // bit-exact via scale_bits
  EXPECT_EQ(back.workloads, spec.workloads);
  ASSERT_EQ(back.configs.size(), spec.configs.size());
  for (std::size_t c = 0; c < spec.configs.size(); ++c) {
    EXPECT_EQ(back.configs[c].arch, spec.configs[c].arch);
    EXPECT_EQ(back.configs[c].era, spec.configs[c].era);
  }
  EXPECT_EQ(back.analyses, spec.analyses);
  EXPECT_EQ(back.gcc12Analyses, spec.gcc12Analyses);
  EXPECT_EQ(back.windowSizes, spec.windowSizes);
  EXPECT_EQ(back.budget, spec.budget);
  EXPECT_EQ(back.configDir, spec.configDir);
  EXPECT_EQ(back.modelA64, spec.modelA64);
  EXPECT_EQ(back.modelRv64, spec.modelRv64);
  EXPECT_EQ(back.requireModels, spec.requireModels);
  EXPECT_EQ(back.memCores, spec.memCores);

  // The dump itself must be stable: spec -> json -> spec -> json is a
  // fixed point (the daemon fingerprints canonical re-encodings).
  EXPECT_EQ(gridSpecToJson(spec).dump(), gridSpecToJson(back).dump());
}

TEST(GridSpecJson, RejectsWrongVersionAndBadMask) {
  support::JsonValue doc = gridSpecToJson(smallSpec());
  doc.set("v", support::JsonValue(static_cast<std::uint64_t>(99)));
  EXPECT_THROW(gridSpecFromJson(doc), ConfigError);

  support::JsonValue doc2 = gridSpecToJson(smallSpec());
  doc2.set("analyses",
           support::JsonValue(static_cast<std::uint64_t>(kAllAnalyses + 1)));
  EXPECT_THROW(gridSpecFromJson(doc2), ConfigError);
}

TEST(GridSpecJson, RejectsZeroMemCores) {
  // A zero-core scaling point is meaningless (ISSUE 10); reject it at
  // parse time rather than letting the analyzer silently drop it.
  GridSpec spec = smallSpec();
  spec.memCores = {2, 0};
  EXPECT_THROW(gridSpecFromJson(gridSpecToJson(spec)), ConfigError);
}

/// The spec's JSON with `key` replaced by the one-element array [value].
support::JsonValue withOneEntry(const std::string& key, std::uint64_t value) {
  support::JsonValue doc = gridSpecToJson(smallSpec());
  support::JsonValue array = support::JsonValue::array();
  array.push(support::JsonValue(value));
  doc.set(key, array);
  return doc;
}

/// The ConfigError gridSpecFromJson throws for `doc` (fails if none).
ConfigError rejection(const support::JsonValue& doc) {
  try {
    gridSpecFromJson(doc);
  } catch (const ConfigError& error) {
    return error;
  }
  ADD_FAILURE() << "gridSpecFromJson accepted " << doc.dump();
  return ConfigError("accepted");
}

TEST(GridSpecJson, RejectsWindowSizesOutsideUint32) {
  // 4294967300 used to be truncated to a 4-instruction window; 0 used to
  // make a window that holds nothing.
  for (const std::uint64_t size : {std::uint64_t{0}, std::uint64_t{4294967296},
                                   std::uint64_t{4294967300}}) {
    const ConfigError error = rejection(withOneEntry("windows", size));
    EXPECT_EQ(error.key(), "windows") << size;
  }
  const GridSpec largest =
      gridSpecFromJson(withOneEntry("windows", std::uint64_t{4294967295u}));
  EXPECT_EQ(largest.windowSizes, std::vector<std::uint32_t>{4294967295u});
}

TEST(GridSpecJson, RejectsMemCoresOutsideUint32) {
  // 4294967296 used to pass the zero check and become 0 cores (silently
  // dropped by the memory system); 4294967298 used to become 2.
  for (const std::uint64_t cores :
       {std::uint64_t{4294967296}, std::uint64_t{4294967298}}) {
    const ConfigError error = rejection(withOneEntry("mem_cores", cores));
    EXPECT_EQ(error.key(), "mem_cores") << cores;
  }
  EXPECT_EQ(gridSpecFromJson(withOneEntry("mem_cores", std::uint64_t{3})).memCores,
            std::vector<unsigned>{3});
}

TEST(GridShape, FiltersSuiteAndDefaultsConfigs) {
  const GridShape shape = resolveGridShape(smallSpec());
  ASSERT_EQ(shape.suite.size(), 2u);
  EXPECT_EQ(shape.suite[0].name, "STREAM");
  EXPECT_EQ(shape.suite[1].name, "LBM");
  EXPECT_EQ(shape.configs.size(), paperConfigs().size());
}

TEST(GridShape, UnknownWorkloadAndBadScaleAreConfigErrors) {
  GridSpec spec = smallSpec();
  spec.workloads = {"no-such-workload"};
  EXPECT_THROW(resolveGridShape(spec), ConfigError);

  GridSpec bad = smallSpec();
  bad.scale = -1.0;
  EXPECT_THROW(resolveGridShape(bad), ConfigError);
}

TEST(ResolveGridSpec, KeysAreUniqueAndFingerprintIsStable) {
  const GridSpec spec = smallSpec();
  const ResolvedGrid a = resolveGridSpec(spec, {});
  const ResolvedGrid b = resolveGridSpec(spec, {});
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.cellKeys, b.cellKeys);
  EXPECT_EQ(a.cellKeys.size(), a.suite.size() * a.configs.size());
  const std::set<std::string> unique(a.cellKeys.begin(), a.cellKeys.end());
  EXPECT_EQ(unique.size(), a.cellKeys.size());
}

TEST(ResolveGridSpec, KeysSeparateAnalysesBudgetAndScale) {
  const ResolvedGrid base = resolveGridSpec(smallSpec(), {});

  GridSpec other = smallSpec();
  other.analyses = kPathLength;
  EXPECT_NE(resolveGridSpec(other, {}).fingerprint, base.fingerprint);

  other = smallSpec();
  other.budget = base.options.budget + 1;
  EXPECT_NE(resolveGridSpec(other, {}).fingerprint, base.fingerprint);

  other = smallSpec();
  other.scale = 0.06;
  EXPECT_NE(resolveGridSpec(other, {}).fingerprint, base.fingerprint);
}

TEST(ResolveGridSpec, StoreKeyForMapsDenseGridOrder) {
  const ResolvedGrid resolved = resolveGridSpec(smallSpec(), {});
  ASSERT_TRUE(static_cast<bool>(resolved.options.storeKeyFor));
  for (std::size_t w = 0; w < resolved.suite.size(); ++w) {
    for (std::size_t c = 0; c < resolved.configs.size(); ++c) {
      CellKey key;
      key.workloadIndex = w;
      key.configIndex = c;
      EXPECT_EQ(resolved.options.storeKeyFor(key),
                resolved.cellKeys[w * resolved.configs.size() + c]);
    }
  }
}

TEST(ResolveGridSpec, AppliesSpecOntoBaseOptions) {
  GridSpec spec = smallSpec();
  spec.gcc12Analyses = kWindowedCP;
  EngineOptions base;
  base.jobs = 3;
  const ResolvedGrid resolved = resolveGridSpec(spec, base);
  EXPECT_EQ(resolved.options.jobs, 3u);
  EXPECT_EQ(resolved.options.budget, spec.budget);
  EXPECT_EQ(resolved.options.analyses, spec.analyses);
  ASSERT_TRUE(static_cast<bool>(resolved.options.analysesFor));
  CellKey gcc9;
  gcc9.config = {Arch::Rv64, kgen::CompilerEra::Gcc9};
  CellKey gcc12;
  gcc12.config = {Arch::Rv64, kgen::CompilerEra::Gcc12};
  EXPECT_EQ(resolved.options.analysesFor(gcc9), spec.analyses);
  EXPECT_EQ(resolved.options.analysesFor(gcc12),
            spec.analyses | kWindowedCP);
}

TEST(ArchEraTokens, RoundTripAndReject) {
  EXPECT_EQ(archFromToken(archToken(Arch::AArch64)), Arch::AArch64);
  EXPECT_EQ(archFromToken(archToken(Arch::Rv64)), Arch::Rv64);
  EXPECT_EQ(eraFromToken(eraToken(kgen::CompilerEra::Gcc9)),
            kgen::CompilerEra::Gcc9);
  EXPECT_EQ(eraFromToken(eraToken(kgen::CompilerEra::Gcc12)),
            kgen::CompilerEra::Gcc12);
  EXPECT_THROW(archFromToken("x86"), ConfigError);
  EXPECT_THROW(eraFromToken("gcc4"), ConfigError);
}

}  // namespace
}  // namespace riscmp::engine
