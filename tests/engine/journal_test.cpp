// Cell codec + run journal (ISSUE 6 tentpole): exact round-trips, durable
// appends, crash-torn-line tolerance, and the canonical rewrite that makes
// fault-free journals byte-identical across worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "engine/cell_codec.hpp"
#include "engine/journal.hpp"
#include "support/fault.hpp"

namespace riscmp::engine {
namespace {

namespace fs = std::filesystem;

/// A CellResult with every field populated, including doubles that decimal
/// renderings would mangle (subnormals, values needing all 17 digits).
CellResult sampleCell() {
  CellResult cell;
  cell.key = CellKey{"STREAM", 0,
                     Config{Arch::Rv64, kgen::CompilerEra::Gcc12}, 3};
  cell.cell.name = "STREAM/GCC 12.2 RISC-V";
  cell.instructions = 123456789;
  cell.kernels = {{"copy", 1000}, {"triad", 2000}};
  for (std::size_t g = 0; g < kInstGroupCount; ++g) cell.groups[g] = g * 7 + 1;
  cell.unattributed = 42;
  cell.criticalPath = 54321;
  cell.hasScaledCp = true;
  cell.scaledCriticalPath = 98765;

  WindowedCPAnalyzer::WindowResult window;
  window.windowSize = 64;
  window.windows = 17;
  window.meanCp = 0.1 + 0.2;  // 0.30000000000000004 — decimal-hostile
  window.meanIlp = 5e-324;    // smallest subnormal
  window.minCp = 1.0;
  window.maxCp = 1e308;
  cell.windows = {window};

  cell.deps.dependencies = 77;
  cell.deps.meanDistance = 3.3333333333333335;
  cell.deps.within4 = 0.25;
  cell.deps.within16 = 0.5;
  cell.deps.within64 = 0.75;

  cell.hasCache = true;
  cell.cache.loads = 11;
  cell.cache.stores = 12;
  cell.cache.l1Hits = 13;
  cell.cache.l1Misses = 14;
  cell.cache.l2Hits = 15;
  cell.cache.l2Misses = 16;
  cell.cache.writebacksToL2 = 17;
  cell.cache.writebacksToMem = 18;
  cell.cache.prefetchesIssued = 19;
  cell.cache.prefetchesUseful = 20;
  cell.cacheFootprintLines = 21;
  cell.cacheLineSetDigest = 0xDEADBEEFCAFEF00Dull;
  cell.cacheKernels = {{"copy", 1, 2, 3, 4, 5, 6, 7}};
  cell.hasCacheAwareCp = true;
  cell.cacheAwareCriticalPath = 111213;

  cell.hasThroughput = true;
  cell.throughputProgram =
      {"<program>", 4000, {151, 149, 50, 50, 0, 0}, 151, "ls0", 1000, 88};
  cell.throughputKernels = {
      {"copy", 1000, {100, 100, 0, 0, 0, 0}, 100, "ls0", 250, 8},
      {"triad", 3000, {51, 49, 50, 50, 0, 0}, 51, "ls0", 750, 80}};

  cell.hasFusion = true;
  cell.fusedInstructions = 123450000;
  cell.fusionPairs = 6789;
  for (std::size_t r = 0; r < uarch::kFusionRuleCount; ++r) {
    cell.fusionPairsByRule[r] = r * 11 + 3;
  }
  cell.fusionUnattributedPairs = 5;
  cell.fusionKernels = {{"copy", 1234, {1, 2, 3, 4, 5, 6, 7}},
                        {"triad", 5555, {0, 0, 0, 0, 5555, 0, 0}}};
  cell.fusedKernels = {{"copy", 900}, {"triad", 1800}};
  cell.fusedCriticalPath = 44321;
  cell.hasFusedScaledCp = true;
  cell.fusedScaledCriticalPath = 88765;

  cell.cache.prefetchFillsFromMem = 9;

  cell.hasMemSystem = true;
  cell.memSystem.tlb = {1000, 900, 100, 60, 40, 1200};
  cell.memSystem.footprintPages = 31;
  cell.memSystem.pageSetDigest = 0xFEEDFACE12345678ull;
  cell.memSystem.demandFillBytes = 2048;
  cell.memSystem.prefetchFillBytes = 576;
  cell.memSystem.writebackBytes = 128;
  cell.memSystem.missCycles = 4100;
  cell.memSystem.mshrBoundCycles = 513;
  cell.memSystem.bandwidthBoundCycles = 172;
  cell.memKernels = {{"copy", 1000, 500, 3, 7, 0x1111111111111111ull},
                     {"triad", 2000, 750, 0, 8, 0x2222222222222222ull}};
  uarch::mem::ScalingPoint one;
  one.cores = 1;
  one.perCore = {{500, 40, 24, 16, 5000}};
  one.sharedL2Accesses = 40;
  one.sharedL2Hits = 24;
  one.sharedL2Misses = 16;
  one.sharedWritebacksToMem = 2;
  one.bytesFromMem = 1152;
  one.bandwidthBoundCycles = 72;
  one.mshrBoundCycles = 98;
  uarch::mem::ScalingPoint two;
  two.cores = 2;
  two.perCore = {{500, 44, 20, 24, 5600}, {500, 45, 19, 26, 5800}};
  two.sharedL2Accesses = 89;
  two.sharedL2Hits = 39;
  two.sharedL2Misses = 50;
  two.sharedWritebacksToMem = 5;
  two.bytesFromMem = 3520;
  two.bandwidthBoundCycles = 220;
  two.mshrBoundCycles = 150;
  cell.memScaling = {one, two};
  return cell;
}

void expectIdentical(const CellResult& a, const CellResult& b) {
  // Field-by-field via the canonical encoding: any drift shows up as a
  // digest mismatch, and the dumps make failures readable.
  EXPECT_EQ(encodeCell(a).dump(), encodeCell(b).dump());
  EXPECT_EQ(cellDigest(a), cellDigest(b));
}

TEST(CellCodec, RoundTripsEveryField) {
  const CellResult original = sampleCell();
  const CellResult decoded = decodeCell(encodeCell(original));
  expectIdentical(original, decoded);
  // Spot-check the decimal-hostile doubles really are bit-identical.
  EXPECT_EQ(decoded.windows[0].meanCp, 0.1 + 0.2);
  EXPECT_EQ(decoded.windows[0].meanIlp, 5e-324);
  EXPECT_EQ(decoded.deps.meanDistance, 3.3333333333333335);
}

TEST(CellCodec, RoundTripsFailedCellWithFaultText) {
  CellResult failed = sampleCell();
  failed.cell.ok = false;
  failed.cell.kind = "CrashFault";
  failed.cell.summary =
      "worker for cell 'STREAM/GCC 12.2 RISC-V' killed by SIGSEGV (signal "
      "11)";
  failed.faultText = "\n[cell 'STREAM/GCC 12.2 RISC-V' failed]\n=== FAULT "
                     "REPORT: CrashFault ===\n...\n\n";
  const CellResult decoded = decodeCell(encodeCell(failed));
  expectIdentical(failed, decoded);
  EXPECT_EQ(decoded.cell.kind, "CrashFault");
  EXPECT_EQ(decoded.faultText, failed.faultText);
}

// v3 codec (ISSUE 8): the fusion block must survive the round-trip exactly
// — including per-rule arrays — for both successful and failed cells, so a
// --resume of a fusion grid reproduces BENCH_fusion.json byte-for-byte.
TEST(CellCodec, RoundTripsFusionFields) {
  const CellResult original = sampleCell();
  const CellResult decoded = decodeCell(encodeCell(original));
  expectIdentical(original, decoded);
  EXPECT_TRUE(decoded.hasFusion);
  EXPECT_EQ(decoded.fusedInstructions, 123450000u);
  EXPECT_EQ(decoded.fusionPairs, 6789u);
  EXPECT_EQ(decoded.fusionPairsByRule, original.fusionPairsByRule);
  EXPECT_EQ(decoded.fusionUnattributedPairs, 5u);
  ASSERT_EQ(decoded.fusionKernels.size(), 2u);
  EXPECT_EQ(decoded.fusionKernels[1].name, "triad");
  EXPECT_EQ(decoded.fusionKernels[1].pairs, 5555u);
  EXPECT_EQ(decoded.fusionKernels[1].byRule,
            original.fusionKernels[1].byRule);
  ASSERT_EQ(decoded.fusedKernels.size(), 2u);
  EXPECT_EQ(decoded.fusedKernels[0].count, 900u);
  EXPECT_EQ(decoded.fusedCriticalPath, 44321u);
  EXPECT_TRUE(decoded.hasFusedScaledCp);
  EXPECT_EQ(decoded.fusedScaledCriticalPath, 88765u);
}

// v4 codec (ISSUE 10): the memory-system block — TLB totals, page-set
// digests, occupancy bounds, per-kernel translation stats, and the full
// shared-L2 scaling curve with per-core shares — must survive the
// round-trip exactly so a --resume reproduces BENCH_mem.json
// byte-for-byte.
TEST(CellCodec, RoundTripsMemSystemFields) {
  const CellResult original = sampleCell();
  const CellResult decoded = decodeCell(encodeCell(original));
  expectIdentical(original, decoded);
  EXPECT_TRUE(decoded.hasMemSystem);
  EXPECT_EQ(decoded.memSystem, original.memSystem);
  EXPECT_EQ(decoded.memSystem.tlb.walkCycles, 1200u);
  EXPECT_EQ(decoded.memSystem.pageSetDigest, 0xFEEDFACE12345678ull);
  EXPECT_EQ(decoded.memSystem.totalBytes(), 2048u + 576u + 128u);
  EXPECT_EQ(decoded.cache.prefetchFillsFromMem, 9u);
  ASSERT_EQ(decoded.memKernels.size(), 2u);
  EXPECT_EQ(decoded.memKernels[1].name, "triad");
  EXPECT_EQ(decoded.memKernels[1].pageSetDigest, 0x2222222222222222ull);
  ASSERT_EQ(decoded.memScaling.size(), 2u);
  EXPECT_EQ(decoded.memScaling[0], original.memScaling[0]);
  EXPECT_EQ(decoded.memScaling[1], original.memScaling[1]);
  ASSERT_EQ(decoded.memScaling[1].perCore.size(), 2u);
  EXPECT_EQ(decoded.memScaling[1].perCore[1].latencyCycles, 5800u);
}

TEST(CellCodec, MemSystemlessCellOmitsBlock) {
  CellResult cell = sampleCell();
  cell.hasMemSystem = false;
  const CellResult decoded = decodeCell(encodeCell(cell));
  EXPECT_FALSE(decoded.hasMemSystem);
  EXPECT_EQ(decoded.memSystem, uarch::mem::MemSummary{});
  EXPECT_TRUE(decoded.memKernels.empty());
  EXPECT_TRUE(decoded.memScaling.empty());
  EXPECT_NE(cellDigest(cell), cellDigest(sampleCell()));
}

TEST(CellCodec, RoundTripsFailedFusedCell) {
  // A fusion cell that faulted mid-grid: ok=false with fault text, fusion
  // block still attached (the cell may have been harvested pre-fault on a
  // resume path). Both the flag and the payload must round-trip.
  CellResult failed = sampleCell();
  failed.cell.ok = false;
  failed.cell.kind = "TimeoutFault";
  failed.cell.summary = "worker for cell 'STREAM/GCC 12.2 RISC-V' timed out";
  failed.faultText = "=== FAULT REPORT: TimeoutFault ===\n...\n";
  const CellResult decoded = decodeCell(encodeCell(failed));
  expectIdentical(failed, decoded);
  EXPECT_FALSE(decoded.cell.ok);
  EXPECT_TRUE(decoded.hasFusion);
  EXPECT_EQ(decoded.fusionPairs, 6789u);
  EXPECT_EQ(decoded.faultText, failed.faultText);
}

TEST(CellCodec, FusionlessCellOmitsFusionBlock) {
  CellResult cell = sampleCell();
  cell.hasFusion = false;
  const CellResult decoded = decodeCell(encodeCell(cell));
  EXPECT_FALSE(decoded.hasFusion);
  EXPECT_EQ(decoded.fusionPairs, 0u);
  EXPECT_TRUE(decoded.fusionKernels.empty());
  // And the digest separates fused from fusionless cells.
  EXPECT_NE(cellDigest(cell), cellDigest(sampleCell()));
}

TEST(CellCodec, RoundTripsNaN) {
  CellResult cell = sampleCell();
  cell.windows[0].meanCp = std::numeric_limits<double>::quiet_NaN();
  const CellResult decoded = decodeCell(encodeCell(cell));
  EXPECT_TRUE(std::isnan(decoded.windows[0].meanCp));
}

TEST(CellCodec, RejectsUnknownVersion) {
  support::JsonValue doc = encodeCell(sampleCell());
  doc.set("v", support::JsonValue(std::uint64_t{999}));
  EXPECT_THROW((void)decodeCell(doc), ConfigError);
}

// The v4 wire bytes themselves, not just self-consistency: a key rename,
// reorder, or changed gating that round-trips cleanly would still change
// every stored result's digest. A codec change that alters these literals
// must bump kCodecV.
TEST(CellCodec, PinsV4Bytes) {
  EXPECT_EQ(digestHex(cellDigest(sampleCell())), "e8119dbc1c5c0698");

  CellResult failedFused = sampleCell();
  failedFused.cell.ok = false;
  failedFused.cell.kind = "TimeoutFault";
  failedFused.cell.summary =
      "worker for cell 'STREAM/GCC 12.2 RISC-V' timed out";
  failedFused.faultText = "=== FAULT REPORT: TimeoutFault ===\n...\n";
  EXPECT_EQ(digestHex(cellDigest(failedFused)), "8cf0ac90761e8495");

  // Every gated block off and no fault text: the minimal record.
  EXPECT_EQ(digestHex(cellDigest(CellResult{})), "903d1cd6b9ffb07a");
}

TEST(CellCodec, DigestIsSensitiveToEveryBit) {
  CellResult a = sampleCell();
  CellResult b = sampleCell();
  EXPECT_EQ(cellDigest(a), cellDigest(b));
  b.windows[0].meanCp = std::nextafter(b.windows[0].meanCp, 1.0);
  EXPECT_NE(cellDigest(a), cellDigest(b));
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("riscmp-journal-" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    header_.workloads = {"STREAM"};
    header_.configs = {"GCC 12.2 RISC-V"};
    header_.budget = 1000;
    header_.analyses = 127;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  static JournalEntry entryFor(const CellResult& cell) {
    return JournalEntry{cell.cell.name, "00ff00ff00ff00ff", cell};
  }

  fs::path dir_;
  JournalHeader header_;
};

TEST_F(JournalTest, AppendThenLoadRoundTrips) {
  const CellResult cell = sampleCell();
  {
    RunJournal journal(path("run.jsonl"), header_);
    journal.append(entryFor(cell), 1234, 0);
  }
  const RunJournal::Loaded loaded = RunJournal::load(path("run.jsonl"));
  EXPECT_TRUE(loaded.hasHeader);
  EXPECT_EQ(loaded.header, header_);
  EXPECT_EQ(loaded.skippedLines, 0u);
  ASSERT_EQ(loaded.entries.size(), 1u);
  const JournalEntry& entry = loaded.entries.at(cell.cell.name);
  EXPECT_EQ(entry.fingerprint, "00ff00ff00ff00ff");
  expectIdentical(entry.result, cell);
}

TEST_F(JournalTest, MissingFileLoadsEmpty) {
  const RunJournal::Loaded loaded = RunJournal::load(path("nope.jsonl"));
  EXPECT_FALSE(loaded.hasHeader);
  EXPECT_TRUE(loaded.entries.empty());
}

TEST_F(JournalTest, ToleratesTornFinalLine) {
  const CellResult cell = sampleCell();
  {
    RunJournal journal(path("run.jsonl"), header_);
    journal.append(entryFor(cell), 10, 0);
  }
  // Simulate a crash mid-append: a second record cut off mid-line.
  {
    std::ofstream out(path("run.jsonl"), std::ios::app);
    out << R"({"type":"cell","v":1,"name":"torn","fp":"01)";
  }
  const RunJournal::Loaded loaded = RunJournal::load(path("run.jsonl"));
  EXPECT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.skippedLines, 1u);
  EXPECT_TRUE(loaded.entries.count(cell.cell.name) == 1);
}

TEST_F(JournalTest, RejectsTamperedResultDigest) {
  const CellResult cell = sampleCell();
  {
    RunJournal journal(path("run.jsonl"), header_);
    journal.append(entryFor(cell), 10, 0);
  }
  std::ifstream in(path("run.jsonl"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  // Flip a digit inside the stored instruction count.
  const std::string needle = "\"instructions\":123456789";
  const auto at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"instructions\":123456780");
  std::ofstream(path("run.jsonl"), std::ios::trunc) << text;

  const RunJournal::Loaded loaded = RunJournal::load(path("run.jsonl"));
  EXPECT_TRUE(loaded.entries.empty());  // digest mismatch -> re-run the cell
  EXPECT_EQ(loaded.skippedLines, 1u);
}

TEST_F(JournalTest, LastRecordPerCellWins) {
  CellResult first = sampleCell();
  CellResult second = sampleCell();
  second.instructions = 5;
  {
    RunJournal journal(path("run.jsonl"), header_);
    journal.append(entryFor(first), 10, 0);
    journal.append(entryFor(second), 20, 1);
  }
  const RunJournal::Loaded loaded = RunJournal::load(path("run.jsonl"));
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries.at(first.cell.name).result.instructions, 5u);
}

TEST_F(JournalTest, FinalizeProducesCanonicalBytes) {
  const CellResult cell = sampleCell();
  // Two journals, different append order/timing, same grid: after
  // finalize both files must be byte-identical (the --jobs determinism
  // acceptance in miniature).
  CellResult other = sampleCell();
  other.cell.name = "STREAM/GCC 9.2 RISC-V";
  const std::vector<JournalEntry> canonical = {entryFor(cell),
                                               entryFor(other)};
  {
    RunJournal journal(path("a.jsonl"), header_);
    journal.append(entryFor(cell), 111, 0);
    journal.append(entryFor(other), 222, 2);
    journal.finalize(canonical);
  }
  {
    RunJournal journal(path("b.jsonl"), header_);
    journal.append(entryFor(other), 999, 1);
    journal.append(entryFor(cell), 1, 0);
    journal.finalize(canonical);
  }
  std::ifstream a(path("a.jsonl")), b(path("b.jsonl"));
  const std::string aText((std::istreambuf_iterator<char>(a)),
                          std::istreambuf_iterator<char>());
  const std::string bText((std::istreambuf_iterator<char>(b)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(aText, bText);
  EXPECT_NE(aText.find("\"type\":\"end\""), std::string::npos);
  // Volatile fields are dropped from the canonical form.
  EXPECT_EQ(aText.find("\"us\":"), std::string::npos);
  EXPECT_EQ(aText.find("\"attempt\":"), std::string::npos);
}

TEST_F(JournalTest, HeaderMismatchIsDetectable) {
  {
    RunJournal journal(path("run.jsonl"), header_);
    journal.append(entryFor(sampleCell()), 10, 0);
  }
  const RunJournal::Loaded loaded = RunJournal::load(path("run.jsonl"));
  JournalHeader other = header_;
  other.budget = 2000;
  EXPECT_TRUE(loaded.header == header_);
  EXPECT_FALSE(loaded.header == other);
}

}  // namespace
}  // namespace riscmp::engine
