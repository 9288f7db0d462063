#include "engine/cell_codec.hpp"

#include <bit>
#include <concepts>
#include <cstdio>
#include <type_traits>

#include "support/fault.hpp"

namespace riscmp::engine {

using support::JsonValue;

namespace {

// ---- The v4 schema -------------------------------------------------------
// One field list per record type: `fields(f, record)` names every member
// once, in emission order, and both directions walk the same list — the
// Encoder below turns `f(key, member)` into an object member, the Decoder
// reads it back. Adding a result field is one line here (plus a kCodecV
// bump when the layout changes).

/// Matches `R` and `const R`, so one list serves encode and decode.
template <class T, class R>
concept Rec = std::same_as<std::remove_const_t<T>, R>;

void fields(auto& f, Rec<Config> auto& c) {
  f("arch", c.arch);
  f("era", c.era);
}

void fields(auto& f, Rec<CellKey> auto& k) {
  f("workload", k.workload);
  f("w", k.workloadIndex);
  f("config", k.config);
  f("c", k.configIndex);
}

void fields(auto& f, Rec<verify::CellResult> auto& c) {
  f("name", c.name);
  f("ok", c.ok);
  if (!c.ok) {
    f("kind", c.kind);
    f("summary", c.summary);
  }
}

void fields(auto& f, Rec<PathLengthCounter::KernelCount> auto& k) {
  f("name", k.name);
  f("count", k.count);
}

void fields(auto& f, Rec<WindowedCPAnalyzer::WindowResult> auto& w) {
  f("size", w.windowSize);
  f("windows", w.windows);
  f("meanCp", w.meanCp);
  f("meanIlp", w.meanIlp);
  f("minCp", w.minCp);
  f("maxCp", w.maxCp);
}

void fields(auto& f, Rec<DepSummary> auto& d) {
  f("dependencies", d.dependencies);
  f("meanDistance", d.meanDistance);
  f("within4", d.within4);
  f("within16", d.within16);
  f("within64", d.within64);
}

void fields(auto& f, Rec<uarch::mem::HierarchyStats> auto& s) {
  f("loads", s.loads);
  f("stores", s.stores);
  f("l1Hits", s.l1Hits);
  f("l1Misses", s.l1Misses);
  f("l2Hits", s.l2Hits);
  f("l2Misses", s.l2Misses);
  f("writebacksToL2", s.writebacksToL2);
  f("writebacksToMem", s.writebacksToMem);
  f("prefetchesIssued", s.prefetchesIssued);
  f("prefetchesUseful", s.prefetchesUseful);
  f("prefetchFillsFromMem", s.prefetchFillsFromMem);
}

void fields(auto& f, Rec<uarch::mem::CacheModelAnalyzer::KernelStats> auto& k) {
  f("name", k.name);
  f("instructions", k.instructions);
  f("loads", k.loads);
  f("stores", k.stores);
  f("l1Misses", k.l1Misses);
  f("l2Misses", k.l2Misses);
  f("footprintLines", k.footprintLines);
  f("lineSetDigest", k.lineSetDigest);
}

void fields(auto& f, Rec<ThroughputBoundAnalyzer::KernelBound> auto& b) {
  f("name", b.name);
  f("instructions", b.instructions);
  f("portCycles", b.portCycles);
  f("portBound", b.portBound);
  f("bindingPort", b.bindingPort);
  f("issueBound", b.issueBound);
  f("cpBound", b.cpBound);
}

void fields(auto& f, Rec<uarch::FusionPass::KernelFusion> auto& k) {
  f("name", k.name);
  f("pairs", k.pairs);
  f("byRule", k.byRule);
}

void fields(auto& f, Rec<uarch::mem::TlbStats> auto& t) {
  f("accesses", t.accesses);
  f("l1Hits", t.l1Hits);
  f("l1Misses", t.l1Misses);
  f("l2Hits", t.l2Hits);
  f("walks", t.walks);
  f("walkCycles", t.walkCycles);
}

void fields(auto& f, Rec<uarch::mem::MemSummary> auto& m) {
  f("tlb", m.tlb);
  f("footprintPages", m.footprintPages);
  f("pageSetDigest", m.pageSetDigest);
  f("demandFillBytes", m.demandFillBytes);
  f("prefetchFillBytes", m.prefetchFillBytes);
  f("writebackBytes", m.writebackBytes);
  f("missCycles", m.missCycles);
  f("mshrBoundCycles", m.mshrBoundCycles);
  f("bandwidthBoundCycles", m.bandwidthBoundCycles);
}

void fields(auto& f, Rec<uarch::mem::MemKernelStats> auto& k) {
  f("name", k.name);
  f("instructions", k.instructions);
  f("tlbAccesses", k.tlbAccesses);
  f("tlbWalks", k.tlbWalks);
  f("footprintPages", k.footprintPages);
  f("pageSetDigest", k.pageSetDigest);
}

void fields(auto& f, Rec<uarch::mem::CoreShare> auto& s) {
  f("accesses", s.accesses);
  f("l1Misses", s.l1Misses);
  f("l2Hits", s.l2Hits);
  f("l2Misses", s.l2Misses);
  f("latencyCycles", s.latencyCycles);
}

void fields(auto& f, Rec<uarch::mem::ScalingPoint> auto& p) {
  f("cores", p.cores);
  f("perCore", p.perCore);
  f("sharedL2Accesses", p.sharedL2Accesses);
  f("sharedL2Hits", p.sharedL2Hits);
  f("sharedL2Misses", p.sharedL2Misses);
  f("sharedWritebacksToMem", p.sharedWritebacksToMem);
  f("bytesFromMem", p.bytesFromMem);
  f("bandwidthBoundCycles", p.bandwidthBoundCycles);
  f("mshrBoundCycles", p.mshrBoundCycles);
}

void fields(auto& f, Rec<CellResult> auto& r) {
  f("key", r.key);
  f("cell", r.cell);
  if (f.present("faultText", !r.faultText.empty())) {
    f("faultText", r.faultText);
  }

  f("instructions", r.instructions);
  f("kernels", r.kernels);
  f("groups", r.groups);
  f("unattributed", r.unattributed);

  f("criticalPath", r.criticalPath);
  f("hasScaledCp", r.hasScaledCp);
  f("scaledCriticalPath", r.scaledCriticalPath);
  f("windows", r.windows);
  f("deps", r.deps);

  f("hasCache", r.hasCache);
  if (r.hasCache) {
    f("cache", r.cache);
    f("cacheFootprintLines", r.cacheFootprintLines);
    f("cacheLineSetDigest", r.cacheLineSetDigest);
    f("cacheKernels", r.cacheKernels);
  }
  f("hasCacheAwareCp", r.hasCacheAwareCp);
  f("cacheAwareCriticalPath", r.cacheAwareCriticalPath);

  f("hasThroughput", r.hasThroughput);
  if (r.hasThroughput) {
    f("throughputProgram", r.throughputProgram);
    f("throughputKernels", r.throughputKernels);
  }

  f("hasFusion", r.hasFusion);
  if (r.hasFusion) {
    f("fusedInstructions", r.fusedInstructions);
    f("fusionPairs", r.fusionPairs);
    f("fusionPairsByRule", r.fusionPairsByRule);
    f("fusionUnattributedPairs", r.fusionUnattributedPairs);
    f("fusionKernels", r.fusionKernels);
    f("fusedKernels", r.fusedKernels);
    f("fusedCriticalPath", r.fusedCriticalPath);
    f("hasFusedScaledCp", r.hasFusedScaledCp);
    f("fusedScaledCriticalPath", r.fusedScaledCriticalPath);
  }

  f("hasMemSystem", r.hasMemSystem);
  if (r.hasMemSystem) {
    f("memSystem", r.memSystem);
    f("memKernels", r.memKernels);
    f("memScaling", r.memScaling);
  }
}

// ---- The two visitors ----------------------------------------------------
// Integers and enums travel as JSON numbers, doubles as their IEEE-754 bit
// patterns (so re-encoding is byte-exact), records as nested objects.

class Encoder {
 public:
  explicit Encoder(JsonValue& out) : out_(out) {}

  void operator()(const char* key, const auto& value) {
    out_.set(key, encode(value));
  }
  /// Optional members are emitted only when they carry a value.
  bool present(const char* /*key*/, bool hasValue) const { return hasValue; }

 private:
  static JsonValue encode(bool value) { return JsonValue(value); }
  static JsonValue encode(double value) {
    return JsonValue(std::bit_cast<std::uint64_t>(value));
  }
  static JsonValue encode(const std::string& value) { return JsonValue(value); }
  template <class T>
    requires std::unsigned_integral<T> || std::is_enum_v<T>
  static JsonValue encode(const T& value) {
    return JsonValue(static_cast<std::uint64_t>(value));
  }
  template <class T, std::size_t N>
  static JsonValue encode(const std::array<T, N>& values) {
    return encodeItems(values);
  }
  template <class T>
  static JsonValue encode(const std::vector<T>& values) {
    return encodeItems(values);
  }
  template <class T>
    requires std::is_class_v<T>
  static JsonValue encode(const T& record) {
    JsonValue out = JsonValue::object();
    Encoder encoder(out);
    fields(encoder, record);
    return out;
  }

  static JsonValue encodeItems(const auto& values) {
    JsonValue out = JsonValue::array();
    for (const auto& value : values) out.push(encode(value));
    return out;
  }

  JsonValue& out_;
};

class Decoder {
 public:
  explicit Decoder(const JsonValue& in) : in_(in) {}

  void operator()(const char* key, auto& value) { decode(in_.at(key), value); }
  bool present(const char* key, bool /*hasValue*/) const {
    return in_.has(key);
  }

 private:
  static void decode(const JsonValue& in, bool& value) { value = in.asBool(); }
  static void decode(const JsonValue& in, double& value) {
    value = std::bit_cast<double>(in.asUint());
  }
  static void decode(const JsonValue& in, std::string& value) {
    value = in.asString();
  }
  template <class T>
    requires std::unsigned_integral<T> || std::is_enum_v<T>
  static void decode(const JsonValue& in, T& value) {
    value = static_cast<T>(in.asUint());
  }
  template <class T, std::size_t N>
  static void decode(const JsonValue& in, std::array<T, N>& values) {
    const auto& items = in.items();
    if (items.size() != N) {
      throw ConfigError("cell codec: fixed-length array size mismatch");
    }
    for (std::size_t i = 0; i < N; ++i) decode(items[i], values[i]);
  }
  template <class T>
  static void decode(const JsonValue& in, std::vector<T>& values) {
    for (const JsonValue& item : in.items()) {
      T value;
      decode(item, value);
      values.push_back(std::move(value));
    }
  }
  template <class T>
    requires std::is_class_v<T>
  static void decode(const JsonValue& in, T& record) {
    Decoder decoder(in);
    fields(decoder, record);
  }

  const JsonValue& in_;
};

}  // namespace

JsonValue encodeCell(const CellResult& result) {
  JsonValue out = JsonValue::object();
  out.set("v", JsonValue(kCodecV));
  Encoder encoder(out);
  fields(encoder, result);
  return out;
}

CellResult decodeCell(const JsonValue& value) {
  if (value.at("v").asUint() != kCodecV) {
    throw ConfigError("cell codec: unsupported version " +
                      std::to_string(value.at("v").asUint()));
  }
  CellResult result;
  Decoder decoder(value);
  fields(decoder, result);
  return result;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t cellDigest(const CellResult& result) {
  return fnv1a64(encodeCell(result).dump());
}

std::string digestHex(std::uint64_t digest) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

}  // namespace riscmp::engine
