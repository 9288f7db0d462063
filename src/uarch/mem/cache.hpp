// One level of a set-associative cache (ISSUE 5 tentpole).
//
// The paper's timing models assume a flat memory system: scaled CP charges
// every load the fixed LOAD latency from the core-model YAML (§5.1, §6.1).
// This module supplies the structural half of the memory hierarchy that
// replaces that assumption — a set-associative, true-LRU array tracked at
// line granularity, with dirty bits for write-back accounting and a
// prefetched bit so the hierarchy can score prefetch accuracy.
//
// The cache stores no data, only tags: the simulator's architectural memory
// stays the single source of truth (src/core/memory.hpp), and this class
// answers the purely temporal question "would this access have hit?".
#pragma once

#include <cstdint>
#include <vector>

namespace riscmp::uarch::mem {

/// Tag array of `sets x ways` lines with per-set true-LRU replacement.
/// Addresses are pre-divided by the line size: callers pass line numbers,
/// so the class is independent of the configured line geometry.
class Cache {
 public:
  Cache(std::uint32_t sets, std::uint32_t ways);

  struct Lookup {
    bool hit = false;
    /// The hit line was installed by the prefetcher and this is its first
    /// demand touch (the hierarchy counts it as a useful prefetch).
    bool firstUseOfPrefetch = false;
  };

  /// Probe for `line`; on a hit, refresh LRU and set the dirty bit when
  /// `write`. A miss changes no state — fills are explicit via fill().
  Lookup access(std::uint64_t line, bool write);

  struct Eviction {
    bool valid = false;  ///< a line was displaced
    bool dirty = false;  ///< ... and needs writing back
    std::uint64_t line = 0;
  };

  /// Install `line` (must not currently be resident), evicting the set's
  /// LRU victim if the set is full. Returns the displaced line so the
  /// hierarchy can model the write-back traffic.
  Eviction fill(std::uint64_t line, bool dirty, bool prefetched);

  /// Tag probe with no LRU or state update (used to skip redundant
  /// prefetches).
  [[nodiscard]] bool contains(std::uint64_t line) const;

  [[nodiscard]] std::uint32_t sets() const { return sets_; }
  [[nodiscard]] std::uint32_t ways() const { return ways_; }

 private:
  struct Way {
    std::uint64_t line = 0;
    std::uint64_t lastUse = 0;  ///< global access stamp for true LRU
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
  };

  [[nodiscard]] std::size_t setBase(std::uint64_t line) const {
    return static_cast<std::size_t>(line & (sets_ - 1)) * ways_;
  }

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;
};

}  // namespace riscmp::uarch::mem
