#include "uarch/mem/cache.hpp"

namespace riscmp::uarch::mem {

Cache::Cache(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways) {
  ways_storage_.resize(static_cast<std::size_t>(sets_) * ways_);
}

Cache::Lookup Cache::access(std::uint64_t line, bool write) {
  const std::size_t base = setBase(line);
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = ways_storage_[base + w];
    if (!way.valid || way.line != line) continue;
    Lookup lookup;
    lookup.hit = true;
    lookup.firstUseOfPrefetch = way.prefetched;
    way.prefetched = false;  // only the first demand touch scores it
    way.lastUse = ++tick_;
    if (write) way.dirty = true;
    return lookup;
  }
  return {};
}

Cache::Eviction Cache::fill(std::uint64_t line, bool dirty, bool prefetched) {
  const std::size_t base = setBase(line);
  std::size_t victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Way& way = ways_storage_[base + w];
    if (!way.valid) {
      victim = base + w;
      break;
    }
    if (way.lastUse < ways_storage_[victim].lastUse) victim = base + w;
  }

  Way& way = ways_storage_[victim];
  Eviction eviction;
  if (way.valid) {
    eviction.valid = true;
    eviction.dirty = way.dirty;
    eviction.line = way.line;
  }
  way.line = line;
  way.valid = true;
  way.dirty = dirty;
  way.prefetched = prefetched;
  way.lastUse = ++tick_;
  return eviction;
}

bool Cache::contains(std::uint64_t line) const {
  const std::size_t base = setBase(line);
  for (std::size_t w = 0; w < ways_; ++w) {
    const Way& way = ways_storage_[base + w];
    if (way.valid && way.line == line) return true;
  }
  return false;
}

}  // namespace riscmp::uarch::mem
