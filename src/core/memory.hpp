// Flat little-endian memory model shared by both ISA executors.
//
// The simulated address space is a single contiguous arena starting at
// `base`. Both ISAs under study are little-endian, and every access the
// kernel compiler generates is naturally aligned; unaligned accesses are
// nevertheless supported (memcpy-based) because hand-written test programs
// may use them. Out-of-range accesses throw MemoryFault.
//
// The arena is an anonymous private mapping, so it is zero without being
// written: a page costs memory only once the program (or the loader)
// writes it, and reads of untouched pages see the shared zero page.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "support/fault.hpp"  // MemoryFault

namespace riscmp {

class Memory {
 public:
  /// Throws std::bad_alloc when the arena cannot be mapped.
  explicit Memory(std::uint64_t size, std::uint64_t base = 0);
  ~Memory();

  Memory(Memory&& other) noexcept;
  Memory& operator=(Memory&& other) noexcept;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  [[nodiscard]] std::uint64_t base() const { return base_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::uint64_t end() const { return base_ + size_; }

  template <typename T>
  [[nodiscard]] T read(std::uint64_t addr) const {
    checkRange(addr, sizeof(T));
    T value;
    std::memcpy(&value, bytes_ + (addr - base_), sizeof(T));
    return value;
  }

  template <typename T>
  void write(std::uint64_t addr, T value) {
    checkRange(addr, sizeof(T));
    std::memcpy(bytes_ + (addr - base_), &value, sizeof(T));
  }

  void writeBlock(std::uint64_t addr, std::span<const std::uint8_t> data) {
    checkRange(addr, data.size());
    std::memcpy(bytes_ + (addr - base_), data.data(), data.size());
  }

  void readBlock(std::uint64_t addr, std::span<std::uint8_t> out) const {
    checkRange(addr, out.size());
    std::memcpy(out.data(), bytes_ + (addr - base_), out.size());
  }

  void fill(std::uint64_t addr, std::size_t count, std::uint8_t value) {
    checkRange(addr, count);
    std::memset(bytes_ + (addr - base_), value, count);
  }

 private:
  void checkRange(std::uint64_t addr, std::size_t size) const {
    if (addr < base_ || size > size_ || addr - base_ > size_ - size) {
      throw MemoryFault(addr, size);
    }
  }

  std::uint64_t base_;
  std::uint64_t size_;
  std::uint8_t* bytes_;  ///< at least one byte; null once moved from
};

}  // namespace riscmp
