#include "core/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <utility>

namespace riscmp {
namespace {

/// A zero-filled private mapping of `size` bytes; the kernel backs a page
/// only when it is first written. An empty arena still maps one byte so
/// the arena pointer is never null.
std::uint8_t* mapArena(std::uint64_t size) {
  void* bytes = ::mmap(nullptr, std::max<std::uint64_t>(size, 1),
                       PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (bytes == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(bytes);
}

}  // namespace

Memory::Memory(std::uint64_t size, std::uint64_t base)
    : base_(base), size_(size), bytes_(mapArena(size)) {}

Memory::~Memory() {
  if (bytes_ != nullptr) ::munmap(bytes_, std::max<std::uint64_t>(size_, 1));
}

Memory::Memory(Memory&& other) noexcept
    : base_(other.base_),
      size_(std::exchange(other.size_, 0)),
      bytes_(std::exchange(other.bytes_, nullptr)) {}

Memory& Memory::operator=(Memory&& other) noexcept {
  // `other` takes this arena and unmaps it when it is destroyed.
  std::swap(base_, other.base_);
  std::swap(size_, other.size_);
  std::swap(bytes_, other.bytes_);
  return *this;
}

}  // namespace riscmp
