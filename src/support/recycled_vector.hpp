// A std::vector whose buffer is handed on to the next owner on its thread.
//
// A grid builds fresh analyzers for every cell, and their per-slot tables
// grow to the same size cell after cell. Freed, such a table lands at the
// top of the heap, which the allocator may hand back to the system; the
// next cell's table then faults its pages in again one by one. Keeping the
// emptied buffer instead lets the next cell reuse pages that are already
// resident.
#pragma once

#include <utility>
#include <vector>

namespace riscmp {

/// On destruction the (cleared) buffer goes onto a per-thread shelf for
/// `T`; construction takes the most recently shelved one, if any. While
/// owners are built and destroyed on one thread, its shelf never holds
/// more buffers than were alive there at once; it is freed when the thread
/// exits. Nothing of static storage duration may hold one: the main
/// thread's shelf is destroyed before such objects.
template <typename T>
class RecycledVector {
 public:
  RecycledVector() {
    std::vector<std::vector<T>>& spare = shelf();
    if (!spare.empty()) {
      items_ = std::move(spare.back());
      spare.pop_back();
    }
  }
  ~RecycledVector() {
    if (items_.capacity() == 0) return;
    items_.clear();
    shelf().push_back(std::move(items_));
  }
  RecycledVector(RecycledVector&& other) noexcept
      : items_(std::move(other.items_)) {}
  RecycledVector& operator=(RecycledVector&& other) noexcept {
    items_.swap(other.items_);
    return *this;
  }

  std::vector<T>& operator*() { return items_; }
  const std::vector<T>& operator*() const { return items_; }
  std::vector<T>* operator->() { return &items_; }
  const std::vector<T>* operator->() const { return &items_; }

 private:
  static std::vector<std::vector<T>>& shelf() {
    thread_local std::vector<std::vector<T>> spare;
    return spare;
  }

  std::vector<T> items_;
};

}  // namespace riscmp
