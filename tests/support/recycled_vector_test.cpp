#include "support/recycled_vector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <thread>

namespace riscmp {
namespace {

// Each test uses its own element type, so it starts with an empty shelf.

TEST(RecycledVector, NextOwnerGetsTheBufferEmptied) {
  struct Cell { std::uint64_t value = 7; };
  const Cell* buffer = nullptr;
  {
    RecycledVector<Cell> first;
    first->assign(1000, Cell{99});
    buffer = first->data();
  }
  RecycledVector<Cell> second;
  EXPECT_TRUE(second->empty());
  EXPECT_GE(second->capacity(), 1000u);
  EXPECT_EQ(second->data(), buffer);
  second->resize(10);
  EXPECT_EQ((*second)[9].value, 7u);
}

TEST(RecycledVector, ShelfHoldsNoMoreBuffersThanWereAliveAtOnce) {
  struct Cell { int value = 0; };
  {
    RecycledVector<Cell> a;
    RecycledVector<Cell> b;
    a->resize(100);
    b->resize(200);
  }
  RecycledVector<Cell> c;
  RecycledVector<Cell> d;
  RecycledVector<Cell> e;
  EXPECT_GE(c->capacity(), 100u);
  EXPECT_GE(d->capacity(), 100u);
  EXPECT_EQ(e->capacity(), 0u);
}

TEST(RecycledVector, AnEmptyOwnerShelvesNothing) {
  struct Cell { int value = 0; };
  std::optional<RecycledVector<Cell>> moved;
  {
    RecycledVector<Cell> owner;
    owner->resize(50);
    moved.emplace(std::move(owner));
  }  // `owner` gave its buffer away and shelves nothing
  RecycledVector<Cell> fresh;
  EXPECT_EQ(fresh->capacity(), 0u);
  EXPECT_GE((*moved)->capacity(), 50u);
}

TEST(RecycledVector, EachThreadHasItsOwnShelf) {
  struct Cell { int value = 0; };
  {
    RecycledVector<Cell> owner;
    owner->resize(64);
  }
  std::size_t elsewhere = 1;
  std::thread([&] {
    RecycledVector<Cell> other;
    elsewhere = other->capacity();
  }).join();
  EXPECT_EQ(elsewhere, 0u);
  RecycledVector<Cell> here;
  EXPECT_GE(here->capacity(), 64u);
}

}  // namespace
}  // namespace riscmp
