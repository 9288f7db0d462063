#include <gtest/gtest.h>

#include "core/memory.hpp"

namespace riscmp {
namespace {

TEST(Memory, ReadWriteAllWidths) {
  Memory memory(4096);
  memory.write<std::uint8_t>(0, 0xab);
  memory.write<std::uint16_t>(2, 0xbeef);
  memory.write<std::uint32_t>(4, 0xdeadbeef);
  memory.write<std::uint64_t>(8, 0x0123456789abcdefull);
  memory.write<double>(16, 3.25);

  EXPECT_EQ(memory.read<std::uint8_t>(0), 0xab);
  EXPECT_EQ(memory.read<std::uint16_t>(2), 0xbeef);
  EXPECT_EQ(memory.read<std::uint32_t>(4), 0xdeadbeefu);
  EXPECT_EQ(memory.read<std::uint64_t>(8), 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(memory.read<double>(16), 3.25);
}

TEST(Memory, LittleEndianLayout) {
  Memory memory(64);
  memory.write<std::uint32_t>(0, 0x11223344);
  EXPECT_EQ(memory.read<std::uint8_t>(0), 0x44);
  EXPECT_EQ(memory.read<std::uint8_t>(3), 0x11);
}

TEST(Memory, UnalignedAccessesWork) {
  Memory memory(64);
  memory.write<std::uint64_t>(3, 0xaabbccddeeff0011ull);
  EXPECT_EQ(memory.read<std::uint64_t>(3), 0xaabbccddeeff0011ull);
  // Bytes 5..8 of the little-endian value.
  EXPECT_EQ(memory.read<std::uint32_t>(5), 0xccddeeffu);
}

TEST(Memory, NonZeroBase) {
  Memory memory(4096, 0x10000);
  EXPECT_EQ(memory.base(), 0x10000u);
  EXPECT_EQ(memory.end(), 0x11000u);
  memory.write<std::uint32_t>(0x10000, 7);
  EXPECT_EQ(memory.read<std::uint32_t>(0x10000), 7u);
  EXPECT_THROW((void)memory.read<std::uint32_t>(0xffff), MemoryFault);
}

TEST(Memory, FaultsCarryAddress) {
  Memory memory(64);
  try {
    (void)memory.read<std::uint64_t>(60);  // 4 bytes past the end
    FAIL() << "expected MemoryFault";
  } catch (const MemoryFault& fault) {
    EXPECT_EQ(fault.addr(), 60u);
    EXPECT_NE(std::string(fault.what()).find("0x3c"), std::string::npos);
  }
}

TEST(Memory, BoundaryAccessesExact) {
  Memory memory(64);
  EXPECT_NO_THROW(memory.write<std::uint64_t>(56, 1));  // last 8 bytes
  EXPECT_THROW(memory.write<std::uint64_t>(57, 1), MemoryFault);
  EXPECT_NO_THROW(memory.write<std::uint8_t>(63, 1));
  EXPECT_THROW(memory.write<std::uint8_t>(64, 1), MemoryFault);
}

TEST(Memory, BlockOperations) {
  Memory memory(128);
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  memory.writeBlock(10, data);
  std::uint8_t out[5] = {};
  memory.readBlock(10, out);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], data[i]);
  memory.fill(10, 5, 0xff);
  EXPECT_EQ(memory.read<std::uint8_t>(12), 0xff);
  EXPECT_THROW(memory.fill(126, 4, 0), MemoryFault);
}

TEST(Memory, OverflowingRangeCheckIsSafe) {
  Memory memory(64);
  // addr + size would wrap; the range check must not overflow.
  EXPECT_THROW((void)memory.read<std::uint64_t>(~0ull - 2), MemoryFault);
}

}  // namespace
}  // namespace riscmp
