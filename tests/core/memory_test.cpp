#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <utility>
#include <vector>

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

// The arena reads as zero wherever nothing was written, however large it
// is and wherever the write landed.
TEST(Memory, NeverWrittenBytesReadZero) {
  Memory memory(4ull << 20, 0x1000);
  memory.write<std::uint64_t>(0x1000 + (1 << 20), ~0ull);
  EXPECT_EQ(memory.read<std::uint8_t>(memory.end() - 1), 0u);
  EXPECT_EQ(memory.read<std::uint64_t>(memory.end() - 8), 0u);
  EXPECT_EQ(memory.read<std::uint64_t>(memory.base()), 0u);
  std::vector<std::uint8_t> topPage(4096, 0xaa);
  memory.readBlock(memory.end() - topPage.size(), topPage);
  for (const std::uint8_t byte : topPage) ASSERT_EQ(byte, 0u);
  EXPECT_EQ(memory.read<std::uint64_t>(0x1000 + (1 << 20)), ~0ull);
  EXPECT_EQ(memory.read<std::uint64_t>(0x1000 + (1 << 20) + 8), 0u);
}

std::uint64_t residentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

// Building an arena writes nothing: a 64 MiB arena whose first and last
// pages are read and one page written adds well under 16 MiB resident
// (a few pages, or a few 2 MiB pages where transparent huge pages are on).
TEST(Memory, UntouchedPagesCostNoMemory) {
  const std::uint64_t before = residentBytes();
  Memory memory(64ull << 20);
  EXPECT_EQ(memory.read<std::uint64_t>(0), 0u);
  EXPECT_EQ(memory.read<std::uint64_t>(memory.end() - 8), 0u);
  memory.write<std::uint64_t>(32ull << 20, 5);
  EXPECT_LT(residentBytes(), before + (16ull << 20));
  EXPECT_EQ(memory.read<std::uint64_t>(32ull << 20), 5u);
}

TEST(Memory, MovesKeepTheArena) {
  Memory first(4096, 0x1000);
  first.write<std::uint32_t>(0x1010, 0xfeed);
  Memory second(std::move(first));
  EXPECT_EQ(second.base(), 0x1000u);
  EXPECT_EQ(second.end(), 0x2000u);
  EXPECT_EQ(second.read<std::uint32_t>(0x1010), 0xfeedu);
  Memory third(64);
  third = std::move(second);
  EXPECT_EQ(third.size(), 4096u);
  EXPECT_EQ(third.read<std::uint32_t>(0x1010), 0xfeedu);
}

TEST(Memory, AccessPastEndFaultsWithItsAddressAndSize) {
  Memory memory(4ull << 20);
  const std::uint64_t end = memory.end();
  for (const std::uint64_t addr : {end, end - 4, end + 4096}) {
    try {
      (void)memory.read<std::uint64_t>(addr);
      FAIL() << "expected MemoryFault at " << addr;
    } catch (const MemoryFault& fault) {
      EXPECT_EQ(fault.addr(), addr);
      EXPECT_EQ(fault.size(), 8u);
      EXPECT_FALSE(fault.hasContext());
    }
  }
  EXPECT_THROW(memory.write<std::uint8_t>(end, 1), MemoryFault);
  EXPECT_THROW(memory.fill(end - 1, 2, 0), MemoryFault);
  EXPECT_EQ(memory.read<std::uint8_t>(end - 1), 0u);
}

}  // namespace
}  // namespace riscmp
