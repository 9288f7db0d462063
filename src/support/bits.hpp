// Bit-manipulation helpers shared by the instruction encoders and decoders,
// and the one 64-bit mixer the digests and retry backoff use.
//
// All helpers are constexpr and operate on unsigned 32/64-bit words. Field
// positions follow the usual ISA-manual convention: bits(x, hi, lo) extracts
// the inclusive bit range [hi:lo] of x, right-aligned.
#pragma once

#include <cstdint>
#include <type_traits>

namespace riscmp {

/// splitmix64 finaliser: spreads sequential values (line and page numbers
/// before a commutative digest sum, retry seeds) over all 64 bits.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Extract the inclusive bit range [hi:lo] of `x`, right-aligned.
template <typename T>
constexpr T bits(T x, unsigned hi, unsigned lo) {
  static_assert(std::is_unsigned_v<T>);
  const unsigned width = hi - lo + 1;
  if (width >= sizeof(T) * 8) return x >> lo;
  return (x >> lo) & ((T{1} << width) - 1);
}

/// Extract a single bit of `x`.
template <typename T>
constexpr T bit(T x, unsigned pos) {
  static_assert(std::is_unsigned_v<T>);
  return (x >> pos) & T{1};
}

/// Insert `value` into the inclusive bit range [hi:lo], asserting via mask
/// that the value fits. Returns the updated word.
constexpr std::uint32_t insertBits(std::uint32_t word, unsigned hi, unsigned lo,
                                   std::uint32_t value) {
  const unsigned width = hi - lo + 1;
  const std::uint32_t mask =
      width >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << width) - 1);
  return (word & ~(mask << lo)) | ((value & mask) << lo);
}

/// Sign-extend the low `width` bits of `x` to a signed 64-bit value.
constexpr std::int64_t signExtend(std::uint64_t x, unsigned width) {
  const std::uint64_t m = std::uint64_t{1} << (width - 1);
  const std::uint64_t v = x & ((width >= 64) ? ~std::uint64_t{0}
                                             : ((std::uint64_t{1} << width) - 1));
  return static_cast<std::int64_t>((v ^ m) - m);
}

/// True when the signed value `v` is representable in `width` bits.
constexpr bool fitsSigned(std::int64_t v, unsigned width) {
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return v >= lo && v <= hi;
}

/// True when the unsigned value `v` is representable in `width` bits.
constexpr bool fitsUnsigned(std::uint64_t v, unsigned width) {
  if (width >= 64) return true;
  return v < (std::uint64_t{1} << width);
}

/// Rotate a 64-bit value right by `n` (mod 64).
constexpr std::uint64_t rotateRight64(std::uint64_t x, unsigned n) {
  n &= 63;
  if (n == 0) return x;
  return (x >> n) | (x << (64 - n));
}

/// Rotate the low `size` bits of `x` right by `n`; upper bits must be zero.
constexpr std::uint64_t rotateRight(std::uint64_t x, unsigned n, unsigned size) {
  n %= size;
  if (n == 0) return x;
  const std::uint64_t mask =
      size >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << size) - 1);
  return ((x >> n) | (x << (size - n))) & mask;
}

/// Replicate the low `size` bits of `x` to fill 64 bits.
constexpr std::uint64_t replicate(std::uint64_t x, unsigned size) {
  std::uint64_t out = 0;
  for (unsigned pos = 0; pos < 64; pos += size) out |= x << pos;
  return out;
}

/// True when `x` is a power of two (and non-zero).
constexpr bool isPow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Align `x` up to the next multiple of `a` (a power of two).
constexpr std::uint64_t alignUp(std::uint64_t x, std::uint64_t a) {
  return (x + a - 1) & ~(a - 1);
}

}  // namespace riscmp
