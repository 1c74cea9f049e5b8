#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>

namespace femu {

/// Lane-word types for the compiled evaluation kernel.
///
/// A "word" carries one bit of every simulated machine ("lane") for one
/// signal; every logic operation is a plain bitwise operation on the word, so
/// the same kernel instruction stream serves any lane width:
///
///   Word8    — 1 meaningful lane stored as a full byte mask (scalar engine)
///   uint64_t — 64 lanes, the classic bit-parallel fault-simulation width
///   Word512  — 512 lanes (8 x uint64_t, one AVX-512 zmm register)
///
/// Lane masks reuse the word type itself: bit k of a mask refers to lane k.
/// The helpers below are the complete lane algebra the engines need; adding a
/// wider word only requires specialising these.
///
/// Word512's operators here are portable limb code; the kernel's hot eval
/// loops additionally have an AVX-512 implementation in a separate
/// translation unit compiled with -mavx512f and selected by a runtime CPU
/// feature check (see sim/simd_dispatch.h), so one binary runs the zmm path
/// on AVX-512 hosts and the limb path everywhere else.

/// Scalar word: a single lane broadcast across 8 bits (0x00 or 0xFF), so ~a
/// stays canonical without masking. Used by the compiled scalar backend.
using Word8 = std::uint8_t;

/// 512-lane word: eight 64-bit limbs, lane k lives in limb k/64 bit k%64.
/// 64-byte size and alignment — exactly one zmm register / one cache line
/// per signal, the widest tier before a word itself spans cache lines.
struct alignas(64) Word512 {
  std::array<std::uint64_t, 8> w{0, 0, 0, 0, 0, 0, 0, 0};

  friend constexpr Word512 operator&(const Word512& a,
                                     const Word512& b) noexcept {
    Word512 out;
    for (std::size_t i = 0; i < 8; ++i) out.w[i] = a.w[i] & b.w[i];
    return out;
  }
  friend constexpr Word512 operator|(const Word512& a,
                                     const Word512& b) noexcept {
    Word512 out;
    for (std::size_t i = 0; i < 8; ++i) out.w[i] = a.w[i] | b.w[i];
    return out;
  }
  friend constexpr Word512 operator^(const Word512& a,
                                     const Word512& b) noexcept {
    Word512 out;
    for (std::size_t i = 0; i < 8; ++i) out.w[i] = a.w[i] ^ b.w[i];
    return out;
  }
  friend constexpr Word512 operator~(const Word512& a) noexcept {
    Word512 out;
    for (std::size_t i = 0; i < 8; ++i) out.w[i] = ~a.w[i];
    return out;
  }
  constexpr Word512& operator&=(const Word512& o) noexcept {
    return *this = *this & o;
  }
  constexpr Word512& operator|=(const Word512& o) noexcept {
    return *this = *this | o;
  }
  constexpr Word512& operator^=(const Word512& o) noexcept {
    return *this = *this ^ o;
  }

  friend constexpr bool operator==(const Word512&, const Word512&) = default;
};

// ---- lane traits -----------------------------------------------------------

template <typename Word>
struct LaneTraits;

template <>
struct LaneTraits<Word8> {
  static constexpr std::size_t kLanes = 1;
  static constexpr Word8 zero() noexcept { return 0; }
  static constexpr Word8 ones() noexcept { return 0xff; }
  static constexpr Word8 broadcast(bool bit) noexcept {
    return bit ? Word8{0xff} : Word8{0};
  }
  static constexpr Word8 lane_bit(unsigned /*lane*/) noexcept { return 0xff; }
  static constexpr bool test(Word8 w, unsigned /*lane*/) noexcept {
    return w != 0;
  }
  static constexpr bool any(Word8 w) noexcept { return w != 0; }
  static constexpr std::size_t count(Word8 w) noexcept { return w != 0 ? 1 : 0; }
  /// Mask with the first `n` lanes set (n <= kLanes).
  static constexpr Word8 first_n(std::size_t n) noexcept {
    return n == 0 ? Word8{0} : Word8{0xff};
  }
};

template <>
struct LaneTraits<std::uint64_t> {
  static constexpr std::size_t kLanes = 64;
  static constexpr std::uint64_t zero() noexcept { return 0; }
  static constexpr std::uint64_t ones() noexcept { return ~std::uint64_t{0}; }
  static constexpr std::uint64_t broadcast(bool bit) noexcept {
    return bit ? ~std::uint64_t{0} : std::uint64_t{0};
  }
  static constexpr std::uint64_t lane_bit(unsigned lane) noexcept {
    return std::uint64_t{1} << lane;
  }
  static constexpr bool test(std::uint64_t w, unsigned lane) noexcept {
    return ((w >> lane) & 1) != 0;
  }
  static constexpr bool any(std::uint64_t w) noexcept { return w != 0; }
  static constexpr std::size_t count(std::uint64_t w) noexcept {
    return static_cast<std::size_t>(std::popcount(w));
  }
  static constexpr std::uint64_t first_n(std::size_t n) noexcept {
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
  }
};

template <>
struct LaneTraits<Word512> {
  static constexpr std::size_t kLanes = 512;
  static constexpr Word512 zero() noexcept { return {}; }
  static constexpr Word512 ones() noexcept {
    Word512 out;
    for (auto& limb : out.w) limb = ~std::uint64_t{0};
    return out;
  }
  static constexpr Word512 broadcast(bool bit) noexcept {
    return bit ? ones() : zero();
  }
  static constexpr Word512 lane_bit(unsigned lane) noexcept {
    Word512 out;
    out.w[lane / 64] = std::uint64_t{1} << (lane % 64);
    return out;
  }
  static constexpr bool test(const Word512& w, unsigned lane) noexcept {
    return ((w.w[lane / 64] >> (lane % 64)) & 1) != 0;
  }
  static constexpr bool any(const Word512& w) noexcept {
    std::uint64_t acc = 0;
    for (const std::uint64_t limb : w.w) acc |= limb;
    return acc != 0;
  }
  static constexpr std::size_t count(const Word512& w) noexcept {
    std::size_t n = 0;
    for (const std::uint64_t limb : w.w) {
      n += static_cast<std::size_t>(std::popcount(limb));
    }
    return n;
  }
  static constexpr Word512 first_n(std::size_t n) noexcept {
    Word512 out;
    for (std::size_t i = 0; i < 8; ++i) {
      const std::size_t lo = i * 64;
      if (n <= lo) break;
      out.w[i] = LaneTraits<std::uint64_t>::first_n(n - lo);
    }
    return out;
  }
};

}  // namespace femu
