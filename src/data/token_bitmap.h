#ifndef SSJOIN_DATA_TOKEN_BITMAP_H_
#define SSJOIN_DATA_TOKEN_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "data/record_view.h"

namespace ssjoin {

/// Fixed-width token bitmaps (the Bitmap Filter idea): a record's entry
/// holds kTokenBitmapBits parity bits, bit h(t) FLIPPED once per token,
/// so a bit is set iff an odd number of the record's tokens hash to it.
/// For two records r, s,
///
///   popcount(B_r XOR B_s) <= |r Δ s| = |r| + |s| - 2 |r ∩ s|,
///
/// because every bit set in the XOR needs at least one symmetric-
/// difference token hashing to it (tokens common to both flip both sides
/// and cancel). Rearranged, that yields the candidate-pruning upper bound
///
///   |r ∩ s| <= (|r| + |s| - popcount(B_r XOR B_s)) / 2.
///
/// (The naive AND-of-bitmaps popcount is NOT a bound in either direction
/// once distinct tokens collide on a bit, which is why the filter is
/// parity/XOR based.) The bound degrades gracefully under saturation: a
/// fully saturated or fully zeroed XOR just returns the vacuous
/// (|r| + |s|) / 2 bound and prunes nothing — never a wrong answer.
///
/// The bound's one consumer is PrefixFilterJoin's verification gate
/// (core/prefix_filter_join.h), which scales it by each record's largest
/// per-token overlap contribution to cap weighted overlaps. It builds one
/// entry per record once per join; no record set stores them.
inline constexpr size_t kTokenBitmapWords = 4;
inline constexpr size_t kTokenBitmapBits = kTokenBitmapWords * 64;

/// One record's parity words plus its token count, aligned to exactly one
/// cache line: the bound needs both, so a consult is one aligned load.
struct alignas(64) TokenBitmapEntry {
  uint64_t bits[kTokenBitmapWords] = {};
  uint64_t tokens = 0;  // the record's token count
};
static_assert(sizeof(TokenBitmapEntry) == 64,
              "a consult reads one entry per cache line");

/// Bit position of token `t`: multiplicative (Fibonacci) hashing by the
/// 64-bit golden ratio, top bits kept — adjacent token ids (the common
/// case: dictionary-assigned, dense) scatter across the whole bitmap.
inline uint32_t TokenBitmapBit(TokenId t) {
  return static_cast<uint32_t>(
      (static_cast<uint64_t>(t) * 0x9E3779B97F4A7C15ull) >>
      (64 - std::bit_width(kTokenBitmapBits - 1)));
}

/// The entry of `record`: one parity flip per token.
inline TokenBitmapEntry MakeTokenBitmapEntry(RecordView record) {
  TokenBitmapEntry entry;
  for (size_t i = 0; i < record.size(); ++i) {
    const uint32_t bit = TokenBitmapBit(record.token(i));
    entry.bits[bit >> 6] ^= uint64_t{1} << (bit & 63);
  }
  entry.tokens = record.size();
  return entry;
}

/// The filter's overlap bound: an UPPER bound on the number of distinct
/// common tokens of the two records behind `a` and `b`.
inline uint32_t TokenBitmapOverlapBound(const TokenBitmapEntry& a,
                                        const TokenBitmapEntry& b) {
  uint64_t xor_pop = 0;
  for (size_t w = 0; w < kTokenBitmapWords; ++w) {
    xor_pop += static_cast<uint64_t>(std::popcount(a.bits[w] ^ b.bits[w]));
  }
  // xor_pop <= |a Δ b| <= a.tokens + b.tokens, so this never wraps.
  return static_cast<uint32_t>((a.tokens + b.tokens - xor_pop) / 2);
}

}  // namespace ssjoin

#endif  // SSJOIN_DATA_TOKEN_BITMAP_H_
