#include "util/exact_sum.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace parallax::util {

namespace {

constexpr std::uint64_t kFracMask = (std::uint64_t{1} << 52) - 1;

}  // namespace

void ExactSum::accumulate(double value, bool negate) noexcept {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int exp_field = static_cast<int>((bits >> 52) & 0x7ff);
  assert(exp_field != 0x7ff && "ExactSum requires finite values");
  std::uint64_t mant = bits & kFracMask;
  if (exp_field != 0) mant |= std::uint64_t{1} << 52;
  if (mant == 0) return;  // +-0 contributes nothing

  // A normal double is mant * 2^(exp_field - 1075); placing its lowest bit
  // at accumulator index exp_field - 1075 + kBias = exp_field + 13.
  // Subnormals (exp_field == 0) sit at fixed index -1074 + kBias = 14.
  const int bitpos = exp_field != 0 ? exp_field + 13 : 14;
  const int limb = bitpos >> 6;
  const int shift = bitpos & 63;
  const auto wide = static_cast<unsigned __int128>(mant) << shift;
  const auto lo = static_cast<std::uint64_t>(wide);
  const auto hi = static_cast<std::uint64_t>(wide >> 64);

  const bool subtract = ((bits >> 63) != 0) != negate;
  if (!subtract) {
    unsigned __int128 acc =
        static_cast<unsigned __int128>(limbs_[limb]) + lo;
    limbs_[limb] = static_cast<std::uint64_t>(acc);
    std::uint64_t carry = static_cast<std::uint64_t>(acc >> 64);
    acc = static_cast<unsigned __int128>(limbs_[limb + 1]) + hi + carry;
    limbs_[limb + 1] = static_cast<std::uint64_t>(acc);
    carry = static_cast<std::uint64_t>(acc >> 64);
    for (int i = limb + 2; carry != 0 && i < kLimbs; ++i) {
      carry = ++limbs_[i] == 0 ? 1 : 0;
    }
  } else {
    std::uint64_t borrow = limbs_[limb] < lo ? 1 : 0;
    limbs_[limb] -= lo;
    const std::uint64_t sub = hi + borrow;  // hi <= 2^63, no overflow
    borrow = limbs_[limb + 1] < sub ? 1 : 0;
    limbs_[limb + 1] -= sub;
    for (int i = limb + 2; borrow != 0 && i < kLimbs; ++i) {
      borrow = limbs_[i]-- == 0 ? 1 : 0;
    }
  }
}

double ExactSum::round() const noexcept {
  // The magnitude is the limbs themselves unless the sum is negative; only
  // then is a negated copy made.
  const std::uint64_t* mag = limbs_.data();
  std::array<std::uint64_t, kLimbs> negated;
  const bool negative = (limbs_[kLimbs - 1] >> 63) != 0;
  if (negative) {
    std::uint64_t carry = 1;
    for (int i = 0; i < kLimbs; ++i) {
      negated[i] = ~limbs_[i] + carry;
      carry = (carry != 0 && negated[i] == 0) ? 1 : 0;
    }
    mag = negated.data();
  }

  int top = kLimbs - 1;
  while (top >= 0 && mag[top] == 0) --top;
  if (top < 0) return 0.0;
  const int p = top * 64 + 63 - std::countl_zero(mag[top]);

  // Keep 53 significand bits starting at u; below u = 14 the accumulator is
  // exact subnormal territory (no contribution ever lands under bit 14).
  const int u = p - 52 > 14 ? p - 52 : 14;
  const int limb = u >> 6;
  const int shift = u & 63;
  std::uint64_t window = mag[limb] >> shift;
  if (shift != 0 && limb + 1 < kLimbs) {
    window |= mag[limb + 1] << (64 - shift);
  }
  std::uint64_t mant = window & ((std::uint64_t{1} << 53) - 1);

  // Round half to even on the discarded tail [0, u).
  if (u > 0) {
    const int g = u - 1;
    const bool guard = ((mag[g >> 6] >> (g & 63)) & 1) != 0;
    bool sticky = false;
    if (guard) {
      for (int i = 0; i < (g >> 6) && !sticky; ++i) sticky = mag[i] != 0;
      if (!sticky && (g & 63) != 0) {
        sticky = (mag[g >> 6] & ((std::uint64_t{1} << (g & 63)) - 1)) != 0;
      }
    }
    if (guard && (sticky || (mant & 1) != 0)) ++mant;  // 2^53 stays exact
  }

  const double result = std::ldexp(static_cast<double>(mant), u - kBias);
  return negative ? -result : result;
}

}  // namespace parallax::util
