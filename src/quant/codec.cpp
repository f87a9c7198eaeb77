#include "quant/codec.h"

#include <cmath>

namespace snip {

const char *
roundingName(Rounding r)
{
    switch (r) {
        case Rounding::Nearest:
            return "nearest";
        case Rounding::Stochastic:
            return "stochastic";
    }
    return "?";
}

double
ulpAt(float x, const FloatFormat &fmt)
{
    double ax = std::fabs(static_cast<double>(x));
    double max_v = fmt.maxValue();
    if (ax > max_v)
        ax = max_v;
    double min_normal = fmt.minNormal();
    if (ax < min_normal)
        return fmt.minSubnormal();
    // frexp gives ax = m * 2^e with m in [0.5, 1), so the binade
    // exponent is e-1; exact and much faster than log2+floor.
    int e;
    std::frexp(ax, &e);
    return std::ldexp(1.0, (e - 1) - fmt.mantissa_bits);
}

QuantGrid
quantGrid(const FloatFormat &fmt)
{
    QuantGrid g;
    g.max_value = static_cast<float>(fmt.maxValue());
    g.min_normal = static_cast<float>(fmt.minNormal());
    g.min_subnormal = static_cast<float>(fmt.minSubnormal());
    // 1/minSubnormal = 2^(bias + mantissa_bits - 1); split into two
    // factors so each stays a normal float even for bf16 (2^133).
    int t = fmt.bias + fmt.mantissa_bits - 1;
    int hi = t / 2;
    g.inv_min_sub_hi = std::ldexp(1.0f, hi);
    g.inv_min_sub_lo = std::ldexp(1.0f, t - hi);
    g.two_pow_neg_mant = std::ldexp(1.0f, -fmt.mantissa_bits);
    g.mantissa_bits = fmt.mantissa_bits;
    return g;
}

namespace {

/**
 * Common quantization path: clamp, express x as (grid index) * ulp, round
 * the index by the chosen rule, return index * ulp with the sign
 * restored. @p draw24 is only read for Rounding::Stochastic.
 */
float
quantizeImpl(float x, const FloatFormat &fmt, Rounding mode,
             uint32_t draw24)
{
    if (x == 0.0f || !std::isfinite(x))
        return std::isfinite(x) ? 0.0f : (x > 0 ? 1.0f : -1.0f) *
                                             static_cast<float>(
                                                 fmt.maxValue());
    double ax = std::fabs(static_cast<double>(x));
    double max_v = fmt.maxValue();
    bool saturated = false;
    if (ax >= max_v) {
        ax = max_v;
        saturated = true;
    }
    double sign = x < 0 ? -1.0 : 1.0;
    if (saturated)
        return static_cast<float>(sign * max_v);

    double ulp = ulpAt(static_cast<float>(ax), fmt);
    double q = ax / ulp;
    double lo = std::floor(q);
    double frac = q - lo;
    double rounded;
    if (mode == Rounding::Stochastic) {
        // Both sides are exact: frac is q's low bits, the draw a 24-bit
        // integer scaled by a power of two.
        rounded = lo + (static_cast<double>(draw24) * 0x1p-24 < frac
                            ? 1.0
                            : 0.0);
    } else {
        if (frac > 0.5) {
            rounded = lo + 1.0;
        } else if (frac < 0.5) {
            rounded = lo;
        } else {
            // Ties to even grid index.
            rounded = (static_cast<int64_t>(lo) % 2 == 0) ? lo : lo + 1.0;
        }
    }
    double result = rounded * ulp;
    // Rounding up across a binade boundary lands exactly on the next
    // power of two, which is itself on the grid, so no fixup is needed;
    // only the very top can exceed max.
    if (result > max_v)
        result = max_v;
    return static_cast<float>(sign * result);
}

/** MurmurHash3's 32-bit finalizer (a bijection with full avalanche). */
uint32_t
fmix32(uint32_t h)
{
    h ^= h >> 16;
    h *= 0x85EBCA6Bu;
    h ^= h >> 13;
    h *= 0xC2B2AE35u;
    h ^= h >> 16;
    return h;
}

} // namespace

float
quantizeNearest(float x, const FloatFormat &fmt)
{
    return quantizeImpl(x, fmt, Rounding::Nearest, 0);
}

float
quantizeStochastic(float x, const FloatFormat &fmt, uint32_t draw24)
{
    return quantizeImpl(x, fmt, Rounding::Stochastic, draw24);
}

SrStream
srStream(uint64_t key, uint32_t index_hi)
{
    uint64_t z = key + 0x9E3779B97F4A7C15ull * (uint64_t{index_hi} + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return {static_cast<uint32_t>(z), static_cast<uint32_t>(z >> 32)};
}

uint32_t
srDraw24(const SrStream &s, uint32_t index_lo)
{
    return fmix32(fmix32(index_lo ^ s.s0) + s.s1) >> 8;
}

uint32_t
srDraw24(uint64_t key, uint64_t index)
{
    return srDraw24(srStream(key, static_cast<uint32_t>(index >> 32)),
                    static_cast<uint32_t>(index));
}

} // namespace snip
