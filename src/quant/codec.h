/**
 * @file
 * Scalar value codec: snap a float onto a low-precision format's grid.
 *
 * Two rounding modes are provided. Round-to-nearest-even is the default;
 * stochastic rounding (Croci et al., used by the paper for FP4 output
 * gradients) rounds to the two neighbouring grid points with probability
 * proportional to proximity, making the quantizer unbiased in
 * expectation and preventing training stagnation.
 *
 * The functions here are the definitional scalar references (double
 * arithmetic on the format's ULP); the vectorized kernels in simd/ are
 * held to them bit for bit.
 */
#ifndef SNIP_QUANT_CODEC_H
#define SNIP_QUANT_CODEC_H

#include <cstdint>

#include "quant/format.h"

namespace snip {

/** Rounding rule applied when a value falls between grid points. */
enum class Rounding
{
    /** Round to nearest, ties to even mantissa. */
    Nearest,
    /** Stochastic rounding driven by counter-based draws (srDraw24). */
    Stochastic,
};

/** Name for logging/tables. */
const char *roundingName(Rounding r);

/**
 * Quantize one value to @p fmt with round-to-nearest-even.
 *
 * Magnitudes above maxValue() saturate; subnormals flush onto the
 * subnormal grid; ±0 is preserved as 0.
 */
float quantizeNearest(float x, const FloatFormat &fmt);

/**
 * Quantize one value with stochastic rounding. With x = (lo + frac) *
 * ulp on the format's grid (lo an integer grid index, 0 <= frac < 1),
 * the result is (lo + 1) * ulp iff draw24 * 2^-24 < frac, else
 * lo * ulp, so a uniform 24-bit @p draw24 rounds up with probability
 * exactly frac whenever frac is a multiple of 2^-24 — true for every
 * normal-range input; below half the smallest subnormal step the
 * probability exceeds frac by less than 2^-24. Saturation, NaN (to
 * -max) and ±0 (to +0) behave as in quantizeNearest().
 */
float quantizeStochastic(float x, const FloatFormat &fmt, uint32_t draw24);

/**
 * Counter-based stochastic-rounding draws (Salmon et al., "Parallel
 * Random Numbers: As Easy as 1, 2, 3", SC'11). The draw for element
 * @p index of a call keyed by @p key is a pure function of the pair,
 * so every partition of a tensor over threads or SIMD lanes sees the
 * same draws. It is computed in two stages so vector kernels can hoist
 * the first: srStream() folds the whole 64-bit key and the high half
 * of the index into two 32-bit seeds (SplitMix64's finalizer), and
 * srDraw24() hashes the low index half through two rounds of
 * MurmurHash3's fmix32,
 *     h = fmix32(fmix32(index_lo ^ s0) + s1),
 * keeping the top 24 bits. Both rounds are bijections of index_lo, so
 * the draws of one stream segment never repeat a hash.
 */
struct SrStream
{
    uint32_t s0;
    uint32_t s1;
};

/** Seeds for the indices of @p key whose high 32 bits are @p index_hi. */
SrStream srStream(uint64_t key, uint32_t index_hi);

/** The 24-bit draw for low index half @p index_lo of stream @p s. */
uint32_t srDraw24(const SrStream &s, uint32_t index_lo);

/** The 24-bit draw for element @p index of the call keyed by @p key. */
uint32_t srDraw24(uint64_t key, uint64_t index);

/** Spacing of the format's grid at value @p x (the ULP). */
double ulpAt(float x, const FloatFormat &fmt);

/**
 * Precomputed float-domain constants describing a format's grid, for
 * vectorized grid-snap kernels (simd/). All fields are exact powers of
 * two or exactly representable floats, so a kernel built on them can
 * reproduce quantizeNearest() bit for bit:
 *   - a normal-range value ax in [min_normal, max_value] quantizes as
 *     roundeven(retag(ax)) * 2^-mantissa_bits * binade(ax), where
 *     retag(ax) keeps ax's mantissa and forces the exponent to
 *     mantissa_bits (the grid index, exact in float);
 *   - a subnormal-range value quantizes as
 *     roundeven(ax * inv_min_sub_hi * inv_min_sub_lo) * min_subnormal
 *     (the inverse subnormal spacing is split into two power-of-two
 *     factors because e.g. bf16's 2^133 overflows a single float).
 */
struct QuantGrid
{
    float max_value;        ///< saturation bound (fmt.maxValue())
    float min_normal;       ///< normal/subnormal grid boundary
    float min_subnormal;    ///< grid spacing below min_normal
    float inv_min_sub_hi;   ///< 1/min_subnormal = hi * lo, both
    float inv_min_sub_lo;   ///<   powers of two within float range
    float two_pow_neg_mant; ///< 2^-mantissa_bits
    int mantissa_bits;
};

/** Grid constants for @p fmt (see QuantGrid). */
QuantGrid quantGrid(const FloatFormat &fmt);

} // namespace snip

#endif // SNIP_QUANT_CODEC_H
