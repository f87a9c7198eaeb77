/**
 * @file
 * Scalar quantization codec: exact grids, rounding rules, saturation,
 * and stochastic-rounding unbiasedness (the property that motivates SR
 * for FP4 gradients, Sec. 6.1).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "quant/codec.h"
#include "util/rng.h"

namespace snip {
namespace {

/** A uniform 24-bit stochastic-rounding draw. */
uint32_t
draw24(Rng &rng)
{
    return static_cast<uint32_t>(rng.nextU64() >> 40);
}

TEST(Codec, Fp4GridIsExactlyTheMxValueSet)
{
    // Every representable value must round-trip to itself.
    const double grid[] = {0,   0.5, 1,  1.5, 2,  3,  4,  6,
                           -0.5, -1, -1.5, -2, -3, -4, -6};
    for (double v : grid)
        EXPECT_EQ(quantizeNearest(static_cast<float>(v), fp4E2m1()), v);
}

TEST(Codec, Fp4NearestRoundsToClosestGridPoint)
{
    EXPECT_EQ(quantizeNearest(0.9f, fp4E2m1()), 1.0f);
    EXPECT_EQ(quantizeNearest(1.2f, fp4E2m1()), 1.0f);
    EXPECT_EQ(quantizeNearest(1.3f, fp4E2m1()), 1.5f);
    EXPECT_EQ(quantizeNearest(2.4f, fp4E2m1()), 2.0f);
    EXPECT_EQ(quantizeNearest(2.6f, fp4E2m1()), 3.0f);
    EXPECT_EQ(quantizeNearest(-4.9f, fp4E2m1()), -5.0f + 1.0f);
}

TEST(Codec, TiesGoToEvenGridIndex)
{
    // 2.5 is exactly between 2 (even index on the [2,4) binade grid)
    // and 3: ties-to-even picks the even mantissa, i.e. 2.
    EXPECT_EQ(quantizeNearest(2.5f, fp4E2m1()), 2.0f);
    // 1.25 between 1.0 and 1.5 -> grid indices 2 (1.0) and 3 -> 1.0.
    EXPECT_EQ(quantizeNearest(1.25f, fp4E2m1()), 1.0f);
    // 5.0 between 4 and 6 -> 4.
    EXPECT_EQ(quantizeNearest(5.0f, fp4E2m1()), 4.0f);
}

TEST(Codec, SaturatesAtMax)
{
    EXPECT_EQ(quantizeNearest(100.0f, fp4E2m1()), 6.0f);
    EXPECT_EQ(quantizeNearest(-1e9f, fp4E2m1()), -6.0f);
    EXPECT_EQ(quantizeNearest(500.0f, fp8E4m3()), 448.0f);
    EXPECT_EQ(quantizeNearest(1e6f, fp8E5m2()), 57344.0f);
}

TEST(Codec, SubnormalsFlushToSubnormalGrid)
{
    // Below minNormal=1.0 for E2M1 the grid spacing is 0.5.
    EXPECT_EQ(quantizeNearest(0.3f, fp4E2m1()), 0.5f);
    EXPECT_EQ(quantizeNearest(0.2f, fp4E2m1()), 0.0f);
    EXPECT_EQ(quantizeNearest(-0.3f, fp4E2m1()), -0.5f);
}

TEST(Codec, ZeroAndSignPreserved)
{
    EXPECT_EQ(quantizeNearest(0.0f, fp4E2m1()), 0.0f);
    EXPECT_LT(quantizeNearest(-2.9f, fp4E2m1()), 0.0f);
}

TEST(Codec, NonFiniteInputsSaturate)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(quantizeNearest(inf, fp4E2m1()), 6.0f);
    EXPECT_EQ(quantizeNearest(-inf, fp4E2m1()), -6.0f);
}

TEST(Codec, UlpMatchesGridSpacing)
{
    EXPECT_DOUBLE_EQ(ulpAt(1.2f, fp4E2m1()), 0.5);
    EXPECT_DOUBLE_EQ(ulpAt(2.5f, fp4E2m1()), 1.0);
    EXPECT_DOUBLE_EQ(ulpAt(5.0f, fp4E2m1()), 2.0);
    EXPECT_DOUBLE_EQ(ulpAt(0.1f, fp4E2m1()), 0.5);
    EXPECT_DOUBLE_EQ(ulpAt(2.0f, fp4E2m1()), 1.0);
}

TEST(Codec, NearestErrorBoundedByHalfUlp)
{
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        float x = static_cast<float>(rng.nextGaussian() * 2.0);
        if (std::fabs(x) >= 6.0f)
            continue;
        float q = quantizeNearest(x, fp4E2m1());
        EXPECT_LE(std::fabs(q - x), 0.5 * ulpAt(x, fp4E2m1()) + 1e-7);
    }
}

TEST(Codec, StochasticRoundingLandsOnNeighbours)
{
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        float x = 1.0f + 3.0f * rng.nextFloat();
        float q = quantizeStochastic(x, fp4E2m1(), draw24(rng));
        // q is a grid point adjacent to x.
        EXPECT_LE(std::fabs(q - x), ulpAt(x, fp4E2m1()) + 1e-7);
        EXPECT_EQ(q, quantizeNearest(q, fp4E2m1()));
    }
}

TEST(Codec, StochasticRoundingIsUnbiased)
{
    // E[q(x)] = x is the property preventing training stagnation.
    Rng rng(3);
    const float x = 2.3f; // between 2 and 3
    double sum = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        sum += quantizeStochastic(x, fp4E2m1(), draw24(rng));
    EXPECT_NEAR(sum / n, x, 0.01);
}

TEST(Codec, SrDrawDependsOnBothHalvesOfKeyAndIndex)
{
    // Flipping one bit in either half of the key, or stepping the
    // index's high half, must give an unrelated run of draws.
    const uint64_t key = 0x0123456789ABCDEFull;
    const uint64_t base = 1000;
    const struct
    {
        uint64_t key, index;
    } variants[] = {{key ^ 1, base},
                    {key ^ (uint64_t{1} << 40), base},
                    {key, base + (uint64_t{1} << 32)}};
    for (const auto &v : variants) {
        int same = 0;
        for (uint64_t i = 0; i < 256; ++i) {
            const uint32_t d = srDraw24(key, base + i);
            EXPECT_LT(d, 1u << 24);
            same += d == srDraw24(v.key, v.index + i);
        }
        EXPECT_LE(same, 1) << std::hex << v.key << " " << v.index;
    }
}

TEST(Codec, NearestIsBiasedTowardNearerPoint)
{
    // Contrast with SR: RNE of 2.3 is always 2.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(quantizeNearest(2.3f, fp4E2m1()), 2.0f);
}

class CodecFormats : public ::testing::TestWithParam<const FloatFormat *>
{
};

TEST_P(CodecFormats, RoundTripIdempotent)
{
    const FloatFormat &fmt = *GetParam();
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        float x = static_cast<float>(rng.nextGaussian() *
                                     fmt.maxValue() * 0.3);
        float q = quantizeNearest(x, fmt);
        EXPECT_EQ(quantizeNearest(q, fmt), q);
    }
}

TEST_P(CodecFormats, MagnitudeCountMatchesEnumeratedGrid)
{
    const FloatFormat &fmt = *GetParam();
    if (fmt.bits() > 8)
        GTEST_SKIP() << "enumeration only for <= 8-bit formats";
    std::set<float> values;
    // Geometric sweep so subnormals of wide-range formats (E5M2) are
    // sampled as densely as the top binade.
    const double lo = fmt.minSubnormal() * 0.49;
    const double hi = fmt.maxValue();
    const int steps = 200'000;
    for (int i = 0; i <= steps; ++i) {
        double x = lo * std::pow(hi / lo, static_cast<double>(i) / steps);
        values.insert(quantizeNearest(static_cast<float>(x), fmt));
    }
    values.erase(0.0f);
    EXPECT_EQ(static_cast<int>(values.size()), fmt.magnitudeCount());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CodecFormats,
                         ::testing::Values(&fp4E2m1(), &fp8E4m3(),
                                           &fp8E5m2(), &fp6E3m2()));

} // namespace
} // namespace snip
