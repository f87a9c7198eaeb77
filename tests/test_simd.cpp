/**
 * @file
 * SIMD backend dispatch and scalar-vs-AVX2 agreement.
 *
 * Contracts under test (simd/kernels.h):
 *   - SNIP_SIMD forces a backend and activeBackendName() reports it;
 *   - quantize / bf16-round / max-abs agree bit for bit across
 *     backends (asserted exactly, which is stronger than the 1-ULP
 *     requirement);
 *   - stochastic rounding matches the scalar codec fed the
 *     counter-based draws on every backend, lands on a definitional
 *     grid neighbour, and rounds up with frequency frac;
 *   - GEMM agrees across backends within a relative-error bound and
 *     is bit-identical across 1/2/8 threads within each backend.
 * AVX2 comparisons skip with a message on hosts without AVX2+FMA.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "quant/codec.h"
#include "quant/error_metrics.h"
#include "quant/quantizer.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "util/rng.h"

namespace snip {
namespace {

/** Restores the pre-test SNIP_SIMD value (and the dispatch decision
 *  derived from it) when a test ends, so an externally forced backend
 *  — e.g. CI's `SNIP_SIMD=scalar ctest -L simd` — stays forced for
 *  the tests that follow. */
struct BackendGuard
{
    BackendGuard()
    {
        const char *v = std::getenv("SNIP_SIMD");
        had_value_ = v != nullptr;
        if (had_value_)
            saved_ = v;
    }
    BackendGuard(const BackendGuard &) = delete;
    BackendGuard &operator=(const BackendGuard &) = delete;
    ~BackendGuard()
    {
        if (had_value_)
            setenv("SNIP_SIMD", saved_.c_str(), 1);
        else
            unsetenv("SNIP_SIMD");
        simd::reinitFromEnv();
    }

  private:
    bool had_value_ = false;
    std::string saved_;
};

#define SKIP_WITHOUT_AVX2()                                               \
    do {                                                                  \
        if (!simd::cpuSupportsAvx2())                                     \
            GTEST_SKIP() << "AVX2+FMA not available on this host/build"; \
    } while (0)

TEST(SimdDispatch, EnvForcesScalar)
{
    BackendGuard guard;
    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Scalar);
}

TEST(SimdDispatch, EnvForcesAvx2)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(), "avx2");
    EXPECT_EQ(simd::activeBackend(), simd::Backend::Avx2);
}

TEST(SimdDispatch, AutoPicksBestAvailable)
{
    BackendGuard guard;
    setenv("SNIP_SIMD", "auto", 1);
    simd::reinitFromEnv();
    EXPECT_STREQ(simd::activeBackendName(),
                 simd::cpuSupportsAvx2() ? "avx2" : "scalar");
}

TEST(SimdDispatch, SetBackendByName)
{
    BackendGuard guard;
    EXPECT_TRUE(simd::setBackendByName("scalar"));
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_FALSE(simd::setBackendByName("neon"));
    EXPECT_STREQ(simd::activeBackendName(), "scalar");
    EXPECT_EQ(simd::setBackendByName("avx2"),
              simd::cpuSupportsAvx2());
}

/** Values exercising every quantizer branch: normals across binades,
 *  subnormals, ties, saturation, zeros, and non-finites. */
std::vector<float>
adversarialValues(const FloatFormat &fmt)
{
    const float max_v = static_cast<float>(fmt.maxValue());
    const float min_n = static_cast<float>(fmt.minNormal());
    const float min_s = static_cast<float>(fmt.minSubnormal());
    std::vector<float> vals = {
        0.0f,
        -0.0f,
        min_s * 0.25f,
        -min_s * 0.25f,
        min_s * 0.5f, // tie on the subnormal grid
        min_s,
        min_n * 0.999f,
        min_n,
        max_v * 0.999f,
        max_v,
        -max_v,
        max_v * 1.5f,
        -max_v * 1.5f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
    };
    // Dense coverage of the grid, including exact ties: odd multiples
    // of half a ULP land exactly between grid points.
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        float v = static_cast<float>(rng.nextGaussian() *
                                     std::pow(10.0, rng.nextRange(-9, 9)));
        vals.push_back(v);
        double ulp = ulpAt(v, fmt);
        vals.push_back(static_cast<float>(
            std::fabs(static_cast<double>(v)) + 0.5 * ulp));
    }
    return vals;
}

TEST(SimdQuantize, BitExactAcrossBackendsEveryFormat)
{
    SKIP_WITHOUT_AVX2();
    const FloatFormat *formats[] = {&fp4E2m1(),  &fp6E3m2(), &fp8E4m3(),
                                    &fp8E5m2(),  &bf16(),    &fp16()};
    for (const FloatFormat *fmt : formats) {
        std::vector<float> vals = adversarialValues(*fmt);
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            std::vector<float> a = vals, b = vals;
            const float inv = 1.0f / scale;
            simd::scalarKernels().quantizeNearest(
                a.data(), static_cast<int64_t>(a.size()), *fmt, grid,
                scale, inv);
            simd::avx2Kernels().quantizeNearest(
                b.data(), static_cast<int64_t>(b.size()), *fmt, grid,
                scale, inv);
            ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(float)))
                << fmt->name << " scale=" << scale;
        }
    }
}

TEST(SimdQuantize, Bf16RoundBitExactAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    std::vector<float> vals = adversarialValues(bf16());
    std::vector<float> a = vals, b = vals;
    simd::scalarKernels().bf16Round(a.data(),
                                    static_cast<int64_t>(a.size()));
    simd::avx2Kernels().bf16Round(b.data(),
                                  static_cast<int64_t>(b.size()));
    EXPECT_EQ(0,
              std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(SimdQuantize, MaxAbsBitExactAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(17);
    for (int64_t n : {0, 1, 7, 8, 9, 1000}) {
        std::vector<float> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = static_cast<float>(rng.nextGaussian() * 100.0);
        if (n > 3)
            v[3] = std::numeric_limits<float>::quiet_NaN();
        float s = simd::scalarKernels().maxAbs(v.data(), n);
        float a = simd::avx2Kernels().maxAbs(v.data(), n);
        EXPECT_EQ(s, a) << "n=" << n;
    }
}

/** Every backend this host can run (scalar always, AVX2 when present). */
std::vector<const simd::KernelTable *>
runnableBackends()
{
    std::vector<const simd::KernelTable *> out = {&simd::scalarKernels()};
    if (simd::cpuSupportsAvx2())
        out.push_back(&simd::avx2Kernels());
    return out;
}

TEST(SimdStochastic, BackendsMatchCodecReferenceEveryFormat)
{
    const FloatFormat *formats[] = {&fp4E2m1(),  &fp6E3m2(), &fp8E4m3(),
                                    &fp8E5m2(),  &bf16(),    &fp16()};
    // index0 values include a span that crosses a 2^32 index boundary,
    // where the draw stream's high index half changes mid-span.
    const uint64_t starts[] = {0, 13, (uint64_t{1} << 32) - 21,
                               0xFFFFFFF0ull << 28};
    for (const FloatFormat *fmt : formats) {
        std::vector<float> vals = adversarialValues(*fmt);
        vals.resize(vals.size() - vals.size() % 8 + 5); // ragged tail
        const QuantGrid grid = quantGrid(*fmt);
        for (float scale : {1.0f, 0.731f, 512.0f}) {
            const float inv = 1.0f / scale;
            for (uint64_t index0 : starts) {
                const uint64_t key = 0x0123456789ABCDEFull ^ index0;
                std::vector<float> ref(vals.size());
                for (size_t i = 0; i < vals.size(); ++i)
                    ref[i] = quantizeStochastic(vals[i] * scale, *fmt,
                                                srDraw24(key, index0 + i)) *
                             inv;
                for (const simd::KernelTable *kt : runnableBackends()) {
                    std::vector<float> got = vals;
                    kt->quantizeStochastic(got.data(),
                                           static_cast<int64_t>(got.size()),
                                           *fmt, grid, scale, inv, key,
                                           index0);
                    ASSERT_EQ(0, std::memcmp(ref.data(), got.data(),
                                             ref.size() * sizeof(float)))
                        << kt->name << " " << fmt->name
                        << " scale=" << scale << " index0=" << index0;
                }
            }
        }
    }
}

TEST(SimdStochastic, SplitSpansGiveTheSameBits)
{
    // A draw depends only on (key, flat index): sweeping a run in
    // pieces of any length, each with its own index0, must reproduce
    // the one-call result on every backend.
    Rng rng(21);
    std::vector<float> vals(1001);
    for (auto &v : vals)
        v = static_cast<float>(rng.nextGaussian());
    const QuantGrid grid = quantGrid(fp4E2m1());
    const uint64_t key = 0xFEEDFACECAFEBEEFull;
    const uint64_t index0 = 77;
    std::vector<float> whole = vals;
    simd::scalarKernels().quantizeStochastic(
        whole.data(), static_cast<int64_t>(whole.size()), fp4E2m1(), grid,
        3.0f, 1.0f / 3.0f, key, index0);
    for (const simd::KernelTable *kt : runnableBackends()) {
        for (int64_t piece : {1, 7, 8, 9, 128, 1000}) {
            std::vector<float> got = vals;
            for (int64_t i0 = 0; i0 < static_cast<int64_t>(got.size());
                 i0 += piece) {
                const int64_t n = std::min<int64_t>(
                    piece, static_cast<int64_t>(got.size()) - i0);
                kt->quantizeStochastic(got.data() + i0, n, fp4E2m1(), grid,
                                       3.0f, 1.0f / 3.0f, key,
                                       index0 + static_cast<uint64_t>(i0));
            }
            EXPECT_EQ(0, std::memcmp(whole.data(), got.data(),
                                     whole.size() * sizeof(float)))
                << kt->name << " piece=" << piece;
        }
    }
}

TEST(SimdStochastic, SpecialInputsBehaveAsTheCodec)
{
    const float inf = std::numeric_limits<float>::infinity();
    for (const FloatFormat *fmt : {&fp4E2m1(), &fp8E4m3(), &bf16()}) {
        const QuantGrid grid = quantGrid(*fmt);
        const float max_v = grid.max_value;
        const float min_s = grid.min_subnormal;
        for (const simd::KernelTable *kt : runnableBackends()) {
            // 64 copies of each input so every draw path (vector lanes
            // and the scalar tail) sees it under many draws.
            auto sweep = [&](float x) {
                std::vector<float> v(67, x);
                kt->quantizeStochastic(v.data(), 67, *fmt, grid, 1.0f,
                                       1.0f, 0x5EEDull, 1000);
                return v;
            };
            auto allBits = [](const std::vector<float> &v, float want) {
                for (float y : v) {
                    if (std::memcmp(&y, &want, sizeof(float)) != 0)
                        return false;
                }
                return true;
            };
            const std::string where =
                std::string(kt->name) + " " + fmt->name;
            EXPECT_TRUE(allBits(
                sweep(std::numeric_limits<float>::quiet_NaN()), -max_v))
                << where;
            EXPECT_TRUE(allBits(sweep(inf), max_v)) << where;
            EXPECT_TRUE(allBits(sweep(-inf), -max_v)) << where;
            EXPECT_TRUE(allBits(sweep(0.0f), 0.0f)) << where;
            EXPECT_TRUE(allBits(sweep(-0.0f), 0.0f)) << where;
            EXPECT_TRUE(allBits(sweep(max_v), max_v)) << where;
            EXPECT_TRUE(allBits(sweep(max_v * 1.5f), max_v)) << where;
            EXPECT_TRUE(allBits(sweep(-max_v * 1.5f), -max_v)) << where;
            // Below the smallest subnormal step: either neighbour, and
            // both must occur over 67 draws at frac = 1/2.
            for (float sign : {1.0f, -1.0f}) {
                const std::vector<float> v = sweep(sign * min_s * 0.5f);
                int ups = 0;
                for (float y : v) {
                    EXPECT_TRUE(y == 0.0f || y == sign * min_s)
                        << where << " y=" << y;
                    EXPECT_EQ(std::signbit(y), sign < 0) << where;
                    ups += y != 0.0f;
                }
                EXPECT_GT(ups, 0) << where;
                EXPECT_LT(ups, 67) << where;
            }
        }
    }
}

TEST(SimdStochastic, DrawEqualToFractionRoundsDown)
{
    // The rule is strict: up iff draw24 * 2^-24 < frac. On E2M1's
    // subnormal grid (spacing 1/2) x = d * 2^-25 has frac exactly
    // d * 2^-24, so x built from each element's own draw d must round
    // down to 0, and x one draw-step above must round up to 1/2.
    const QuantGrid grid = quantGrid(fp4E2m1());
    const uint64_t key = 0x7E57C0DEull;
    const int64_t n = 1003;
    for (const simd::KernelTable *kt : runnableBackends()) {
        std::vector<float> at(static_cast<size_t>(n));
        std::vector<float> above(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            const uint32_t d = srDraw24(key, static_cast<uint64_t>(i));
            const size_t k = static_cast<size_t>(i);
            at[k] = std::ldexp(static_cast<float>(d), -25);
            above[k] = std::ldexp(static_cast<float>(d + 1), -25);
        }
        kt->quantizeStochastic(at.data(), n, fp4E2m1(), grid, 1.0f, 1.0f,
                               key, 0);
        kt->quantizeStochastic(above.data(), n, fp4E2m1(), grid, 1.0f,
                               1.0f, key, 0);
        for (int64_t i = 0; i < n; ++i) {
            EXPECT_EQ(at[static_cast<size_t>(i)], 0.0f)
                << kt->name << " i=" << i;
            EXPECT_EQ(above[static_cast<size_t>(i)], 0.5f)
                << kt->name << " i=" << i;
        }
    }
}

TEST(SimdStochastic, OutputIsADefinitionalGridNeighbour)
{
    Rng rng(31);
    for (const FloatFormat *fmt :
         {&fp4E2m1(), &fp6E3m2(), &fp8E4m3(), &fp8E5m2(), &bf16()}) {
        const QuantGrid grid = quantGrid(*fmt);
        const double max_v = fmt->maxValue();
        std::vector<float> vals(4099);
        for (auto &v : vals)
            v = static_cast<float>(rng.nextGaussian() * max_v * 0.3);
        for (const simd::KernelTable *kt : runnableBackends()) {
            std::vector<float> got = vals;
            kt->quantizeStochastic(got.data(),
                                   static_cast<int64_t>(got.size()), *fmt,
                                   grid, 1.0f, 1.0f, rng.nextU64(), 0);
            for (size_t i = 0; i < vals.size(); ++i) {
                // The neighbours from the definition: floor and ceiling
                // of |x| on the grid spacing at |x|, clamped to max.
                const double a = std::fabs(static_cast<double>(vals[i]));
                const double ulp = ulpAt(vals[i], *fmt);
                const double down =
                    std::min(std::floor(a / ulp) * ulp, max_v);
                const double up = std::min(down + ulp, max_v);
                const double y = std::fabs(static_cast<double>(got[i]));
                EXPECT_TRUE(y == down || y == up)
                    << kt->name << " " << fmt->name << " x=" << vals[i]
                    << " y=" << got[i];
                if (got[i] != 0.0f) {
                    EXPECT_EQ(std::signbit(got[i]), std::signbit(vals[i]));
                }
            }
        }
    }
}

TEST(SimdStochastic, RoundUpFrequencyMatchesFraction)
{
    // E2M1 spacing on [2, 4) is 1, so x = 2 + f rounds up to 3 with
    // probability f. Over n draws the up-count must sit within a 5σ
    // binomial band of n·f (σ² = n·f·(1-f)); +1 absorbs the integer
    // count at the tiny fractions.
    const QuantGrid grid = quantGrid(fp4E2m1());
    const int64_t n = 200000;
    const double fracs[] = {0x1p-20, 0.001, 0.1, 0.25, 0.3, 0.5,
                            0.7,     0.9,   0.999};
    uint64_t key = 0xA5A5A5A5ull;
    for (const simd::KernelTable *kt : runnableBackends()) {
        for (double f : fracs) {
            std::vector<float> v(static_cast<size_t>(n),
                                 static_cast<float>(2.0 + f));
            kt->quantizeStochastic(v.data(), n, fp4E2m1(), grid, 1.0f,
                                   1.0f, ++key, 0);
            int64_t ups = 0;
            for (float y : v) {
                ASSERT_TRUE(y == 2.0f || y == 3.0f) << y;
                ups += y == 3.0f;
            }
            const double mean = static_cast<double>(n) * f;
            const double sigma = std::sqrt(mean * (1.0 - f));
            EXPECT_LE(std::fabs(static_cast<double>(ups) - mean),
                      5.0 * sigma + 1.0)
                << kt->name << " frac=" << f << " ups=" << ups;
        }
    }
}

TEST(SimdQuantize, FakeQuantizerEndToEndMatchesAt128Threads)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    Rng rng(5);
    Tensor t = Tensor::randn({130, 257}, rng, 3.0f);
    // Nearest and stochastic rounding: both go through the kernel
    // table, so neither backend nor thread count may change a bit.
    for (Rounding rounding : {Rounding::Nearest, Rounding::Stochastic}) {
        const QuantConfig cfg{fp4E2m1(), {Granularity::Tilewise, 128},
                              rounding};

        setenv("SNIP_SIMD", "scalar", 1);
        simd::reinitFromEnv();
        runtime::setGlobalThreadCount(1);
        FakeQuantizer qs(9);
        const Tensor ref = qs.quantize(t, cfg);

        for (const char *backend : {"scalar", "avx2"}) {
            setenv("SNIP_SIMD", backend, 1);
            simd::reinitFromEnv();
            for (int threads : {1, 2, 8}) {
                runtime::setGlobalThreadCount(threads);
                FakeQuantizer q(9);
                EXPECT_TRUE(q.quantize(t, cfg) == ref)
                    << cfg.describe() << " " << backend << " @ "
                    << threads << " threads";
            }
        }
    }
}

TEST(SimdGemm, BackendsAgreeWithinTolerance)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard backend_guard;
    GlobalPoolGuard pool_guard;
    // Shapes straddle the 64-wide block and the 2x4 register tile to
    // exercise every remainder path.
    const int64_t m = 131, n = 97, k = 71;
    Rng rng(23);
    Tensor a_nt = Tensor::randn({m, k}, rng);
    Tensor b_nt = Tensor::randn({n, k}, rng);
    Tensor a_nn = Tensor::randn({m, k}, rng);
    Tensor b_nn = Tensor::randn({k, n}, rng);
    Tensor a_tn = Tensor::randn({k, m}, rng);
    Tensor b_tn = Tensor::randn({k, n}, rng);

    auto compute = [&]() {
        std::vector<Tensor> r;
        r.push_back(matmulNT(a_nt, b_nt));
        r.push_back(matmulNN(a_nn, b_nn));
        r.push_back(matmulTN(a_tn, b_tn));
        return r;
    };

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    runtime::setGlobalThreadCount(1);
    const std::vector<Tensor> ref = compute();

    for (const char *backend : {"scalar", "avx2"}) {
        setenv("SNIP_SIMD", backend, 1);
        simd::reinitFromEnv();
        runtime::setGlobalThreadCount(1);
        const std::vector<Tensor> base = compute();
        // Within one backend: bit-identical for any thread count.
        for (int threads : {2, 8}) {
            runtime::setGlobalThreadCount(threads);
            const std::vector<Tensor> got = compute();
            for (size_t v = 0; v < got.size(); ++v) {
                EXPECT_TRUE(got[v] == base[v])
                    << backend << " variant " << v << " @ " << threads
                    << " threads";
            }
        }
        // Across backends: low-order bits may differ (FMA, lane
        // order); bound the relative Frobenius error.
        for (size_t v = 0; v < base.size(); ++v) {
            EXPECT_LT(diffNorm(base[v], ref[v]),
                      1e-6 * (1.0 + frobeniusNorm(ref[v])))
                << backend << " variant " << v;
        }
    }
}

TEST(SimdGemm, AccumulateAgreesAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    const int64_t m = 66, n = 35, k = 19;
    Rng rng(29);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    Tensor init = Tensor::randn({m, n}, rng);

    Tensor cs = init;
    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    gemmNT(a.data(), b.data(), cs.data(), m, n, k, /*accumulate=*/true);

    Tensor ca = init;
    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    gemmNT(a.data(), b.data(), ca.data(), m, n, k, /*accumulate=*/true);

    EXPECT_LT(diffNorm(cs, ca), 1e-6 * (1.0 + frobeniusNorm(cs)));
}

/** Pack one full operand with a backend table. */
std::vector<float>
packWith(const simd::KernelTable &kt, bool pack_a, const Tensor &src,
         bool k_major, int64_t extent, int64_t k,
         const simd::PackQuant *pq)
{
    const int64_t strip = pack_a ? simd::kGemmPackMR : simd::kGemmPackNR;
    // +8: PackAFn transpose-store headroom (simd/kernels.h).
    std::vector<float> out(static_cast<size_t>(
                               simd::packStrips(extent, strip) * strip *
                                   k +
                               8),
                           -7.5f);
    const int64_t ld = k_major ? extent : k;
    if (pack_a)
        kt.packA(src.data(), ld, k_major, out.data(), 0, extent, k, pq);
    else
        kt.packB(src.data(), ld, k_major, out.data(), 0, extent, extent,
                 k, pq);
    out.resize(static_cast<size_t>(
        simd::packStrips(extent, strip) * strip * k));
    return out;
}

TEST(SimdPack, PackKernelsBitExactAcrossBackends)
{
    // Packing is copies plus the grid-snap quantizer, both of which
    // the backends must reproduce bit for bit — so packed panels are
    // asserted EXACTLY equal, fused quantization included, for both
    // orientations of both operands at ragged extents.
    SKIP_WITHOUT_AVX2();
    const int64_t ext = 45, k = 147; // ragged strips, ragged regions
    Rng rng(31);
    const QuantConfig cfg =
        rolePolicy(Precision::FP4, TensorRole::Weight);
    const QuantGrid grid = quantGrid(cfg.format);
    for (bool pack_a : {true, false}) {
        for (bool k_major : {true, false}) {
            Tensor src = k_major
                             ? Tensor::randn({k, ext}, rng)
                             : Tensor::randn({ext, k}, rng);
            const int64_t rows = k_major ? k : ext;
            const int64_t cols = k_major ? ext : k;
            // Region scales shared by both backends (their maxAbs
            // kernels already agree bitwise).
            const int64_t rb = std::min<int64_t>(128, rows);
            const int64_t cb = std::min<int64_t>(128, cols);
            const int64_t ncr = (cols + cb - 1) / cb;
            const int64_t nrr = (rows + rb - 1) / rb;
            std::vector<float> scale, inv;
            for (int64_t r = 0; r < nrr; ++r) {
                for (int64_t c = 0; c < ncr; ++c) {
                    scale.push_back(1.5f + static_cast<float>(r + c));
                    inv.push_back(1.0f / scale.back());
                }
            }
            const simd::PackQuant pq{&cfg.format, &grid,
                                     scale.data(),  inv.data(),
                                     rb,            cb,
                                     ncr};
            for (const simd::PackQuant *q :
                 {static_cast<const simd::PackQuant *>(nullptr), &pq}) {
                auto s = packWith(simd::scalarKernels(), pack_a, src,
                                  k_major, ext, k, q);
                auto v = packWith(simd::avx2Kernels(), pack_a, src,
                                  k_major, ext, k, q);
                EXPECT_EQ(s, v)
                    << (pack_a ? "packA" : "packB")
                    << (k_major ? " k_major" : " row_major")
                    << (q ? " quantized" : " plain");
            }
        }
    }
}

TEST(SimdPack, PackedBlockGemmBackendsAgreeWithinTolerance)
{
    SKIP_WITHOUT_AVX2();
    const int64_t mb = 45, n = 39, k = 83;
    Rng rng(37);
    Tensor a = Tensor::randn({mb, k}, rng);
    Tensor b = Tensor::randn({n, k}, rng);
    auto ap = packWith(simd::scalarKernels(), true, a, false, mb, k,
                       nullptr);
    auto bp = packWith(simd::scalarKernels(), false, b, false, n, k,
                       nullptr);
    Tensor cs(mb, n), cv(mb, n);
    simd::scalarKernels().gemmPackedBlock(ap.data(), bp.data(),
                                          cs.data(), n, mb, n, k);
    simd::avx2Kernels().gemmPackedBlock(ap.data(), bp.data(), cv.data(),
                                        n, mb, n, k);
    EXPECT_LT(diffNorm(cs, cv), 1e-6 * (1.0 + frobeniusNorm(cs)));
}

/** Reference transcription of the historical open-coded attention
 *  softmax loops (nn/attention.cpp pre-batching): the semantics both
 *  backends' fused kernels must reproduce bit for bit. */
void
refAttnSoftmaxFwd(float *prob, int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        float *row = prob + i * seq;
        float maxv = -1e30f;
        for (int64_t j = 0; j <= i; ++j) {
            row[j] *= scale;
            maxv = std::max(maxv, row[j]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j <= i; ++j) {
            row[j] = std::exp(row[j] - maxv);
            denom += row[j];
        }
        const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
        for (int64_t j = 0; j <= i; ++j)
            row[j] *= inv;
        for (int64_t j = i + 1; j < seq; ++j)
            row[j] = 0.0f;
    }
}

void
refAttnSoftmaxBwd(const float *prob, const float *dp, float *ds,
                  int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        double dot = 0.0;
        for (int64_t j = 0; j <= i; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        for (int64_t j = 0; j < seq; ++j)
            dsrow[j] = j <= i ? prow[j] *
                                    (dprow[j] - static_cast<float>(dot)) *
                                    scale
                              : 0.0f;
    }
}

TEST(SimdAttnSoftmax, FwdBitExactAcrossBackendsAndVsReference)
{
    Rng rng(51);
    for (int64_t seq : {1, 2, 7, 8, 9, 16, 33, 64}) {
        const float scale =
            1.0f / std::sqrt(static_cast<float>(seq));
        std::vector<float> scores(static_cast<size_t>(seq * seq));
        for (auto &x : scores)
            x = static_cast<float>(rng.nextGaussian() * 3.0);
        std::vector<float> ref = scores, sc = scores;
        refAttnSoftmaxFwd(ref.data(), seq, scale);
        simd::scalarKernels().attnSoftmaxFwd(sc.data(), seq, scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc.data(),
                                 ref.size() * sizeof(float)))
            << "scalar vs reference, seq=" << seq;
        if (simd::cpuSupportsAvx2()) {
            std::vector<float> av = scores;
            simd::avx2Kernels().attnSoftmaxFwd(av.data(), seq, scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), av.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 vs reference, seq=" << seq;
        }
    }
}

TEST(SimdAttnSoftmax, BwdBitExactAcrossBackendsAndVsReference)
{
    Rng rng(52);
    for (int64_t seq : {1, 2, 7, 8, 9, 16, 33, 64}) {
        const float scale = 0.25f;
        std::vector<float> prob(static_cast<size_t>(seq * seq));
        refAttnSoftmaxFwd(prob.data(), seq, 1.0f); // valid row dists
        std::vector<float> dp(static_cast<size_t>(seq * seq));
        for (auto &x : dp)
            x = static_cast<float>(rng.nextGaussian());
        std::vector<float> ref(dp.size()), sc(dp.size());
        refAttnSoftmaxBwd(prob.data(), dp.data(), ref.data(), seq,
                          scale);
        simd::scalarKernels().attnSoftmaxBwd(prob.data(), dp.data(),
                                             sc.data(), seq, scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc.data(),
                                 ref.size() * sizeof(float)))
            << "scalar vs reference, seq=" << seq;
        // In-place (ds aliasing dp) — the batched attention runtime
        // overwrites dP with dS through this contract.
        std::vector<float> sc_inplace = dp;
        simd::scalarKernels().attnSoftmaxBwd(prob.data(),
                                             sc_inplace.data(),
                                             sc_inplace.data(), seq,
                                             scale);
        ASSERT_EQ(0, std::memcmp(ref.data(), sc_inplace.data(),
                                 ref.size() * sizeof(float)))
            << "scalar in-place, seq=" << seq;
        if (simd::cpuSupportsAvx2()) {
            std::vector<float> av(dp.size());
            simd::avx2Kernels().attnSoftmaxBwd(prob.data(), dp.data(),
                                               av.data(), seq, scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), av.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 vs reference, seq=" << seq;
            // In-place (ds aliasing dp) must match the out-of-place
            // result — the attention runtime relies on row locality.
            std::vector<float> inplace = dp;
            simd::avx2Kernels().attnSoftmaxBwd(prob.data(),
                                               inplace.data(),
                                               inplace.data(), seq,
                                               scale);
            ASSERT_EQ(0, std::memcmp(ref.data(), inplace.data(),
                                     ref.size() * sizeof(float)))
                << "avx2 in-place, seq=" << seq;
        }
    }
}

TEST(SimdErrorStats, BackendsAgree)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(31);
    for (int64_t n : {0, 1, 5, 8, 13, 4096}) {
        std::vector<float> ref(static_cast<size_t>(n)),
            q(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
            ref[static_cast<size_t>(i)] =
                static_cast<float>(rng.nextGaussian());
            q[static_cast<size_t>(i)] =
                ref[static_cast<size_t>(i)] +
                static_cast<float>(rng.nextGaussian() * 1e-3);
        }
        double ss = 0, sm = 0, as = 0, am = 0;
        simd::scalarKernels().errorStats(ref.data(), q.data(), n, &ss,
                                         &sm);
        simd::avx2Kernels().errorStats(ref.data(), q.data(), n, &as,
                                       &am);
        EXPECT_EQ(sm, am) << "max must be exact, n=" << n;
        EXPECT_NEAR(ss, as, 1e-12 * (1.0 + ss)) << "n=" << n;
    }
}

TEST(SimdReductions, SumSquaresBackendsAgree)
{
    SKIP_WITHOUT_AVX2();
    Rng rng(41);
    for (int64_t n : {0, 1, 5, 8, 13, 4096}) {
        std::vector<float> v(static_cast<size_t>(n));
        for (auto &x : v)
            x = static_cast<float>(rng.nextGaussian() * 10.0);
        const double s =
            simd::scalarKernels().sumSquares(v.data(), n);
        const double a = simd::avx2Kernels().sumSquares(v.data(), n);
        EXPECT_NEAR(s, a, 1e-12 * (1.0 + s)) << "n=" << n;
    }
}

TEST(SimdReductions, TensorOpsFollowTheActiveBackend)
{
    // The stats-collector/eval reductions (tensor/ops.cpp) dispatch
    // through the KernelTable: maxAbs must agree bit for bit across
    // backends, the sum-of-squares norms within low-order bits.
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    Rng rng(43);
    Tensor t = Tensor::randn({130, 257}, rng, 5.0f);
    Tensor u = Tensor::randn({130, 257}, rng, 5.0f);

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    const double norm_s = frobeniusNorm(t);
    const double sumsq_s = sumSquares(t);
    const double diff_s = diffNorm(t, u);
    const float max_s = maxAbs(t);

    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    EXPECT_EQ(maxAbs(t), max_s);
    EXPECT_NEAR(frobeniusNorm(t), norm_s, 1e-9 * (1.0 + norm_s));
    EXPECT_NEAR(sumSquares(t), sumsq_s, 1e-9 * (1.0 + sumsq_s));
    EXPECT_NEAR(diffNorm(t, u), diff_s, 1e-9 * (1.0 + diff_s));
}

TEST(SimdErrorStats, MeasureQuantErrorStableAcrossBackends)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    Rng rng(37);
    Tensor t = Tensor::randn({64, 96}, rng);
    FakeQuantizer quant(1);
    const QuantConfig cfg{fp8E4m3(),
                          {Granularity::Blockwise, 128},
                          Rounding::Nearest};

    setenv("SNIP_SIMD", "scalar", 1);
    simd::reinitFromEnv();
    QuantError es = measureQuantError(t, cfg, quant);

    setenv("SNIP_SIMD", "avx2", 1);
    simd::reinitFromEnv();
    QuantError ea = measureQuantError(t, cfg, quant);

    EXPECT_EQ(es.max_error, ea.max_error);
    EXPECT_NEAR(es.abs_error, ea.abs_error, 1e-9 * (1.0 + es.abs_error));
    EXPECT_NEAR(es.rel_error, ea.rel_error, 1e-9);
}

} // namespace
} // namespace snip
