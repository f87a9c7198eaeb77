/**
 * @file
 * FakeQuantizer end to end: scaled quantize-dequantize under every
 * granularity, the role policies of Sec. 2.3 / 6.1, and the error
 * metrics the baselines consume.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "quant/error_metrics.h"
#include "quant/quantizer.h"
#include "tensor/ops.h"
#include "testing_util.h"
#include "util/rng.h"

namespace snip {
namespace {

TEST(Quantizer, ValuesLandOnScaledGrid)
{
    Rng rng(1);
    Tensor t = Tensor::randn({8, 16}, rng);
    FakeQuantizer q(2);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    Tensor out = q.quantize(t, cfg);
    // With tensorwise scaling, out * scale must be on the FP4 grid.
    const double scale = 6.0 / maxAbs(t);
    for (int64_t i = 0; i < out.numel(); ++i) {
        float scaled = static_cast<float>(out.at(i) * scale);
        EXPECT_NEAR(scaled, quantizeNearest(scaled, fp4E2m1()), 1e-5);
    }
}

TEST(Quantizer, MaxAbsElementIsPreservedExactly)
{
    // The scaling maps max|x| onto FPX_MAX, which is representable.
    Rng rng(3);
    Tensor t = Tensor::randn({4, 32}, rng);
    FakeQuantizer q(4);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    Tensor out = q.quantize(t, cfg);
    float m_in = maxAbs(t);
    float m_out = maxAbs(out);
    EXPECT_NEAR(m_in, m_out, 1e-5f * m_in);
}

TEST(Quantizer, FinerGranularityGivesLowerError)
{
    // The reason for tile/block scaling (Sec. 2.3): add per-row scale
    // disparity and compare tensorwise vs tilewise error.
    Rng rng(5);
    Tensor t = Tensor::randn({16, 256}, rng);
    for (int64_t r = 0; r < 16; ++r)
        for (int64_t c = 0; c < 256; ++c)
            t.at(r, c) *= static_cast<float>(std::pow(4.0, r % 4));
    FakeQuantizer q(6);
    QuantConfig coarse{fp4E2m1(), {Granularity::Tensorwise, 0},
                       Rounding::Nearest};
    QuantConfig fine{fp4E2m1(), {Granularity::Tilewise, 128},
                     Rounding::Nearest};
    double e_coarse = measureQuantError(t, coarse, q).abs_error;
    double e_fine = measureQuantError(t, fine, q).abs_error;
    EXPECT_LT(e_fine, e_coarse);
}

TEST(Quantizer, Fp8ErrorBelowFp4Error)
{
    Rng rng(7);
    Tensor t = Tensor::randn({32, 64}, rng);
    FakeQuantizer q(8);
    QuantConfig f8{fp8E4m3(), {Granularity::Tilewise, 128},
                   Rounding::Nearest};
    QuantConfig f4{fp4E2m1(), {Granularity::Tilewise, 128},
                   Rounding::Nearest};
    EXPECT_LT(measureQuantError(t, f8, q).abs_error,
              measureQuantError(t, f4, q).abs_error);
}

TEST(Quantizer, Bf16FastPathNearlyLossless)
{
    Rng rng(9);
    Tensor t = Tensor::randn({16, 16}, rng);
    FakeQuantizer q(10);
    QuantConfig cfg{bf16(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    QuantError err = measureQuantError(t, cfg, q);
    EXPECT_LT(err.rel_error, 3e-3);
    EXPECT_GT(err.rel_error, 0.0); // it does quantize
}

TEST(Quantizer, ZeroTensorIsFixedPoint)
{
    Tensor t(4, 4);
    FakeQuantizer q(11);
    for (auto g : {Granularity::Tensorwise, Granularity::Tilewise,
                   Granularity::Blockwise}) {
        Tensor out = q.quantize(t, QuantConfig{fp4E2m1(), {g, 2},
                                               Rounding::Nearest});
        EXPECT_EQ(frobeniusNorm(out), 0.0);
    }
}

TEST(Quantizer, StochasticRoundingPreservesMeanOfLargeTensor)
{
    Rng rng(13);
    Tensor t = Tensor::full({100, 100}, 0.23f);
    FakeQuantizer q(14);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Stochastic};
    // scale = 6/0.23; scaled value 6.0 is exactly representable, so
    // use a tensor with two values to create rounding pressure.
    for (int64_t i = 0; i < t.numel(); i += 2)
        t.at(i) = 0.115f; // scaled: 3.0, exactly representable? yes.
    // Instead check mean preservation on uniform noise:
    Tensor u = Tensor::uniform({200, 200}, rng, 0.0f, 1.0f);
    Tensor out = q.quantize(u, cfg);
    EXPECT_NEAR(mean(out), mean(u), 0.01);
}

TEST(Quantizer, RolePolicyFollowsDeepSeekRecipe)
{
    QuantConfig act = rolePolicy(Precision::FP8, TensorRole::Activation);
    EXPECT_EQ(act.format.name, "fp8_e4m3");
    EXPECT_EQ(act.scaling.granularity, Granularity::Tilewise);
    EXPECT_EQ(act.scaling.block, 128);

    QuantConfig w = rolePolicy(Precision::FP8, TensorRole::Weight);
    EXPECT_EQ(w.scaling.granularity, Granularity::Blockwise);
    EXPECT_EQ(w.scaling.block, 128);

    QuantConfig g = rolePolicy(Precision::FP8, TensorRole::OutputGrad);
    EXPECT_EQ(g.format.name, "fp8_e5m2"); // wider range for gradients
    EXPECT_EQ(g.rounding, Rounding::Nearest);
}

TEST(Quantizer, Fp4GradientsUseStochasticRounding)
{
    QuantConfig g = rolePolicy(Precision::FP4, TensorRole::OutputGrad);
    EXPECT_EQ(g.format.name, "fp4_e2m1");
    EXPECT_EQ(g.rounding, Rounding::Stochastic);
    // ... but forward tensors use nearest.
    EXPECT_EQ(rolePolicy(Precision::FP4, TensorRole::Activation).rounding,
              Rounding::Nearest);
}

TEST(Quantizer, DeterministicGivenSeed)
{
    Rng rng(15);
    Tensor t = Tensor::randn({32, 32}, rng);
    FakeQuantizer q1(77), q2(77);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tilewise, 8},
                    Rounding::Stochastic};
    EXPECT_TRUE(q1.quantize(t, cfg) == q2.quantize(t, cfg));
}

TEST(Quantizer, StochasticDrawIsKeyedByFlatIndex)
{
    // One call key per call from the member stream; element i of the
    // row-major view rounds with srDraw24(key, i) — the codec fed that
    // draw reproduces the whole tensor bit for bit.
    Rng rng(23);
    Tensor t = Tensor::randn({9, 37}, rng);
    const QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                          Rounding::Stochastic};
    FakeQuantizer q(808);
    Rng keys(808);
    for (int call = 0; call < 2; ++call) {
        const uint64_t key = keys.nextU64();
        const Tensor out = q.quantize(t, cfg);
        double max_abs = 0.0;
        for (int64_t i = 0; i < t.numel(); ++i)
            max_abs = std::max(max_abs, std::fabs(double{t.at(i)}));
        const double scale = regionScale(max_abs, cfg.format.maxValue());
        const float fscale = static_cast<float>(scale);
        const float inv = static_cast<float>(1.0 / scale);
        for (int64_t i = 0; i < t.numel(); ++i) {
            const float want =
                quantizeStochastic(t.at(i) * fscale, cfg.format,
                                   srDraw24(key, static_cast<uint64_t>(i))) *
                inv;
            ASSERT_EQ(out.at(i), want) << "call " << call << " i=" << i;
        }
    }
}

TEST(Quantizer, ParallelBitIdenticalToSerial)
{
    // Region sweeps run on the shared pool; every config — including
    // stochastic rounding, whose draws are a function of the call key
    // and the element index rather than claimed in scheduling order —
    // must give the 1-thread result bit for bit at 2 and 8 threads.
    GlobalPoolGuard guard;
    Rng rng(99);
    Tensor t = Tensor::randn({67, 190}, rng); // non-multiple of blocks
    const QuantConfig configs[] = {
        {fp4E2m1(), {Granularity::Tilewise, 128}, Rounding::Nearest},
        {fp8E4m3(), {Granularity::Blockwise, 128}, Rounding::Nearest},
        {fp4E2m1(), {Granularity::Rowwise, 0}, Rounding::Nearest},
        {fp4E2m1(), {Granularity::Tensorwise, 0}, Rounding::Stochastic},
        {fp4E2m1(), {Granularity::Tilewise, 32}, Rounding::Stochastic},
        {bf16(), {Granularity::Tensorwise, 0}, Rounding::Nearest},
    };
    for (const QuantConfig &cfg : configs) {
        runtime::setGlobalThreadCount(1);
        FakeQuantizer serial_q(555);
        const Tensor serial = serial_q.quantize(t, cfg);
        for (int threads : {2, 8}) {
            runtime::setGlobalThreadCount(threads);
            FakeQuantizer q(555);
            EXPECT_TRUE(q.quantize(t, cfg) == serial)
                << cfg.describe() << " at " << threads << " threads";
        }
    }
}

TEST(ErrorMetrics, FieldsConsistent)
{
    Rng rng(17);
    Tensor t = Tensor::randn({16, 16}, rng);
    FakeQuantizer q(18);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Nearest};
    QuantError err = measureQuantError(t, cfg, q);
    EXPECT_GT(err.abs_error, 0.0);
    EXPECT_NEAR(err.rel_error, err.abs_error / frobeniusNorm(t), 1e-12);
    EXPECT_GT(err.max_error, 0.0);
    EXPECT_LE(err.max_error, err.abs_error);
    EXPECT_NEAR(err.input_norm, frobeniusNorm(t), 1e-9);
}

TEST(ErrorMetrics, StochasticConfigMeasuredDeterministically)
{
    Rng rng(19);
    Tensor t = Tensor::randn({16, 16}, rng);
    FakeQuantizer q(20);
    QuantConfig cfg{fp4E2m1(), {Granularity::Tensorwise, 0},
                    Rounding::Stochastic};
    double a = measureQuantError(t, cfg, q).abs_error;
    double b = measureQuantError(t, cfg, q).abs_error;
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace snip
