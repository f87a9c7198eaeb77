#include "quant/quantizer.h"

#include <cmath>
#include <cstring>

#include "runtime/thread_pool.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"
#include "util/string_util.h"

namespace snip {

std::string
QuantConfig::describe() const
{
    return strformat("%s/%s%d/%s", format.name.c_str(),
                     granularityName(scaling.granularity), scaling.block,
                     roundingName(rounding));
}

const char *
precisionName(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return "BF16";
        case Precision::FP8:
            return "FP8";
        case Precision::FP6:
            return "FP6";
        case Precision::FP4:
            return "FP4";
    }
    return "?";
}

int
precisionBits(Precision p)
{
    switch (p) {
        case Precision::BF16:
            return 16;
        case Precision::FP8:
            return 8;
        case Precision::FP6:
            return 6;
        case Precision::FP4:
            return 4;
    }
    return 0;
}

const char *
tensorRoleName(TensorRole role)
{
    switch (role) {
        case TensorRole::Activation:
            return "activation";
        case TensorRole::Weight:
            return "weight";
        case TensorRole::OutputGrad:
            return "output_grad";
    }
    return "?";
}

namespace {
Rounding g_fp4_grad_rounding = Rounding::Stochastic;
} // namespace

void
setFp4GradRounding(Rounding rounding)
{
    g_fp4_grad_rounding = rounding;
}

Rounding
fp4GradRounding()
{
    return g_fp4_grad_rounding;
}

QuantConfig
rolePolicy(Precision precision, TensorRole role)
{
    QuantConfig cfg;
    switch (precision) {
        case Precision::BF16:
            cfg.format = bf16();
            cfg.scaling = {Granularity::Tensorwise, 0};
            cfg.rounding = Rounding::Nearest;
            return cfg;
        case Precision::FP8:
            cfg.format = (role == TensorRole::OutputGrad) ? fp8E5m2()
                                                          : fp8E4m3();
            break;
        case Precision::FP6:
            cfg.format = fp6E3m2();
            break;
        case Precision::FP4:
            cfg.format = fp4E2m1();
            break;
    }
    if (role == TensorRole::Weight) {
        cfg.scaling = {Granularity::Blockwise, 128};
    } else {
        cfg.scaling = {Granularity::Tilewise, 128};
    }
    cfg.rounding = (precision == Precision::FP4 &&
                    role == TensorRole::OutputGrad)
                       ? g_fp4_grad_rounding
                       : Rounding::Nearest;
    return cfg;
}

FakeQuantizer::FakeQuantizer(uint64_t seed) : rng_(seed) {}

Tensor
FakeQuantizer::quantize(const Tensor &t, const QuantConfig &cfg)
{
    Tensor out = t;
    quantizeInPlace(out, cfg);
    return out;
}

void
FakeQuantizer::quantizeInPlace(Tensor &t, const QuantConfig &cfg)
{
    const simd::KernelTable &kt = simd::activeKernels();
    if (cfg.format.name == "bf16" && cfg.rounding == Rounding::Nearest) {
        // Fast path: bf16 needs no rescaling, so the whole tensor is
        // one tight round-to-nearest-even sweep (exact bit
        // manipulation in every backend).
        float *p = t.data();
        runtime::parallelFor(0, t.numel(), 1 << 15,
                             [p, &kt](int64_t i0, int64_t i1) {
                                 kt.bf16Round(p + i0, i1 - i0);
                             });
        return;
    }
    int64_t rows, cols;
    matrixView(t, rows, cols);
    if (rows == 0 || cols == 0)
        return;
    float *p = t.data();
    const double fmt_max = cfg.format.maxValue();
    const bool stochastic = cfg.rounding == Rounding::Stochastic;
    // The member stream advances exactly once per stochastic call; the
    // draw for each element is then a pure function of (call key, flat
    // element index), so results are bit-identical for any thread count
    // and either kernel backend.
    const uint64_t call_key = stochastic ? rng_.nextU64() : 0;

    const std::vector<ScalingRegion> regions =
        collectRegions(rows, cols, cfg.scaling);
    const QuantGrid grid = quantGrid(cfg.format);
    runtime::parallelFor(
        0, static_cast<int64_t>(regions.size()), 8,
        [&](int64_t g0, int64_t g1) {
            const simd::KernelTable &kt = simd::activeKernels();
            for (int64_t g = g0; g < g1; ++g) {
                const ScalingRegion &reg =
                    regions[static_cast<size_t>(g)];
                double max_abs = 0.0;
                for (int64_t r = reg.r0; r < reg.r1; ++r) {
                    max_abs = std::max(
                        max_abs, static_cast<double>(kt.maxAbs(
                                     p + r * cols + reg.c0,
                                     reg.c1 - reg.c0)));
                }
                const double scale = regionScale(max_abs, fmt_max);
                const float fscale = static_cast<float>(scale);
                const float inv = static_cast<float>(1.0 / scale);
                for (int64_t r = reg.r0; r < reg.r1; ++r) {
                    const int64_t off = r * cols + reg.c0;
                    if (stochastic) {
                        kt.quantizeStochastic(
                            p + off, reg.c1 - reg.c0, cfg.format, grid,
                            fscale, inv, call_key,
                            static_cast<uint64_t>(off));
                    } else {
                        kt.quantizeNearest(p + off, reg.c1 - reg.c0,
                                           cfg.format, grid, fscale, inv);
                    }
                }
            }
        });
}

} // namespace snip
