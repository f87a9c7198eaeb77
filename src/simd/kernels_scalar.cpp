/**
 * @file
 * Portable scalar backend: the plain C++ kernels every build compiles.
 *
 * These are the reference implementations — the GEMM blocks are the
 * cache-blocked loops the library shipped before runtime dispatch
 * existed, and the quantize sweeps call the scalar codec directly.
 * tests/test_simd.cpp holds the AVX2 backend to these outputs.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "quant/codec.h"
#include "simd/kernels.h"

namespace snip {
namespace simd {

namespace {

void
gemmNtBlockScalar(const float *a, const float *b, float *c, int64_t i0,
                  int64_t i1, int64_t /*m*/, int64_t n, int64_t k)
{
    // Each C element is one dot product; the N-blocked loop order is
    // fixed, so any thread count reproduces the same bits.
    for (int64_t j0 = 0; j0 < n; j0 += kGemmBlockN) {
        int64_t j1 = std::min(j0 + kGemmBlockN, n);
        for (int64_t i = i0; i < i1; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            for (int64_t j = j0; j < j1; ++j) {
                const float *brow = b + j * k;
                float acc = 0.0f;
                for (int64_t kk = 0; kk < k; ++kk)
                    acc += arow[kk] * brow[kk];
                crow[j] += acc;
            }
        }
    }
}

void
gemmNnBlockScalar(const float *a, const float *b, float *c, int64_t i0,
                  int64_t i1, int64_t /*m*/, int64_t n, int64_t k)
{
    for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
        int64_t k1 = std::min(k0 + kGemmBlockK, k);
        for (int64_t i = i0; i < i1; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            for (int64_t kk = k0; kk < k1; ++kk) {
                float av = arow[kk];
                const float *brow = b + kk * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    }
}

void
gemmTnBlockScalar(const float *a, const float *b, float *c, int64_t i0,
                  int64_t i1, int64_t m, int64_t n, int64_t k)
{
    // C[i,j] += sum_kk A[kk,i] * B[kk,j]; kk stays the outer loop so A
    // and B are read row-wise. Per C row the kk order is fixed.
    for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
        int64_t k1 = std::min(k0 + kGemmBlockK, k);
        for (int64_t kk = k0; kk < k1; ++kk) {
            const float *arow = a + kk * m;
            const float *brow = b + kk * n;
            for (int64_t i = i0; i < i1; ++i) {
                float av = arow[i];
                if (av == 0.0f)
                    continue;
                float *crow = c + i * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    }
}

// ------------------------------------------------------------ packing

/** Quantize one value during a pack; identity when @p pq is null.
 *  (sr, sc) are SOURCE-matrix coordinates for the region lookup. */
inline float
packQuantOne(float x, const PackQuant *pq, int64_t sr, int64_t sc)
{
    if (pq == nullptr)
        return x;
    const int64_t reg = (sr / pq->row_block) * pq->regions_per_row +
                        sc / pq->col_block;
    return quantizeNearest(x * pq->scale[reg], *pq->fmt) *
           pq->inv_scale[reg];
}

void
packAScalar(const float *src, int64_t ld, bool k_major, float *ap,
            int64_t i0, int64_t i1, int64_t k, const PackQuant *pq)
{
    const int64_t mb = i1 - i0;
    const int64_t strips = packStrips(mb, kGemmPackMR);
    for (int64_t s = 0; s < strips; ++s) {
        float *dst = ap + s * kGemmPackMR * k;
        const int64_t rows = std::min(kGemmPackMR, mb - s * kGemmPackMR);
        for (int64_t r = 0; r < kGemmPackMR; ++r) {
            if (r >= rows) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = 0.0f;
                continue;
            }
            const int64_t i = i0 + s * kGemmPackMR + r;
            if (k_major) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] =
                        packQuantOne(src[kk * ld + i], pq, kk, i);
            } else {
                const float *row = src + i * ld;
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] =
                        packQuantOne(row[kk], pq, i, kk);
            }
        }
    }
}

void
packBScalar(const float *src, int64_t ld, bool k_major, float *bp,
            int64_t j0, int64_t j1, int64_t n, int64_t k,
            const PackQuant *pq)
{
    for (int64_t s0 = j0; s0 < j1; s0 += kGemmPackNR) {
        float *dst = bp + (s0 / kGemmPackNR) * kGemmPackNR * k;
        const int64_t cols = std::min(kGemmPackNR, n - s0);
        for (int64_t r = 0; r < kGemmPackNR; ++r) {
            if (r >= cols) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] = 0.0f;
                continue;
            }
            const int64_t j = s0 + r;
            if (k_major) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] =
                        packQuantOne(src[kk * ld + j], pq, kk, j);
            } else {
                const float *row = src + j * ld;
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackNR + r] =
                        packQuantOne(row[kk], pq, j, kk);
            }
        }
    }
}

void
gemmPackedBlockScalar(const float *ap, const float *bp, float *c,
                      int64_t ldc, int64_t mb, int64_t n, int64_t k)
{
    const int64_t m_strips = packStrips(mb, kGemmPackMR);
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        for (int64_t ms = 0; ms < m_strips; ++ms) {
            const float *as = ap + ms * kGemmPackMR * k;
            const int64_t i0 = ms * kGemmPackMR;
            const int64_t mr = std::min(kGemmPackMR, mb - i0);
            // Per C element the sum runs over k ascending — the fixed
            // accumulation order of the packed-path contract.
            float acc[kGemmPackMR][kGemmPackNR] = {};
            for (int64_t kk = 0; kk < k; ++kk) {
                const float *av = as + kk * kGemmPackMR;
                const float *bv = bs + kk * kGemmPackNR;
                for (int64_t r = 0; r < kGemmPackMR; ++r) {
                    const float a = av[r];
                    for (int64_t j = 0; j < kGemmPackNR; ++j)
                        acc[r][j] += a * bv[j];
                }
            }
            for (int64_t r = 0; r < mr; ++r) {
                float *crow = c + (i0 + r) * ldc + j0;
                for (int64_t j = 0; j < jn; ++j)
                    crow[j] += acc[r][j];
            }
        }
    }
}

void
quantizeNearestScalar(float *p, int64_t count, const FloatFormat &fmt,
                      const QuantGrid & /*grid*/, float scale,
                      float inv_scale)
{
    for (int64_t i = 0; i < count; ++i)
        p[i] = quantizeNearest(p[i] * scale, fmt) * inv_scale;
}

void
quantizeStochasticScalar(float *p, int64_t count, const FloatFormat &fmt,
                         const QuantGrid & /*grid*/, float scale,
                         float inv_scale, uint64_t key, uint64_t index0)
{
    for (int64_t i = 0; i < count; ++i)
        p[i] = quantizeStochastic(
                   p[i] * scale, fmt,
                   srDraw24(key, index0 + static_cast<uint64_t>(i))) *
               inv_scale;
}

void
bf16RoundScalar(float *p, int64_t count)
{
    for (int64_t i = 0; i < count; ++i) {
        uint32_t u;
        std::memcpy(&u, &p[i], sizeof(u));
        u += 0x7FFFu + ((u >> 16) & 1u);
        u &= 0xFFFF0000u;
        std::memcpy(&p[i], &u, sizeof(u));
    }
}

float
maxAbsScalar(const float *p, int64_t count)
{
    float max_abs = 0.0f;
    for (int64_t i = 0; i < count; ++i)
        max_abs = std::max(max_abs, std::fabs(p[i]));
    return max_abs;
}

void
errorStatsScalar(const float *ref, const float *q, int64_t count,
                 double *sum_sq, double *max_err)
{
    double acc = 0.0;
    double max_e = 0.0;
    for (int64_t i = 0; i < count; ++i) {
        double d = static_cast<double>(q[i]) - ref[i];
        acc += d * d;
        max_e = std::max(max_e, std::fabs(d));
    }
    *sum_sq = acc;
    *max_err = max_e;
}

double
sumSquaresScalar(const float *p, int64_t count)
{
    double acc = 0.0;
    for (int64_t i = 0; i < count; ++i)
        acc += static_cast<double>(p[i]) * p[i];
    return acc;
}

void
attnSoftmaxFwdScalar(float *prob, int64_t seq, float scale)
{
    // The reference semantics every backend must reproduce bit for
    // bit: scale + running max over the causal prefix, scalar exp,
    // double row-sum, float normalize, exact zeros above the diagonal.
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
attnSoftmaxBwdScalar(const float *prob, const float *dp, float *ds,
                     int64_t seq, float scale)
{
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        double dot = 0.0;
        for (int64_t j = 0; j <= i; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        for (int64_t j = 0; j < seq; ++j) {
            dsrow[j] =
                j <= i
                    ? prow[j] * (dprow[j] - static_cast<float>(dot)) *
                          scale
                    : 0.0f;
        }
    }
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        "scalar",          gemmNtBlockScalar, gemmNnBlockScalar,
        gemmTnBlockScalar, packAScalar,       packBScalar,
        gemmPackedBlockScalar,
        quantizeNearestScalar,
        quantizeStochasticScalar,
        bf16RoundScalar,   maxAbsScalar,      errorStatsScalar,
        sumSquaresScalar,
        attnSoftmaxFwdScalar,
        attnSoftmaxBwdScalar,
    };
    return table;
}

} // namespace simd
} // namespace snip
