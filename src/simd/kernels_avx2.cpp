/**
 * @file
 * AVX2+FMA backend.
 *
 * This translation unit is the only one compiled with -mavx2 -mfma
 * (per-file options in CMakeLists.txt), and it is only entered behind
 * the CPUID check in simd/dispatch.cpp, so the binary still runs on
 * baseline x86-64.
 *
 * Kernel contracts (simd/kernels.h):
 *   - GEMM blocks keep the scalar backend's block decomposition and a
 *     fixed per-element accumulation order, so results are
 *     bit-identical across thread counts *within this backend*; FMA
 *     contraction and 8-lane accumulators make low-order bits differ
 *     from the scalar backend (tests bound the relative error).
 *   - The quantize / bf16-round / max-abs kernels reproduce the scalar
 *     codec bit for bit (tests assert exact equality): every step
 *     below is an exact power-of-two scale, an exact bit manipulation,
 *     or the same correctly-rounded float op the scalar path performs.
 */
#include "simd/kernels.h"

#if defined(SNIP_SIMD_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "quant/codec.h"

namespace snip {
namespace simd {

namespace {

// ------------------------------------------------------------- GEMM

float
hsum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 sh = _mm_movehl_ps(lo, lo);
    lo = _mm_add_ps(lo, sh);
    sh = _mm_shuffle_ps(lo, lo, 0x1);
    lo = _mm_add_ss(lo, sh);
    return _mm_cvtss_f32(lo);
}

/** One dot product arow·brow with 8-wide FMA and a scalar tail. */
float
dotAvx2(const float *arow, const float *brow, int64_t k)
{
    const int64_t k8 = k & ~int64_t{7};
    __m256 acc = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k8; kk += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk),
                              _mm256_loadu_ps(brow + kk), acc);
    float sum = hsum8(acc);
    for (int64_t kk = k8; kk < k; ++kk)
        sum += arow[kk] * brow[kk];
    return sum;
}

/**
 * NT register-tiled microkernel: a 2-row x 4-column tile of C is held
 * in eight 8-lane accumulators, so every A load feeds four FMAs and
 * every B load two. Operand panels are contiguous along K already (A
 * row-major M x K, B row-major N x K), so no copy-pack step is needed
 * — the packed layout the microkernel wants is the layout it gets.
 * The tile walk over a block is a pure function of the block bounds,
 * never of the thread count.
 */
void
gemmNtBlockAvx2(const float *a, const float *b, float *c, int64_t i0,
                int64_t i1, int64_t /*m*/, int64_t n, int64_t k)
{
    const int64_t k8 = k & ~int64_t{7};
    for (int64_t j0 = 0; j0 < n; j0 += kGemmBlockN) {
        const int64_t j1 = std::min(j0 + kGemmBlockN, n);
        int64_t i = i0;
        for (; i + 2 <= i1; i += 2) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            float *c0 = c + i * n;
            float *c1 = c0 + n;
            int64_t j = j0;
            for (; j + 4 <= j1; j += 4) {
                const float *b0 = b + j * k;
                const float *b1 = b0 + k;
                const float *b2 = b1 + k;
                const float *b3 = b2 + k;
                __m256 acc00 = _mm256_setzero_ps();
                __m256 acc01 = _mm256_setzero_ps();
                __m256 acc02 = _mm256_setzero_ps();
                __m256 acc03 = _mm256_setzero_ps();
                __m256 acc10 = _mm256_setzero_ps();
                __m256 acc11 = _mm256_setzero_ps();
                __m256 acc12 = _mm256_setzero_ps();
                __m256 acc13 = _mm256_setzero_ps();
                for (int64_t kk = 0; kk < k8; kk += 8) {
                    __m256 va0 = _mm256_loadu_ps(a0 + kk);
                    __m256 va1 = _mm256_loadu_ps(a1 + kk);
                    __m256 vb0 = _mm256_loadu_ps(b0 + kk);
                    __m256 vb1 = _mm256_loadu_ps(b1 + kk);
                    __m256 vb2 = _mm256_loadu_ps(b2 + kk);
                    __m256 vb3 = _mm256_loadu_ps(b3 + kk);
                    acc00 = _mm256_fmadd_ps(va0, vb0, acc00);
                    acc01 = _mm256_fmadd_ps(va0, vb1, acc01);
                    acc02 = _mm256_fmadd_ps(va0, vb2, acc02);
                    acc03 = _mm256_fmadd_ps(va0, vb3, acc03);
                    acc10 = _mm256_fmadd_ps(va1, vb0, acc10);
                    acc11 = _mm256_fmadd_ps(va1, vb1, acc11);
                    acc12 = _mm256_fmadd_ps(va1, vb2, acc12);
                    acc13 = _mm256_fmadd_ps(va1, vb3, acc13);
                }
                float s00 = hsum8(acc00), s01 = hsum8(acc01);
                float s02 = hsum8(acc02), s03 = hsum8(acc03);
                float s10 = hsum8(acc10), s11 = hsum8(acc11);
                float s12 = hsum8(acc12), s13 = hsum8(acc13);
                for (int64_t kk = k8; kk < k; ++kk) {
                    float av0 = a0[kk], av1 = a1[kk];
                    s00 += av0 * b0[kk];
                    s01 += av0 * b1[kk];
                    s02 += av0 * b2[kk];
                    s03 += av0 * b3[kk];
                    s10 += av1 * b0[kk];
                    s11 += av1 * b1[kk];
                    s12 += av1 * b2[kk];
                    s13 += av1 * b3[kk];
                }
                c0[j] += s00;
                c0[j + 1] += s01;
                c0[j + 2] += s02;
                c0[j + 3] += s03;
                c1[j] += s10;
                c1[j + 1] += s11;
                c1[j + 2] += s12;
                c1[j + 3] += s13;
            }
            for (; j < j1; ++j) {
                const float *brow = b + j * k;
                c0[j] += dotAvx2(a0, brow, k);
                c1[j] += dotAvx2(a1, brow, k);
            }
        }
        for (; i < i1; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            for (int64_t j = j0; j < j1; ++j)
                crow[j] += dotAvx2(arow, b + j * k, k);
        }
    }
}

/** Shared NN/TN inner sweep: crow[0..n) += av * brow[0..n). */
inline void
axpyRowAvx2(float av, const float *brow, float *crow, int64_t n)
{
    const __m256 vav = _mm256_set1_ps(av);
    const int64_t n8 = n & ~int64_t{7};
    for (int64_t j = 0; j < n8; j += 8) {
        __m256 cv = _mm256_loadu_ps(crow + j);
        cv = _mm256_fmadd_ps(vav, _mm256_loadu_ps(brow + j), cv);
        _mm256_storeu_ps(crow + j, cv);
    }
    for (int64_t j = n8; j < n; ++j)
        crow[j] += av * brow[j];
}

void
gemmNnBlockAvx2(const float *a, const float *b, float *c, int64_t i0,
                int64_t i1, int64_t /*m*/, int64_t n, int64_t k)
{
    // Same k-blocked structure as the scalar backend; per C element
    // the kk addition order is unchanged (an unrolled pair issues its
    // two FMAs in kk order), so this backend is thread-count-invariant.
    for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
        const int64_t k1 = std::min(k0 + kGemmBlockK, k);
        for (int64_t i = i0; i < i1; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            const int64_t n8 = n & ~int64_t{7};
            int64_t kk = k0;
            for (; kk + 2 <= k1; kk += 2) {
                const __m256 va0 = _mm256_set1_ps(arow[kk]);
                const __m256 va1 = _mm256_set1_ps(arow[kk + 1]);
                const float *b0 = b + kk * n;
                const float *b1 = b0 + n;
                for (int64_t j = 0; j < n8; j += 8) {
                    __m256 cv = _mm256_loadu_ps(crow + j);
                    cv = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0 + j),
                                         cv);
                    cv = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1 + j),
                                         cv);
                    _mm256_storeu_ps(crow + j, cv);
                }
                for (int64_t j = n8; j < n; ++j) {
                    crow[j] += arow[kk] * b0[j];
                    crow[j] += arow[kk + 1] * b1[j];
                }
            }
            for (; kk < k1; ++kk)
                axpyRowAvx2(arow[kk], b + kk * n, crow, n);
        }
    }
}

void
gemmTnBlockAvx2(const float *a, const float *b, float *c, int64_t i0,
                int64_t i1, int64_t m, int64_t n, int64_t k)
{
    for (int64_t k0 = 0; k0 < k; k0 += kGemmBlockK) {
        const int64_t k1 = std::min(k0 + kGemmBlockK, k);
        for (int64_t kk = k0; kk < k1; ++kk) {
            const float *arow = a + kk * m;
            const float *brow = b + kk * n;
            for (int64_t i = i0; i < i1; ++i) {
                float av = arow[i];
                if (av == 0.0f)
                    continue;
                axpyRowAvx2(av, brow, c + i * n, n);
            }
        }
    }
}

// ------------------------------------------------------------ packed

inline __m256 quantize8Avx2(__m256 x, const QuantGrid &g);
inline void transpose8x8(__m256 r0, __m256 r1, __m256 r2, __m256 r3,
                         __m256 r4, __m256 r5, __m256 r6, __m256 r7,
                         __m256 out[8]);

/** Scalar fused quantize for pack tails/gathers (bit-exact with the
 *  vector path by the backend contract). */
inline float
packQuantOneAvx2(float x, const PackQuant *pq, int64_t sr, int64_t sc)
{
    if (pq == nullptr)
        return x;
    const int64_t reg = (sr / pq->row_block) * pq->regions_per_row +
                        sc / pq->col_block;
    return quantizeNearest(x * pq->scale[reg], *pq->fmt) *
           pq->inv_scale[reg];
}

/**
 * Copy (optionally fused-quantizing) a contiguous source row into a
 * packed panel with stride @p stride at lane @p r: for kk in [0, k),
 * dst[kk*stride + r] = q(row[kk]). @p src_row is the source-matrix row
 * of the run (regions advance along the columns only). The 8-wide
 * vector quantize runs per region segment; the strided scatter stays
 * scalar (pack cost is O(MK + NK) against the GEMM's O(MNK)).
 */
inline void
packRowAvx2(const float *row, float *dst, int64_t stride, int64_t r,
            int64_t k, const PackQuant *pq, int64_t src_row)
{
    if (pq == nullptr) {
        for (int64_t kk = 0; kk < k; ++kk)
            dst[kk * stride + r] = row[kk];
        return;
    }
    const QuantGrid &g = *pq->grid;
    const int64_t reg_row =
        (src_row / pq->row_block) * pq->regions_per_row;
    int64_t kk = 0;
    while (kk < k) {
        const int64_t reg = reg_row + kk / pq->col_block;
        const int64_t seg_end =
            std::min(k, (kk / pq->col_block + 1) * pq->col_block);
        const __m256 vs = _mm256_set1_ps(pq->scale[reg]);
        const __m256 vi = _mm256_set1_ps(pq->inv_scale[reg]);
        for (; kk + 8 <= seg_end; kk += 8) {
            __m256 q = _mm256_mul_ps(
                quantize8Avx2(
                    _mm256_mul_ps(_mm256_loadu_ps(row + kk), vs), g),
                vi);
            alignas(32) float t[8];
            _mm256_store_ps(t, q);
            for (int u = 0; u < 8; ++u)
                dst[(kk + u) * stride + r] = t[u];
        }
        for (; kk < seg_end; ++kk)
            dst[kk * stride + r] =
                quantizeNearest(row[kk] * pq->scale[reg], *pq->fmt) *
                pq->inv_scale[reg];
    }
}

void
packAAvx2(const float *src, int64_t ld, bool k_major, float *ap,
          int64_t i0, int64_t i1, int64_t k, const PackQuant *pq)
{
    const int64_t mb = i1 - i0;
    const int64_t strips = packStrips(mb, kGemmPackMR);
    for (int64_t s = 0; s < strips; ++s) {
        float *dst = ap + s * kGemmPackMR * k;
        const int64_t rows = std::min(kGemmPackMR, mb - s * kGemmPackMR);
        if (!k_major && rows == kGemmPackMR) {
            // Full strip: 6 rows x 8 columns per step through the 8x8
            // transpose; out[t] then holds {A[i0..i0+5, kk+t], x, x}
            // and is stored 8 wide at stride 6 — the two garbage
            // lanes land in the next step's (or strip's) territory and
            // are overwritten, except after the very last step, which
            // spills into the PackA headroom the caller guarantees
            // (simd/kernels.h).
            const float *r0 = src + (i0 + s * kGemmPackMR) * ld;
            int64_t reg_of_row[6];
            if (pq != nullptr)
                for (int64_t r = 0; r < 6; ++r)
                    reg_of_row[r] = ((i0 + s * kGemmPackMR + r) /
                                     pq->row_block) *
                                    pq->regions_per_row;
            int64_t kk = 0;
            while (kk < k) {
                const int64_t seg_end =
                    pq == nullptr
                        ? k
                        : std::min(k, (kk / pq->col_block + 1) *
                                          pq->col_block);
                const int64_t vec_end =
                    kk + ((seg_end - kk) & ~int64_t{7});
                for (; kk < vec_end; kk += 8) {
                    __m256 rows8[8], out[8];
                    for (int64_t r = 0; r < 6; ++r) {
                        __m256 v = _mm256_loadu_ps(r0 + r * ld + kk);
                        if (pq != nullptr) {
                            const int64_t reg =
                                reg_of_row[r] + kk / pq->col_block;
                            v = _mm256_mul_ps(
                                quantize8Avx2(
                                    _mm256_mul_ps(
                                        v, _mm256_set1_ps(
                                               pq->scale[reg])),
                                    *pq->grid),
                                _mm256_set1_ps(pq->inv_scale[reg]));
                        }
                        rows8[r] = v;
                    }
                    rows8[6] = _mm256_setzero_ps();
                    rows8[7] = _mm256_setzero_ps();
                    transpose8x8(rows8[0], rows8[1], rows8[2],
                                 rows8[3], rows8[4], rows8[5],
                                 rows8[6], rows8[7], out);
                    for (int64_t t = 0; t < 8; ++t)
                        _mm256_storeu_ps(
                            dst + (kk + t) * kGemmPackMR, out[t]);
                }
                for (; kk < seg_end; ++kk)
                    for (int64_t r = 0; r < 6; ++r)
                        dst[kk * kGemmPackMR + r] = packQuantOneAvx2(
                            r0[r * ld + kk], pq,
                            i0 + s * kGemmPackMR + r, kk);
            }
            continue;
        }
        const int64_t i0s = i0 + s * kGemmPackMR;
        if (k_major && rows == kGemmPackMR && i0s + 8 <= ld &&
            (pq == nullptr ||
             i0s / pq->col_block == (i0s + kGemmPackMR - 1) /
                                        pq->col_block)) {
            // TN gather, full strip: the strip's 6 source columns are
            // contiguous per source row, so each kk is one (8-wide,
            // 6-valid) load + vector quantize + 6-lane masked store.
            // Needs 8 readable floats from the strip start on the last
            // source row, and (when quantizing) one column region
            // across the 6 lanes; rare boundary strips fall through to
            // the scalar path below.
            const __m256i mask6 =
                _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
            if (pq == nullptr) {
                for (int64_t kk = 0; kk < k; ++kk)
                    _mm256_maskstore_ps(
                        dst + kk * kGemmPackMR, mask6,
                        _mm256_loadu_ps(src + kk * ld + i0s));
            } else {
                const QuantGrid &g = *pq->grid;
                const int64_t reg_col = i0s / pq->col_block;
                for (int64_t kk = 0; kk < k; ++kk) {
                    const int64_t reg =
                        (kk / pq->row_block) * pq->regions_per_row +
                        reg_col;
                    __m256 v = _mm256_mul_ps(
                        _mm256_loadu_ps(src + kk * ld + i0s),
                        _mm256_set1_ps(pq->scale[reg]));
                    v = _mm256_mul_ps(
                        quantize8Avx2(v, g),
                        _mm256_set1_ps(pq->inv_scale[reg]));
                    _mm256_maskstore_ps(dst + kk * kGemmPackMR, mask6,
                                        v);
                }
            }
            continue;
        }
        for (int64_t r = 0; r < kGemmPackMR; ++r) {
            if (r >= rows) {
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = 0.0f;
                continue;
            }
            const int64_t i = i0 + s * kGemmPackMR + r;
            if (k_major) {
                // TN gather: stride-ld walk, scalar fused quantize.
                for (int64_t kk = 0; kk < k; ++kk)
                    dst[kk * kGemmPackMR + r] = packQuantOneAvx2(
                        src[kk * ld + i], pq, kk, i);
            } else {
                packRowAvx2(src + i * ld, dst, kGemmPackMR, r, k, pq,
                            i);
            }
        }
    }
}

/**
 * 8x8 in-register transpose: out[t] holds lane t of each input row.
 */
inline void
transpose8x8(__m256 r0, __m256 r1, __m256 r2, __m256 r3, __m256 r4,
             __m256 r5, __m256 r6, __m256 r7, __m256 out[8])
{
    __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
    __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
    __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
    __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
    __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
    __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    out[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
    out[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
    out[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
    out[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
    out[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
    out[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
    out[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
    out[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/**
 * Vectorized NT-orientation B pack of one full 8-row half-strip over
 * one k run that stays inside a single column region per row: loads 8
 * source rows 8 columns at a time, quantizes each row vector with its
 * own scale, transposes, and stores 8 contiguous lanes per kk at
 * dst[kk*16 + half]. Requires k0 and k_end both multiples of 8 away
 * from each other... handled by the caller (tail goes scalar).
 */
inline void
packHalfStripTransposed(const float *src, int64_t ld, float *dst,
                        int64_t half, int64_t k0, int64_t k_end,
                        const PackQuant *pq, const int64_t *reg_of_row,
                        int64_t reg_col)
{
    __m256 out[8];
    for (int64_t kk = k0; kk + 8 <= k_end; kk += 8) {
        __m256 rows[8];
        for (int r = 0; r < 8; ++r) {
            __m256 v = _mm256_loadu_ps(src + r * ld + kk);
            if (pq != nullptr) {
                const int64_t reg = reg_of_row[r] + reg_col;
                v = _mm256_mul_ps(
                    quantize8Avx2(
                        _mm256_mul_ps(
                            v, _mm256_set1_ps(pq->scale[reg])),
                        *pq->grid),
                    _mm256_set1_ps(pq->inv_scale[reg]));
            }
            rows[r] = v;
        }
        transpose8x8(rows[0], rows[1], rows[2], rows[3], rows[4],
                     rows[5], rows[6], rows[7], out);
        for (int t = 0; t < 8; ++t)
            _mm256_storeu_ps(dst + (kk + t) * kGemmPackNR + half,
                             out[t]);
    }
}

void
packBAvx2(const float *src, int64_t ld, bool k_major, float *bp,
          int64_t j0, int64_t j1, int64_t n, int64_t k,
          const PackQuant *pq)
{
    for (int64_t s0 = j0; s0 < j1; s0 += kGemmPackNR) {
        float *dst = bp + (s0 / kGemmPackNR) * kGemmPackNR * k;
        const int64_t cols = std::min(kGemmPackNR, n - s0);
        if (k_major) {
            // Source rows run along j: 16 contiguous floats per kk.
            const bool full = cols == kGemmPackNR;
            const bool one_region =
                pq == nullptr ||
                s0 / pq->col_block ==
                    (s0 + cols - 1) / pq->col_block;
            for (int64_t kk = 0; kk < k; ++kk) {
                const float *in = src + kk * ld + s0;
                float *out = dst + kk * kGemmPackNR;
                if (full && one_region && pq != nullptr) {
                    const int64_t reg =
                        (kk / pq->row_block) * pq->regions_per_row +
                        s0 / pq->col_block;
                    const __m256 vs = _mm256_set1_ps(pq->scale[reg]);
                    const __m256 vi =
                        _mm256_set1_ps(pq->inv_scale[reg]);
                    const QuantGrid &g = *pq->grid;
                    _mm256_storeu_ps(
                        out, _mm256_mul_ps(
                                 quantize8Avx2(
                                     _mm256_mul_ps(
                                         _mm256_loadu_ps(in), vs),
                                     g),
                                 vi));
                    _mm256_storeu_ps(
                        out + 8,
                        _mm256_mul_ps(
                            quantize8Avx2(
                                _mm256_mul_ps(
                                    _mm256_loadu_ps(in + 8), vs),
                                g),
                            vi));
                } else if (full && pq == nullptr) {
                    _mm256_storeu_ps(out, _mm256_loadu_ps(in));
                    _mm256_storeu_ps(out + 8, _mm256_loadu_ps(in + 8));
                } else {
                    int64_t r = 0;
                    for (; r < cols; ++r)
                        out[r] = packQuantOneAvx2(in[r], pq, kk,
                                                  s0 + r);
                    for (; r < kGemmPackNR; ++r)
                        out[r] = 0.0f;
                }
            }
        } else if (cols == kGemmPackNR) {
            // NT orientation, full strip: 8x8 transpose blocks keep
            // both the loads and the stores vectorized.
            for (int64_t half = 0; half < 2; ++half) {
                const float *hsrc = src + (s0 + half * 8) * ld;
                if (pq == nullptr) {
                    const int64_t k8 = k & ~int64_t{7};
                    packHalfStripTransposed(hsrc, ld, dst, half * 8, 0,
                                            k8, nullptr, nullptr, 0);
                    for (int64_t kk = k8; kk < k; ++kk)
                        for (int64_t r = 0; r < 8; ++r)
                            dst[kk * kGemmPackNR + half * 8 + r] =
                                hsrc[r * ld + kk];
                    continue;
                }
                int64_t reg_of_row[8];
                for (int64_t r = 0; r < 8; ++r)
                    reg_of_row[r] = ((s0 + half * 8 + r) /
                                     pq->row_block) *
                                    pq->regions_per_row;
                int64_t kk = 0;
                while (kk < k) {
                    const int64_t seg_end = std::min(
                        k, (kk / pq->col_block + 1) * pq->col_block);
                    const int64_t vec_end =
                        kk + ((seg_end - kk) & ~int64_t{7});
                    packHalfStripTransposed(hsrc, ld, dst, half * 8,
                                            kk, vec_end, pq,
                                            reg_of_row,
                                            kk / pq->col_block);
                    for (int64_t t = vec_end; t < seg_end; ++t)
                        for (int64_t r = 0; r < 8; ++r)
                            dst[t * kGemmPackNR + half * 8 + r] =
                                packQuantOneAvx2(hsrc[r * ld + t], pq,
                                                 s0 + half * 8 + r, t);
                    kk = seg_end;
                }
            }
        } else {
            // NT orientation, ragged strip: per-row pack.
            for (int64_t r = 0; r < kGemmPackNR; ++r) {
                if (r >= cols) {
                    for (int64_t kk = 0; kk < k; ++kk)
                        dst[kk * kGemmPackNR + r] = 0.0f;
                    continue;
                }
                const int64_t j = s0 + r;
                packRowAvx2(src + j * ld, dst, kGemmPackNR, r, k, pq,
                            j);
            }
        }
    }
}

/**
 * 6 x 16 register-tiled packed microkernel: twelve 8-lane accumulators
 * hold the C tile; each k step issues two B loads, six A broadcasts
 * and twelve FMAs. Lanes map one-to-one onto C columns, so every C
 * element accumulates its k-products in ascending-k order — the
 * packed path's fixed accumulation order (no cross-lane reduction at
 * all, unlike the unpacked NT kernel's hsum).
 */
inline void
microKernel6x16(const float *as, const float *bs, float *c, int64_t ldc,
                int64_t mr, int64_t jn, int64_t k)
{
    __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
    __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
    __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
    __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
    __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
    __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
    for (int64_t kk = 0; kk < k; ++kk) {
        // Pull the B strip (and A strip) a few iterations ahead: the
        // panels stream from L2/L3 at large k and the FMA chain hides
        // no miss latency on its own.
        _mm_prefetch(reinterpret_cast<const char *>(bs + (kk + 24) * 16),
                     _MM_HINT_T0);
        _mm_prefetch(reinterpret_cast<const char *>(as + (kk + 16) * 6),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(bs + kk * 16);
        const __m256 b1 = _mm256_loadu_ps(bs + kk * 16 + 8);
        const float *a = as + kk * 6;
        __m256 va = _mm256_broadcast_ss(a + 0);
        c00 = _mm256_fmadd_ps(va, b0, c00);
        c01 = _mm256_fmadd_ps(va, b1, c01);
        va = _mm256_broadcast_ss(a + 1);
        c10 = _mm256_fmadd_ps(va, b0, c10);
        c11 = _mm256_fmadd_ps(va, b1, c11);
        va = _mm256_broadcast_ss(a + 2);
        c20 = _mm256_fmadd_ps(va, b0, c20);
        c21 = _mm256_fmadd_ps(va, b1, c21);
        va = _mm256_broadcast_ss(a + 3);
        c30 = _mm256_fmadd_ps(va, b0, c30);
        c31 = _mm256_fmadd_ps(va, b1, c31);
        va = _mm256_broadcast_ss(a + 4);
        c40 = _mm256_fmadd_ps(va, b0, c40);
        c41 = _mm256_fmadd_ps(va, b1, c41);
        va = _mm256_broadcast_ss(a + 5);
        c50 = _mm256_fmadd_ps(va, b0, c50);
        c51 = _mm256_fmadd_ps(va, b1, c51);
    }
    const __m256 *acc[6][2] = {{&c00, &c01}, {&c10, &c11},
                               {&c20, &c21}, {&c30, &c31},
                               {&c40, &c41}, {&c50, &c51}};
    if (jn == 16) {
        for (int64_t r = 0; r < mr; ++r) {
            float *crow = c + r * ldc;
            _mm256_storeu_ps(
                crow, _mm256_add_ps(_mm256_loadu_ps(crow), *acc[r][0]));
            _mm256_storeu_ps(crow + 8,
                             _mm256_add_ps(_mm256_loadu_ps(crow + 8),
                                           *acc[r][1]));
        }
        return;
    }
    alignas(32) float t[16];
    for (int64_t r = 0; r < mr; ++r) {
        _mm256_store_ps(t, *acc[r][0]);
        _mm256_store_ps(t + 8, *acc[r][1]);
        float *crow = c + r * ldc;
        for (int64_t j = 0; j < jn; ++j)
            crow[j] += t[j];
    }
}

void
gemmPackedBlockAvx2(const float *ap, const float *bp, float *c,
                    int64_t ldc, int64_t mb, int64_t n, int64_t k)
{
    const int64_t m_strips = packStrips(mb, kGemmPackMR);
    const int64_t n_strips = packStrips(n, kGemmPackNR);
    for (int64_t js = 0; js < n_strips; ++js) {
        const float *bs = bp + js * kGemmPackNR * k;
        const int64_t j0 = js * kGemmPackNR;
        const int64_t jn = std::min(kGemmPackNR, n - j0);
        for (int64_t ms = 0; ms < m_strips; ++ms) {
            const int64_t i0 = ms * kGemmPackMR;
            microKernel6x16(ap + ms * kGemmPackMR * k, bs,
                            c + i0 * ldc + j0, ldc,
                            std::min(kGemmPackMR, mb - i0), jn, k);
        }
    }
}

// --------------------------------------------------- quantize / misc

/**
 * Eight-lane grid snap (see QuantGrid in quant/codec.h for why each
 * step is exact). @p round_index maps the grid index q — the
 * mantissa-retagged |x| in the normal range, |x| / min_subnormal via
 * two power-of-two scales below it — to the chosen integer neighbour.
 * Handling of the scalar codec's special cases, in blend order:
 * generic result → NaN forced to -max (the scalar "x > 0 ? +max :
 * -max" on non-finites sends NaN negative regardless of its sign bit)
 * → ±0 preserved as +0. ±Inf needs no own blend: its binade scales the
 * normal-path result to +Inf, the min() clamp brings it to max_value,
 * and the sign bit is restored by OR.
 */
template <typename RoundIndex>
inline __m256
gridSnap8(__m256 x, const QuantGrid &g, RoundIndex round_index)
{
    const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
    const __m256i mant_mask = _mm256_set1_epi32(0x007FFFFF);
    const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
    const __m256i retag_exp =
        _mm256_set1_epi32((127 + g.mantissa_bits) << 23);

    __m256 ax = _mm256_and_ps(x, _mm256_castsi256_ps(abs_mask));
    __m256 sign = _mm256_andnot_ps(_mm256_castsi256_ps(abs_mask), x);
    __m256i bits = _mm256_castps_si256(ax);

    __m256 q_norm = _mm256_castsi256_ps(_mm256_or_si256(
        _mm256_and_si256(bits, mant_mask), retag_exp));
    __m256 q_sub = _mm256_mul_ps(
        _mm256_mul_ps(ax, _mm256_set1_ps(g.inv_min_sub_hi)),
        _mm256_set1_ps(g.inv_min_sub_lo));
    __m256 is_sub =
        _mm256_cmp_ps(ax, _mm256_set1_ps(g.min_normal), _CMP_LT_OQ);
    __m256 r = round_index(_mm256_blendv_ps(q_norm, q_sub, is_sub));

    __m256 binade = _mm256_castsi256_ps(_mm256_and_si256(bits, exp_mask));
    __m256 res_norm = _mm256_mul_ps(
        _mm256_mul_ps(r, _mm256_set1_ps(g.two_pow_neg_mant)), binade);
    __m256 res_sub = _mm256_mul_ps(r, _mm256_set1_ps(g.min_subnormal));
    __m256 res = _mm256_blendv_ps(res_norm, res_sub, is_sub);
    // Saturation: values at or above max_value (and +Inf, and the
    // rare round-up past the top grid point) all clamp here.
    res = _mm256_min_ps(res, _mm256_set1_ps(g.max_value));
    __m256 out = _mm256_or_ps(res, sign);

    __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    out = _mm256_blendv_ps(out, _mm256_set1_ps(-g.max_value), nan_mask);
    __m256 zero_mask =
        _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_EQ_OQ);
    return _mm256_blendv_ps(out, _mm256_setzero_ps(), zero_mask);
}

/** Nearest-even grid snap, bit-exact against quantizeNearest(). */
inline __m256
quantize8Avx2(__m256 x, const QuantGrid &g)
{
    return gridSnap8(x, g, [](__m256 q) {
        return _mm256_round_ps(q,
                               _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    });
}

void
quantizeNearestAvx2(float *p, int64_t count, const FloatFormat &fmt,
                    const QuantGrid &g, float scale, float inv_scale)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 x = _mm256_mul_ps(_mm256_loadu_ps(p + i), vscale);
        _mm256_storeu_ps(p + i,
                         _mm256_mul_ps(quantize8Avx2(x, g), vinv));
    }
    // Scalar codec on the tail: trivially bit-exact.
    for (int64_t i = n8; i < count; ++i)
        p[i] = quantizeNearest(p[i] * scale, fmt) * inv_scale;
}

/** Eight lanes of MurmurHash3's fmix32 (srDraw24's mixing round). */
inline __m256i
fmix32x8(__m256i h)
{
    h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
    h = _mm256_mullo_epi32(h,
                           _mm256_set1_epi32(static_cast<int>(0x85EBCA6Bu)));
    h = _mm256_xor_si256(h, _mm256_srli_epi32(h, 13));
    h = _mm256_mullo_epi32(h,
                           _mm256_set1_epi32(static_cast<int>(0xC2B2AE35u)));
    return _mm256_xor_si256(h, _mm256_srli_epi32(h, 16));
}

void
quantizeStochasticAvx2(float *p, int64_t count, const FloatFormat &fmt,
                       const QuantGrid &g, float scale, float inv_scale,
                       uint64_t key, uint64_t index0)
{
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 draw_unit = _mm256_set1_ps(0x1p-24f);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i eight = _mm256_set1_epi32(8);
    int64_t i = 0;
    while (i < count) {
        // One stream per run of indices sharing their high 32 bits, so
        // the lanes only ever carry the low index half.
        const uint64_t idx = index0 + static_cast<uint64_t>(i);
        const SrStream s = srStream(key, static_cast<uint32_t>(idx >> 32));
        const uint32_t lo0 = static_cast<uint32_t>(idx);
        const int64_t end =
            std::min(count, i + ((int64_t{1} << 32) - int64_t{lo0}));
        const __m256i s0 = _mm256_set1_epi32(static_cast<int>(s.s0));
        const __m256i s1 = _mm256_set1_epi32(static_cast<int>(s.s1));
        __m256i index_lo =
            _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(lo0)), lane);
        for (; i + 8 <= end; i += 8) {
            const __m256i h = fmix32x8(_mm256_add_epi32(
                fmix32x8(_mm256_xor_si256(index_lo, s0)), s1));
            const __m256 u = _mm256_mul_ps(
                _mm256_cvtepi32_ps(_mm256_srli_epi32(h, 8)), draw_unit);
            const __m256 x = _mm256_mul_ps(_mm256_loadu_ps(p + i), vscale);
            const __m256 y = gridSnap8(x, g, [&](__m256 q) {
                const __m256 lo = _mm256_round_ps(
                    q, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
                const __m256 up =
                    _mm256_cmp_ps(u, _mm256_sub_ps(q, lo), _CMP_LT_OQ);
                return _mm256_add_ps(lo, _mm256_and_ps(up, one));
            });
            _mm256_storeu_ps(p + i, _mm256_mul_ps(y, vinv));
            index_lo = _mm256_add_epi32(index_lo, eight);
        }
        // Scalar codec on the segment's tail: trivially bit-exact.
        for (; i < end; ++i) {
            const uint32_t lo = static_cast<uint32_t>(
                index0 + static_cast<uint64_t>(i));
            p[i] = quantizeStochastic(p[i] * scale, fmt, srDraw24(s, lo)) *
                   inv_scale;
        }
    }
}

void
bf16RoundAvx2(float *p, int64_t count)
{
    // Same integer arithmetic as the scalar kernel, eight at a time.
    const __m256i bias = _mm256_set1_epi32(0x7FFF);
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i mask = _mm256_set1_epi32(
        static_cast<int>(0xFFFF0000u));
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256i u = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i));
        __m256i lsb =
            _mm256_and_si256(_mm256_srli_epi32(u, 16), one);
        u = _mm256_add_epi32(u, _mm256_add_epi32(bias, lsb));
        u = _mm256_and_si256(u, mask);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p + i), u);
    }
    for (int64_t i = n8; i < count; ++i) {
        uint32_t u;
        std::memcpy(&u, &p[i], sizeof(u));
        u += 0x7FFFu + ((u >> 16) & 1u);
        u &= 0xFFFF0000u;
        std::memcpy(&p[i], &u, sizeof(u));
    }
}

float
maxAbsAvx2(const float *p, int64_t count)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    __m256 acc = _mm256_setzero_ps();
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 ax = _mm256_and_ps(_mm256_loadu_ps(p + i), abs_mask);
        // maxps returns the second operand on unordered, so putting
        // the accumulator second ignores NaN inputs like std::max.
        acc = _mm256_max_ps(ax, acc);
    }
    __m128 lo = _mm_max_ps(_mm256_castps256_ps128(acc),
                           _mm256_extractf128_ps(acc, 1));
    lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
    lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 0x1));
    float max_abs = _mm_cvtss_f32(lo);
    for (int64_t i = n8; i < count; ++i)
        max_abs = std::max(max_abs, std::fabs(p[i]));
    return max_abs;
}

void
errorStatsAvx2(const float *ref, const float *q, int64_t count,
               double *sum_sq, double *max_err)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d vmax = _mm256_setzero_pd();
    const __m256d abs_mask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 vr = _mm256_loadu_ps(ref + i);
        __m256 vq = _mm256_loadu_ps(q + i);
        __m256d d0 = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(vq)),
            _mm256_cvtps_pd(_mm256_castps256_ps128(vr)));
        __m256d d1 =
            _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(vq, 1)),
                          _mm256_cvtps_pd(_mm256_extractf128_ps(vr, 1)));
        acc0 = _mm256_fmadd_pd(d0, d0, acc0);
        acc1 = _mm256_fmadd_pd(d1, d1, acc1);
        vmax = _mm256_max_pd(_mm256_and_pd(d0, abs_mask), vmax);
        vmax = _mm256_max_pd(_mm256_and_pd(d1, abs_mask), vmax);
    }
    __m256d acc = _mm256_add_pd(acc0, acc1);
    __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                           _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(s) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    __m128d m = _mm_max_pd(_mm256_castpd256_pd128(vmax),
                           _mm256_extractf128_pd(vmax, 1));
    double max_e = std::max(_mm_cvtsd_f64(m),
                            _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
    for (int64_t i = n8; i < count; ++i) {
        double d = static_cast<double>(q[i]) - ref[i];
        sum += d * d;
        max_e = std::max(max_e, std::fabs(d));
    }
    *sum_sq = sum;
    *max_err = max_e;
}

void
attnSoftmaxFwdAvx2(float *prob, int64_t seq, float scale)
{
    // Bit-exact with the scalar kernel: the scale multiply and the
    // normalize multiply are per-element IEEE ops (vectorizable as
    // is), the max is a selection over the same value set (maxps with
    // the accumulator second ignores NaN like std::max, and a ±0
    // pick cannot change exp(x - maxv)), while exp() and the double
    // row-sum keep the scalar accumulation order.
    const __m256 vscale = _mm256_set1_ps(scale);
    for (int64_t i = 0; i < seq; ++i) {
        float *row = prob + i * seq;
        const int64_t len = i + 1;
        const int64_t len8 = len & ~int64_t{7};
        float maxv = -1e30f;
        if (len8 > 0) {
            __m256 vmax = _mm256_set1_ps(-1e30f);
            for (int64_t j = 0; j < len8; j += 8) {
                __m256 v = _mm256_mul_ps(_mm256_loadu_ps(row + j),
                                         vscale);
                _mm256_storeu_ps(row + j, v);
                vmax = _mm256_max_ps(v, vmax);
            }
            __m128 lo = _mm_max_ps(_mm256_castps256_ps128(vmax),
                                   _mm256_extractf128_ps(vmax, 1));
            lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
            lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 0x1));
            maxv = _mm_cvtss_f32(lo);
        }
        for (int64_t j = len8; j < len; ++j) {
            row[j] *= scale;
            maxv = std::max(maxv, row[j]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j < len; ++j) {
            row[j] = std::exp(row[j] - maxv);
            denom += row[j];
        }
        const float inv = static_cast<float>(1.0 / std::max(denom, 1e-30));
        const __m256 vinv = _mm256_set1_ps(inv);
        for (int64_t j = 0; j < len8; j += 8)
            _mm256_storeu_ps(
                row + j,
                _mm256_mul_ps(_mm256_loadu_ps(row + j), vinv));
        for (int64_t j = len8; j < len; ++j)
            row[j] *= inv;
        if (len < seq)
            std::memset(row + len, 0,
                        sizeof(float) * static_cast<size_t>(seq - len));
    }
}

void
attnSoftmaxBwdAvx2(const float *prob, const float *dp, float *ds,
                   int64_t seq, float scale)
{
    // dot stays a scalar double reduction; the elementwise
    // prob * (dp - dot) * scale keeps the scalar association per lane,
    // so results are bit-exact with the scalar kernel. Loads of a row
    // complete before its stores, so ds may alias dp.
    const __m256 vscale = _mm256_set1_ps(scale);
    for (int64_t i = 0; i < seq; ++i) {
        const float *prow = prob + i * seq;
        const float *dprow = dp + i * seq;
        float *dsrow = ds + i * seq;
        const int64_t len = i + 1;
        const int64_t len8 = len & ~int64_t{7};
        double dot = 0.0;
        for (int64_t j = 0; j < len; ++j)
            dot += static_cast<double>(dprow[j]) * prow[j];
        const float dotf = static_cast<float>(dot);
        const __m256 vdot = _mm256_set1_ps(dotf);
        for (int64_t j = 0; j < len8; j += 8) {
            __m256 d = _mm256_sub_ps(_mm256_loadu_ps(dprow + j), vdot);
            __m256 r = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_loadu_ps(prow + j), d), vscale);
            _mm256_storeu_ps(dsrow + j, r);
        }
        for (int64_t j = len8; j < len; ++j)
            dsrow[j] = prow[j] * (dprow[j] - dotf) * scale;
        if (len < seq)
            std::memset(dsrow + len, 0,
                        sizeof(float) * static_cast<size_t>(seq - len));
    }
}

double
sumSquaresAvx2(const float *p, int64_t count)
{
    // Two 4-wide double accumulators mirror errorStatsAvx2: each float
    // is widened to double before squaring, so only the lane-order of
    // the final additions differs from the scalar backend.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const int64_t n8 = count & ~int64_t{7};
    for (int64_t i = 0; i < n8; i += 8) {
        __m256 v = _mm256_loadu_ps(p + i);
        __m256d d0 = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
        __m256d d1 = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
        acc0 = _mm256_fmadd_pd(d0, d0, acc0);
        acc1 = _mm256_fmadd_pd(d1, d1, acc1);
    }
    __m256d acc = _mm256_add_pd(acc0, acc1);
    __m128d s = _mm_add_pd(_mm256_castpd256_pd128(acc),
                           _mm256_extractf128_pd(acc, 1));
    double sum = _mm_cvtsd_f64(s) +
                 _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
    for (int64_t i = n8; i < count; ++i)
        sum += static_cast<double>(p[i]) * p[i];
    return sum;
}

} // namespace

const KernelTable &
avx2Kernels()
{
    static const KernelTable table = {
        "avx2",          gemmNtBlockAvx2, gemmNnBlockAvx2,
        gemmTnBlockAvx2, packAAvx2,       packBAvx2,
        gemmPackedBlockAvx2,
        quantizeNearestAvx2,
        quantizeStochasticAvx2,
        bf16RoundAvx2,   maxAbsAvx2,      errorStatsAvx2,
        sumSquaresAvx2,
        attnSoftmaxFwdAvx2,
        attnSoftmaxBwdAvx2,
    };
    return table;
}

bool
avx2Compiled()
{
    return true;
}

} // namespace simd
} // namespace snip

#else // !SNIP_SIMD_HAVE_AVX2

namespace snip {
namespace simd {

const KernelTable &
avx2Kernels()
{
    // Never selected: dispatch treats AVX2 as unavailable in builds
    // without the backend. Returning the scalar table keeps the
    // symbol defined without an #ifdef in every caller.
    return scalarKernels();
}

bool
avx2Compiled()
{
    return false;
}

} // namespace simd
} // namespace snip

#endif // SNIP_SIMD_HAVE_AVX2
