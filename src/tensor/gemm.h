/**
 * @file
 * Single-precision GEMM: packed cache-blocked pipeline + legacy path.
 *
 * Three transpose variants cover the needs of linear-layer training:
 *   - NT: C[M,N] = A[M,K] * B[N,K]^T   (forward:  Y  = X  W^T)
 *   - NN: C[M,N] = A[M,K] * B[K,N]     (backward: dX = dY W)
 *   - TN: C[M,N] = A[K,M]^T * B[K,N]   (backward: dW = dY^T X)
 *
 * Large shapes run the PACKED pipeline: operand panels are copied once
 * into contiguous, strip-major buffers (simd/kernels.h PackAFn/PackBFn,
 * kGemmPackMR x kGemmPackNR register tiles) staged in per-thread
 * workspace arenas (runtime/workspace_arena.h), and the block
 * microkernel streams them with zero steady-state heap allocations.
 * The quantizing entry points additionally FUSE the nearest-rounding
 * grid-snap quantizer into the pack, so no quantized tensor copy is
 * ever materialized, and an optional PackedWeightCache keeps a
 * weight's packed+quantized panel alive across the GEMMs of one
 * training step. Small shapes (and SNIP_GEMM_PACK=off) run the legacy
 * unpacked kernels unchanged.
 *
 *   SNIP_GEMM_PACK=auto   pack when the shape outgrows the pack
 *                         overhead (default)
 *   SNIP_GEMM_PACK=on     always pack
 *   SNIP_GEMM_PACK=off    never pack (bit-identical to the pre-packed
 *                         library, for A/B comparison)
 *
 * Determinism contract: all paths fan kGemmBlockM-row M-blocks of C
 * out over the thread pool; workers own whole rows of C and every
 * per-element accumulation order is a pure function of the shape, so
 * WITHIN one (backend, packed-or-not) configuration results are
 * bit-identical for any thread count. The packed and unpacked paths
 * may differ from each other in low-order bits (the packed microkernel
 * accumulates each C element k-ascending in one lane; the unpacked NT
 * kernel stripes across 8 lanes and reduces).
 */
#ifndef SNIP_TENSOR_GEMM_H
#define SNIP_TENSOR_GEMM_H

#include <cstdint>
#include <memory>

#include "quant/quantizer.h"
#include "tensor/tensor.h"

namespace snip {

/** C[M,N] (+)= A[M,K] * B[N,K]^T. */
void gemmNT(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate = false);

/** C[M,N] (+)= A[M,K] * B[K,N]. */
void gemmNN(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate = false);

/** C[M,N] (+)= A[K,M]^T * B[K,N]. */
void gemmTN(const float *a, const float *b, float *c, int64_t m, int64_t n,
            int64_t k, bool accumulate = false);

// ------------------------------------------------ strided-batch GEMM
//
// count independent GEMMs of one shape in a single call: item i reads
// A_i = a + i*a_stride and writes C through the variant-specific
// grouping below. The batched driver fans ITEMS (not M-blocks) over
// the thread pool — each worker owns whole items, so per-item
// accumulation order is identical to running the per-item entry
// points one by one, for any thread count. Whether the batch takes
// the packed pipeline is decided from the aggregate work
// count*m*n*k (gemmBatchedPackEnabled below), NOT the per-item
// shape: attention-style batches of small GEMMs amortize the pack
// cost across the batch. Under SNIP_GEMM_PACK=off every item runs
// the per-item legacy kernels, bit-identical to a loop of
// gemmNT/NN/TN calls.

/**
 * C_i[M,N] (+)= A_i[M,K] * B_{i/group}[N,K]^T for i in [0, count).
 * B_j = b + j*b_stride: @p group consecutive items share one B
 * operand (GQA query heads reading one kv head), whose packed panel
 * is built once and streamed by all of them. count must be a
 * multiple of group.
 */
void gemmBatchedNT(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, float *c, int64_t c_stride,
                   int64_t count, int64_t m, int64_t n, int64_t k,
                   int64_t group = 1, bool accumulate = false);

/** C_i[M,N] (+)= A_i[M,K] * B_{i/group}[K,N]; grouping as in NT. */
void gemmBatchedNN(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, float *c, int64_t c_stride,
                   int64_t count, int64_t m, int64_t n, int64_t k,
                   int64_t group = 1, bool accumulate = false);

/**
 * C_{i/group}[M,N] (+)= sum over each group of A_i[K,M]^T * B_i[K,N]:
 * here @p group consecutive items REDUCE into one shared C (GQA
 * dK/dV accumulation). Each worker owns whole groups and adds the
 * items of a group in ascending order (each item's product is fully
 * formed in a scratch panel, then added — the same fixed order as a
 * serial compute-then-scatter-add loop), so the reduction is
 * bit-identical for any thread count.
 */
void gemmBatchedTN(const float *a, int64_t a_stride, const float *b,
                   int64_t b_stride, float *c, int64_t c_stride,
                   int64_t count, int64_t m, int64_t n, int64_t k,
                   int64_t group = 1, bool accumulate = false);

/** True when a batch of this aggregate shape takes the packed
 *  pipeline under the active SNIP_GEMM_PACK mode (Auto packs once
 *  count*m*n*k — the amortization unit — outgrows the pack cost). */
bool gemmBatchedPackEnabled(int64_t count, int64_t m, int64_t n,
                            int64_t k);

/** Y = X * W^T for rank-2 tensors X[M,K], W[N,K]. */
Tensor matmulNT(const Tensor &x, const Tensor &w);

/** Y = A * B for rank-2 tensors A[M,K], B[K,N]. */
Tensor matmulNN(const Tensor &a, const Tensor &b);

/** Y = A^T * B for rank-2 tensors A[K,M], B[K,N]. */
Tensor matmulTN(const Tensor &a, const Tensor &b);

// --------------------------------------------------- packed-path mode

/** SNIP_GEMM_PACK spellings. */
enum class GemmPackMode
{
    Auto,
    On,
    Off,
};

/** The active mode (resolves SNIP_GEMM_PACK on first call). */
GemmPackMode gemmPackMode();

/** Select a mode programmatically ("auto" | "on" | "off"); false and
 *  unchanged for unknown names. For tests and benches; must not race
 *  with in-flight GEMMs. */
bool setGemmPackModeByName(const char *name);

/** True when a GEMM of this shape takes the packed pipeline under the
 *  active mode (Auto packs once the work outgrows the pack cost). */
bool gemmPackEnabled(int64_t m, int64_t n, int64_t k);

// ----------------------------------------------- packed-weight cache

/**
 * Per-layer cache of packed (+ fused-quantized) weight panels, one
 * slot per GEMM orientation (Fwd consumes W as the NT B operand, Dgrad
 * as the NN B operand). A hit skips the whole scale-compute + pack
 * phase, so within one training step the weight is packed+quantized
 * once per orientation no matter how many forwards run (stats passes,
 * probes, pipeline microbatches), and the region-scale pass is shared
 * between the orientations when their policies agree.
 *
 * Invalidation: invalidateWeightPacks() (bumped by the optimizer step
 * and checkpoint restore) stales every cache in the process;
 * invalidate() stales one layer (Linear calls it when the weight is
 * mutated through its non-const accessor). Buffers are retained across
 * invalidations, so steady-state repacks allocate nothing.
 *
 * Not thread-safe against concurrent GEMMs on the SAME layer (a layer
 * runs one GEMM at a time by construction); distinct layers may pack
 * concurrently.
 */
class PackedWeightCache
{
  public:
    PackedWeightCache();
    ~PackedWeightCache();

    PackedWeightCache(const PackedWeightCache &) = delete;
    PackedWeightCache &operator=(const PackedWeightCache &) = delete;

    /** Drop validity (weight content changed); keeps the buffers, and
     *  disables implicit reuse for the rest of the current epoch (a
     *  mutable reference may still be live). */
    void invalidate();

    /**
     * True when Linear may hand this cache to the GEMM implicitly:
     * some weight mutator has announced itself at least once
     * (invalidateWeightPacks(), i.e. the single-writer training
     * discipline is established) and no mutable reference escaped this
     * layer during the current epoch. Explicit callers of the
     * gemmPacked* entry points may pass the cache regardless — passing
     * it IS the opt-in.
     */
    bool implicitCachingActive() const;

    struct Impl;
    Impl &impl() { return *impl_; }

  private:
    std::unique_ptr<Impl> impl_;
};

/** Stale every PackedWeightCache in the process. Weight mutators
 *  (optimizer step, checkpoint restore) must call this. */
void invalidateWeightPacks();

/** Current weight-pack epoch: 0 until the first invalidateWeightPacks()
 *  call, then bumped by every one. Caches derived from weights (packed
 *  panels, quantized inference copies) key on this to notice mutation. */
uint64_t weightPackEpoch();

// ------------------------------------- quantizing packed entry points
//
// The packed pipeline with fused quantize-on-pack. aq/bq describe the
// nearest-rounding fake quantization of each operand (null = use the
// operand as-is; stochastic-rounding operands must be materialized by
// the caller first — the pack kernels carry no SR call key). Results are
// bit-identical to quantizing a copy with FakeQuantizer and running
// the packed GEMM on it. These entries always pack regardless of mode
// (callers gate on gemmPackEnabled()); after warm-up they perform zero
// heap allocations (tests/test_workspace.cpp counts).

/** C[M,N] (+)= q(A[M,K]) * q(B[N,K])^T; @p bcache may cache packed B. */
void gemmPackedNT(const float *a, int64_t m, int64_t k,
                  const QuantConfig *aq, const float *b, int64_t n,
                  const QuantConfig *bq, PackedWeightCache *bcache,
                  float *c, bool accumulate = false);

/** C[M,N] (+)= q(A[M,K]) * q(B[K,N]); @p bcache may cache packed B. */
void gemmPackedNN(const float *a, int64_t m, int64_t k,
                  const QuantConfig *aq, const float *b, int64_t n,
                  const QuantConfig *bq, PackedWeightCache *bcache,
                  float *c, bool accumulate = false);

/** C[M,N] (+)= q(A[K,M])^T * q(B[K,N]) (no cache: both Wgrad operands
 *  change every step). */
void gemmPackedTN(const float *a, int64_t m, int64_t k,
                  const QuantConfig *aq, const float *b, int64_t n,
                  const QuantConfig *bq, float *c,
                  bool accumulate = false);

/** Y = q(X) * q(W)^T (packed, fused quantization). */
Tensor quantMatmulNT(const Tensor &x, const QuantConfig *xq,
                     const Tensor &w, const QuantConfig *wq,
                     PackedWeightCache *wcache);

/** Y = q(dY) * q(W) (packed, fused quantization). */
Tensor quantMatmulNN(const Tensor &dy, const QuantConfig *dq,
                     const Tensor &w, const QuantConfig *wq,
                     PackedWeightCache *wcache);

/** dW (+)= q(dY)^T * q(X) (packed, fused quantization). */
void quantGemmTN(const Tensor &dy, const QuantConfig *dq,
                 const Tensor &x, const QuantConfig *xq, Tensor &dw,
                 bool accumulate);

} // namespace snip

#endif // SNIP_TENSOR_GEMM_H
