/**
 * @file
 * Quantized linear layer — the operator SNIP tunes.
 *
 * Implements the mixed-precision GEMM recipe of Fig. 5: before each of
 * the three GEMMs, operands are fake-quantized according to the layer's
 * assigned LayerScheme; the GEMM output stays in high precision; the
 * master weight remains FP32. Gradients flow straight-through the
 * quantizers (standard STE), matching the paper's training framework.
 */
#ifndef SNIP_NN_LINEAR_H
#define SNIP_NN_LINEAR_H

#include <string>

#include "nn/param.h"
#include "quant/quantizer.h"
#include "schemes/scheme.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace snip {

class Rng;

/**
 * Observer interface over linear-layer tensors.
 *
 * SNIP's statistics pass (Step 1 of Fig. 6) registers a tap on every
 * linear layer and receives the exact tensors each GEMM consumes or
 * produces, without Linear knowing anything about statistics.
 */
class LinearTap
{
  public:
    virtual ~LinearTap() = default;

    /** Called after the forward GEMM of layer @p idx. */
    virtual void onForward(int idx, const Tensor &x, const Tensor &w,
                           const Tensor &y) = 0;

    /** Called after the backward GEMMs of layer @p idx. */
    virtual void onBackward(int idx, const Tensor &dy, const Tensor &dx,
                            const Tensor &dw) = 0;
};

/**
 * y = x W^T with per-GEMM fake quantization.
 *
 * One forward() must be followed by at most one backward() (the layer
 * saves its input activation in between).
 *
 * Large GEMMs take the packed pipeline (tensor/gemm.h,
 * SNIP_GEMM_PACK): nearest-rounded operands are quantized ON THE PACK
 * (no quantized tensor copy is materialized — the quantization
 * decision is a pack policy), stochastic-rounded operands (FP4
 * gradients) are materialized first, and the layer's PackedWeightCache
 * keeps the packed+quantized weight panels alive across the GEMMs of
 * one step. Mutating the weight through the non-const weight()
 * accessor invalidates the cache; the optimizer and checkpoint paths
 * invalidate globally via invalidateWeightPacks().
 */
class Linear
{
  public:
    /**
     * @param name         diagnostic name ("blk00.Q")
     * @param out_features rows of W
     * @param in_features  cols of W
     * @param rng          weight initialization stream
     * @param init_std     Gaussian init stddev
     * @param quantizer    shared fake quantizer (may be null: all GEMMs
     *                     then run unquantized FP32, used by tests)
     */
    Linear(std::string name, int64_t out_features, int64_t in_features,
           Rng &rng, float init_std, FakeQuantizer *quantizer = nullptr);

    /** Forward GEMM; saves @p x for the backward pass. */
    Tensor forward(const Tensor &x);

    /**
     * Inference-only forward on raw buffers: y[rows, out] = x W^T
     * with the layer's forward fake quantization applied (activation
     * tiles quantized into arena scratch; the quantized weight copy is
     * cached and rebuilt only when the weight-pack epoch moves or the
     * scheme changes). Saves nothing, fires no tap, and after warm-up
     * performs zero heap allocations. Rows are bit-identical to
     * forward()'s legacy (non-packed) path, i.e. to forward() itself
     * under SNIP_GEMM_PACK=off. Stochastic-rounding schemes are a
     * training-only feature and hard-error here.
     */
    void forwardInference(const float *x, int64_t rows, float *y);

    /** Backward GEMMs; accumulates into grad(), returns dX. */
    Tensor backward(const Tensor &dy);

    /** Assign this layer's precision scheme. */
    void setScheme(const LayerScheme &scheme) { scheme_ = scheme; }

    const LayerScheme &scheme() const { return scheme_; }

    /** Attach/detach the stats tap; @p idx is the global layer index. */
    void
    setTap(LinearTap *tap, int idx)
    {
        tap_ = tap;
        tap_idx_ = idx;
    }

    /** Master (FP32) weight [out, in]. The non-const accessor assumes
     *  the caller may mutate and drops the packed-weight cache. */
    Tensor &
    weight()
    {
        w_packs_.invalidate();
        w_inf_valid_ = false;
        return w_;
    }
    const Tensor &weight() const { return w_; }

    /** Weight gradient (same shape as weight). */
    Tensor &grad() { return grad_w_; }
    const Tensor &grad() const { return grad_w_; }

    /** Most recent saved input activation (valid after forward()). */
    const Tensor &savedInput() const { return saved_x_; }

    void zeroGrad() { grad_w_.zero(); }

    int64_t outFeatures() const { return w_.size(0); }
    int64_t inFeatures() const { return w_.size(1); }

    /** Parameter reference for the optimizer. */
    ParamRef param() { return {name_, &w_, &grad_w_}; }

    const std::string &name() const { return name_; }

  private:
    /**
     * How one operand of one GEMM is quantized under the current
     * scheme: a pack policy (`fused` — applied during the operand
     * pack, nothing materialized), a materialization (`materialize` —
     * stochastic rounding, whose draws are keyed by the quantizer call
     * and the pack kernels carry no key), or
     * passthrough (BF16 / no quantizer; both false).
     */
    struct QuantPlan
    {
        bool fused = false;
        bool materialize = false;
        QuantConfig cfg;

        const QuantConfig *fusedCfg() const
        {
            return fused ? &cfg : nullptr;
        }
    };

    QuantPlan plan(GemmKind kind, TensorRole role) const;

    /** Legacy-path materialization of @p t under @p plan. */
    Tensor materialized(const Tensor &t, const QuantPlan &plan);

    /**
     * Resolve one packed-GEMM operand: returns the tensor to feed the
     * GEMM (@p t, or @p storage after materializing a
     * stochastic-rounded copy into it) and sets @p fused to the
     * pack-policy config (null when materialized or passthrough).
     * @p plan and @p storage must outlive the GEMM call.
     */
    const Tensor &packedSrc(const Tensor &t, const QuantPlan &plan,
                            Tensor &storage, const QuantConfig **fused);

    /** The weight cache, or null while implicit reuse is unsafe. */
    PackedWeightCache *activeCache();

    /** The quantized weight copy forwardInference() feeds its GEMM
     *  (w_ itself for passthrough plans), rebuilt when stale. */
    const Tensor &inferenceWeight(const QuantPlan &wp);

    std::string name_;
    Tensor w_;
    Tensor grad_w_;
    Tensor saved_x_;
    LayerScheme scheme_;
    FakeQuantizer *quantizer_ = nullptr;
    LinearTap *tap_ = nullptr;
    int tap_idx_ = -1;
    /** Packed+quantized weight panels, one slot per GEMM orientation. */
    PackedWeightCache w_packs_;

    // Quantized-weight copy for the inference path, keyed on the
    // global weight-pack epoch and the format it was built under.
    Tensor w_inf_;
    bool w_inf_valid_ = false;
    uint64_t w_inf_epoch_ = 0;
    std::string w_inf_format_;
};

} // namespace snip

#endif // SNIP_NN_LINEAR_H
