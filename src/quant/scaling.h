/**
 * @file
 * Scaling-factor granularities for fake quantization.
 *
 * Low-precision formats have tiny dynamic ranges, so every region of a
 * tensor is rescaled such that its max-|value| maps to the format's max
 * representable value before quantization (Sec. 2.3):
 *
 *     scale = FPX_MAX / max(abs(region));  q = Q(x*scale) / scale
 *
 * Following the DeepSeek-V3 recipe the paper adopts, activations and
 * gradients use 1xNB tile-wise scaling and weights NBxNB block-wise
 * scaling with NB = 128; tensor-, row- and column-wise granularities are
 * also provided for ablations.
 */
#ifndef SNIP_QUANT_SCALING_H
#define SNIP_QUANT_SCALING_H

#include <functional>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace snip {

/** Region shape that shares one scaling factor. */
enum class Granularity
{
    Tensorwise,  ///< one scale for the whole tensor
    Rowwise,     ///< one scale per row
    Columnwise,  ///< one scale per column
    Blockwise,   ///< one scale per NB x NB block
    Tilewise,    ///< one scale per 1 x NB tile (DeepSeek-V3 activations)
};

/** Name for logging/tables. */
const char *granularityName(Granularity g);

/** Granularity plus its block edge (ignored for tensor/row/column). */
struct ScalingSpec
{
    Granularity granularity = Granularity::Tensorwise;
    int block = 128;
};

/**
 * Invoke @p fn once per scaling region of a tensor viewed as a
 * rows x cols matrix. The callback receives a list of flat element
 * offsets... — to avoid allocation it instead receives (row0, row1,
 * col0, col1) half-open bounds of the region.
 */
void forEachRegion(
    int64_t rows, int64_t cols, const ScalingSpec &spec,
    const std::function<void(int64_t, int64_t, int64_t, int64_t)> &fn);

/** One scaling region as half-open (row, col) bounds. */
struct ScalingRegion
{
    int64_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
};

/**
 * Materialize the regions forEachRegion() would visit, in the same
 * order. Regions are disjoint, so parallel sweeps (runtime/) can
 * process them independently (a region's result never depends on the
 * order they are visited in).
 */
std::vector<ScalingRegion> collectRegions(int64_t rows, int64_t cols,
                                          const ScalingSpec &spec);

/**
 * Scale for one region: fmt_max / maxabs. Returns 1.0 when the region is
 * all zeros (nothing to scale; quantization is then exact).
 */
double regionScale(double max_abs, double fmt_max);

/** Number of scaling factors a spec produces for a rows x cols tensor
 *  (the paper's <1% memory-overhead claim is checked against this). */
int64_t scaleCount(int64_t rows, int64_t cols, const ScalingSpec &spec);

/** View any tensor as a 2-D matrix: rows = numel/lastdim, cols =
 *  lastdim. Rank-0/1 tensors become a single row. */
void matrixView(const Tensor &t, int64_t &rows, int64_t &cols);

} // namespace snip

#endif // SNIP_QUANT_SCALING_H
