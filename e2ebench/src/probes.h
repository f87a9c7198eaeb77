/**
 * @file
 * Per-layer numbers of the traced run: the fixed list of layer
 * metrics, their telemetry-derived part, and the two standalone probes
 * (FakeQuantizer on the workload's operand shapes, KvCache append /
 * gather on the serving shapes).
 */
#ifndef SNIP_E2EBENCH_PROBES_H
#define SNIP_E2EBENCH_PROBES_H

#include "common.h"
#include "schemes/scheme.h"
#include "telemetry/telemetry.h"

namespace snip {

class LlamaModel;
struct ModelConfig;

namespace e2e {

/**
 * Every per-layer metric of the benchmark. A traced run of any
 * workload reports all of them; a layer the workload never enters
 * reads 0 (e.g. the controller stages on train_fp8, the KV probe on
 * the train workloads).
 */
struct LayerMetrics
{
    // train: benchmark spans around the public step calls, ms/step.
    double train_fwd_ms = 0, train_bwd_ms = 0, train_optim_ms = 0;
    // core/ilp: spans around the controller stages, ms per update.
    double core_update_ms = 0, core_stats_ms = 0, core_probe_ms = 0;
    double core_analyze_ms = 0, ilp_solve_ms = 0, ilp_nodes = 0;
    // quant: FakeQuantizer probe.
    double quant_sr_ns_per_elem = 0, quant_sr_elems_per_step = 0;
    double quant_nearest_ns_per_elem = 0;
    // tensor/nn/runtime: telemetry totals, per step.
    double gemm_ms_per_step = 0, gemm_gflops = 0;
    double gemm_packed_calls_per_step = 0, gemm_legacy_calls_per_step = 0;
    double attn_fwd_ms_per_step = 0, attn_bwd_ms_per_step = 0;
    double pool_jobs_per_step = 0, pool_wall_ms_per_step = 0;
    double pool_utilization = 0, arena_high_water_bytes = 0;
    // serve.
    double serve_prefill_tokens_per_s = 0, serve_decode_step_ms = 0;
    double serve_decode_width = 0, serve_ttft_ms_p50 = 0;
    double kv_pages_peak = 0, kv_append_ns_per_row = 0;
    double kv_gather_ns_per_token = 0;
    // End-to-end throughput of the traced run itself (its gap to the
    // untraced tokens_per_s is the tracing overhead).
    double traced_tokens_per_s = 0;

    /** Fill the tensor/nn/runtime fields from the telemetry totals
     *  accumulated between @p before and @p after over @p steps. */
    void fromTelemetry(const telemetry::Snapshot &before,
                       const telemetry::Snapshot &after, double steps,
                       int threads);

    /** Append every field to @p report under its metric name. */
    void emit(Report &report) const;
};

/** Result of the FakeQuantizer probe. */
struct QuantProbe
{
    double sr_ns_per_elem = 0.0;
    double sr_elems_per_step = 0.0;
    double nearest_ns_per_elem = 0.0;
};

/**
 * Quantize one step's worth of GEMM operands of @p model under
 * @p scheme with a private FakeQuantizer (the model's own streams are
 * untouched): every operand of every non-BF16 GEMM of every linear at
 * @p rows tokens, stochastic FP4 gradients and nearest-rounded
 * operands timed apart. @p fwd_only keeps the Fwd GEMMs alone (the
 * inference path).
 */
QuantProbe probeQuantizer(LlamaModel &model, const PrecisionScheme &scheme,
                          int64_t rows, bool fwd_only, uint64_t seed);

/** Result of the KvCache probe. */
struct KvProbe
{
    double append_ns_per_row = 0.0;
    double gather_ns_per_token = 0.0;
};

/**
 * Append @p tokens tokens of K/V rows for every layer of one sequence
 * into an FP8 KvCache shaped after @p model, then gather every kv head
 * back; ns per appended (token, layer) row and per gathered
 * (token, layer) K+V slice.
 */
KvProbe probeKvCache(const ModelConfig &model, int64_t tokens,
                     uint64_t seed);

} // namespace e2e
} // namespace snip

#endif // SNIP_E2EBENCH_PROBES_H
