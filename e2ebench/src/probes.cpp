#include "probes.h"

#include <vector>

#include "nn/model.h"
#include "quant/quantizer.h"
#include "runtime/env_config.h"
#include "serve/kv_cache.h"
#include "util/rng.h"

namespace snip {
namespace e2e {

void
LayerMetrics::fromTelemetry(const telemetry::Snapshot &before,
                            const telemetry::Snapshot &after, double steps,
                            int threads)
{
    using telemetry::Counter;
    using telemetry::Seconds;
    using telemetry::Timer;
    const auto counter = [&](Counter c) {
        return static_cast<double>(after.counter(c) - before.counter(c));
    };
    const auto secs = [&](Seconds s) {
        return after.secondsOf(s) - before.secondsOf(s);
    };
    const auto timer_s = [&](Timer t) {
        return after.timer(t).sum_seconds - before.timer(t).sum_seconds;
    };
    const double per = steps > 0 ? 1.0 / steps : 0.0;
    const double gemm_s = timer_s(Timer::Gemm);
    gemm_ms_per_step = gemm_s * 1e3 * per;
    gemm_gflops = gemm_s > 0 ? counter(Counter::GemmFlops) / gemm_s * 1e-9
                             : 0.0;
    gemm_packed_calls_per_step = counter(Counter::GemmPackedCalls) * per;
    gemm_legacy_calls_per_step = counter(Counter::GemmLegacyCalls) * per;
    attn_fwd_ms_per_step = timer_s(Timer::AttnFwd) * 1e3 * per;
    attn_bwd_ms_per_step = timer_s(Timer::AttnBwd) * 1e3 * per;
    pool_jobs_per_step = counter(Counter::PoolJobs) * per;
    const double wall = secs(Seconds::PoolWall);
    pool_wall_ms_per_step = wall * 1e3 * per;
    pool_utilization =
        wall > 0 ? secs(Seconds::PoolBusy) / (wall * threads) : 0.0;
    arena_high_water_bytes = static_cast<double>(
        after.maxGauge(telemetry::MaxGauge::ArenaHighWaterBytes));
}

void
LayerMetrics::emit(Report &r) const
{
    r.add("train.fwd_ms", train_fwd_ms, "ms");
    r.add("train.bwd_ms", train_bwd_ms, "ms");
    r.add("train.optim_ms", train_optim_ms, "ms");
    r.add("core.update_ms", core_update_ms, "ms");
    r.add("core.stats_ms", core_stats_ms, "ms");
    r.add("core.probe_ms", core_probe_ms, "ms");
    r.add("core.analyze_ms", core_analyze_ms, "ms");
    r.add("ilp.solve_ms", ilp_solve_ms, "ms");
    r.add("ilp.nodes", ilp_nodes, "count");
    r.add("quant.sr_ns_per_elem", quant_sr_ns_per_elem, "ns");
    r.add("quant.sr_elems_per_step", quant_sr_elems_per_step, "count");
    r.add("quant.nearest_ns_per_elem", quant_nearest_ns_per_elem, "ns");
    r.add("gemm.ms_per_step", gemm_ms_per_step, "ms");
    r.add("gemm.gflops", gemm_gflops, "GFLOP/s");
    r.add("gemm.packed_calls_per_step", gemm_packed_calls_per_step,
          "count");
    r.add("gemm.legacy_calls_per_step", gemm_legacy_calls_per_step,
          "count");
    r.add("attn.fwd_ms_per_step", attn_fwd_ms_per_step, "ms");
    r.add("attn.bwd_ms_per_step", attn_bwd_ms_per_step, "ms");
    r.add("pool.jobs_per_step", pool_jobs_per_step, "count");
    r.add("pool.wall_ms_per_step", pool_wall_ms_per_step, "ms");
    r.add("pool.utilization", pool_utilization, "ratio");
    r.add("arena.high_water_bytes", arena_high_water_bytes, "bytes");
    r.add("serve.prefill_tokens_per_s", serve_prefill_tokens_per_s,
          "tokens/s");
    r.add("serve.decode_step_ms", serve_decode_step_ms, "ms");
    r.add("serve.decode_width", serve_decode_width, "count");
    r.add("serve.ttft_ms_p50", serve_ttft_ms_p50, "ms");
    r.add("kv.pages_peak", kv_pages_peak, "count");
    r.add("kv.append_ns_per_row", kv_append_ns_per_row, "ns");
    r.add("kv.gather_ns_per_token", kv_gather_ns_per_token, "ns");
    r.add("traced.tokens_per_s", traced_tokens_per_s, "tokens/s");
}

QuantProbe
probeQuantizer(LlamaModel &model, const PrecisionScheme &scheme,
               int64_t rows, bool fwd_only, uint64_t seed)
{
    struct Operand
    {
        Tensor value;
        QuantConfig cfg;
    };
    // One step's operands: for each GEMM the two inputs it quantizes
    // (Fwd: x, w; Dgrad: dy, w; Wgrad: dy, x), at the layer's shapes.
    Rng rng(seed);
    std::vector<Operand> sr, nearest;
    double sr_elems = 0.0, nearest_elems = 0.0;
    const int n_linear = model.registry().numLinear();
    for (int i = 0; i < n_linear; ++i) {
        const Linear &lin = model.linear(i);
        const int64_t in = lin.inFeatures(), out = lin.outFeatures();
        const LayerScheme &ls = scheme.layers[static_cast<size_t>(i)];
        for (GemmKind kind : {GemmKind::Fwd, GemmKind::Dgrad,
                              GemmKind::Wgrad}) {
            const Precision p = ls.of(kind);
            if (p == Precision::BF16 || (fwd_only && kind != GemmKind::Fwd))
                continue;
            struct Use
            {
                TensorRole role;
                int64_t r, c;
            };
            const Use x{TensorRole::Activation, rows, in};
            const Use w{TensorRole::Weight, out, in};
            const Use dy{TensorRole::OutputGrad, rows, out};
            const Use uses[3][2] = {{x, w}, {dy, w}, {dy, x}};
            for (const Use &u : uses[static_cast<int>(kind)]) {
                Operand op{Tensor::randn({u.r, u.c}, rng, 0.05f),
                           rolePolicy(p, u.role)};
                const double n = static_cast<double>(op.value.numel());
                if (op.cfg.rounding == Rounding::Stochastic) {
                    sr_elems += n;
                    sr.push_back(std::move(op));
                } else {
                    nearest_elems += n;
                    nearest.push_back(std::move(op));
                }
            }
        }
    }

    FakeQuantizer quantizer(seed ^ 0x51ull);
    const auto time_pass = [&](const std::vector<Operand> &ops) {
        const auto t0 = Clock::now();
        for (const Operand &op : ops)
            (void)quantizer.quantize(op.value, op.cfg);
        return secondsSince(t0);
    };
    // Median of five passes: the first pass also warms the caches.
    std::vector<double> sr_t, nearest_t;
    for (int rep = 0; rep < 5; ++rep) {
        sr_t.push_back(time_pass(sr));
        nearest_t.push_back(time_pass(nearest));
    }
    QuantProbe probe;
    probe.sr_elems_per_step = sr_elems;
    if (sr_elems > 0)
        probe.sr_ns_per_elem = percentile(sr_t, 0.5) * 1e9 / sr_elems;
    if (nearest_elems > 0)
        probe.nearest_ns_per_elem =
            percentile(nearest_t, 0.5) * 1e9 / nearest_elems;
    return probe;
}

KvProbe
probeKvCache(const ModelConfig &model, int64_t tokens, uint64_t seed)
{
    serve::KvCacheConfig kc;
    kc.n_layers = model.n_blocks;
    kc.n_kv_heads = model.n_kv_heads;
    kc.head_dim = model.d_model / model.n_heads;
    kc.page_tokens = runtime::envConfig().kvPageTokens();
    kc.max_seqs = 1;
    kc.max_seq_tokens = tokens;
    kc.max_pages =
        kc.n_layers * ((tokens + kc.page_tokens - 1) / kc.page_tokens);
    kc.mode = serve::KvCacheMode::Fp8;
    serve::KvCache cache(kc);

    const int64_t kv_dim = kc.kvDim();
    Rng rng(seed);
    const Tensor rows_k = Tensor::randn({tokens, kv_dim}, rng, 1.0f);
    const Tensor rows_v = Tensor::randn({tokens, kv_dim}, rng, 1.0f);
    std::vector<float> dst(static_cast<size_t>(tokens * kc.head_dim));

    std::vector<double> append_t, gather_t;
    for (int rep = 0; rep < 5; ++rep) {
        cache.beginSequence(0);
        auto t0 = Clock::now();
        for (int64_t t = 0; t < tokens; ++t)
            for (int64_t l = 0; l < kc.n_layers; ++l)
                cache.append(0, l, rows_k.data() + t * kv_dim,
                             rows_v.data() + t * kv_dim);
        append_t.push_back(secondsSince(t0));
        t0 = Clock::now();
        for (int64_t l = 0; l < kc.n_layers; ++l)
            for (int64_t h = 0; h < kc.n_kv_heads; ++h) {
                cache.gatherHeadK(0, l, h, dst.data());
                cache.gatherHeadV(0, l, h, dst.data());
            }
        gather_t.push_back(secondsSince(t0));
        cache.endSequence(0);
    }
    const double rows = static_cast<double>(tokens * kc.n_layers);
    return {percentile(append_t, 0.5) * 1e9 / rows,
            percentile(gather_t, 0.5) * 1e9 / rows};
}

} // namespace e2e
} // namespace snip
