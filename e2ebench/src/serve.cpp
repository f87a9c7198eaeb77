/**
 * @file
 * The serving workload, serve_fp8kv.
 *
 * A tinyllama_sim-shaped model (max_seq raised to 256) with FP8
 * weights serves a closed burst: kBurst requests with mixed prompt
 * and generation lengths, all arriving at t=0, through the
 * continuous-batching engine with kConcurrency sequence slots and an
 * FP8 KV cache. The same burst is replayed in rounds for the run's
 * duration; greedy decoding makes every round's tokens identical.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "nn/model.h"
#include "probes.h"
#include "runtime/thread_pool.h"
#include "serve/engine.h"
#include "train/presets.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace snip {
namespace e2e {
namespace {

constexpr int64_t kMaxSeq = 256;
constexpr int64_t kBurst = 64;
constexpr int64_t kConcurrency = 8;
constexpr int64_t kMinPrompt = 16, kMaxPrompt = 96;
constexpr int64_t kMinNew = 16, kMaxNew = 64;
constexpr int kSetupReps = 5;
/** Requests per run whose tokens are re-derived by a KV-free forward. */
constexpr int kTokenChecks = 4;
/** Tail = nearest-rank p99 of the inter-token gaps; one burst yields
 *  2466 of them. */
constexpr double kTailQuantile = 0.99;
constexpr double kMaxMeasureSeconds = 120.0;

ModelConfig
serveModel()
{
    ModelConfig m = tinyllamaSim();
    m.max_seq = kMaxSeq;
    return m;
}

/**
 * The burst. Prompt and generation lengths are evenly spaced over
 * their ranges, paired and ordered by one fixed shuffle, so every seed
 * asks for the same work in the same order (the peak KV footprint and
 * the prefill/decode interleaving are seed-independent); the seed
 * draws the prompt tokens, and through them every generated token.
 */
std::vector<serve::ServeRequest>
makeBurst(uint64_t seed, int64_t n, int64_t vocab)
{
    Rng order(0x5E7E0ull);
    const auto spaced = [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> v;
        for (int64_t i = 0; i < n; ++i)
            v.push_back(lo + (n > 1 ? i * (hi - lo) / (n - 1) : 0));
        for (int64_t i = n - 1; i > 0; --i) // Fisher-Yates
            std::swap(v[static_cast<size_t>(i)],
                      v[order.nextBelow(static_cast<uint64_t>(i + 1))]);
        return v;
    };
    Rng rng(subSeed(seed, 11));
    const std::vector<int64_t> prompt_len = spaced(kMinPrompt, kMaxPrompt);
    const std::vector<int64_t> new_len = spaced(kMinNew, kMaxNew);
    std::vector<serve::ServeRequest> burst;
    for (int64_t i = 0; i < n; ++i) {
        serve::ServeRequest r;
        r.id = i;
        r.arrival_s = 0.0;
        for (int64_t t = 0; t < prompt_len[static_cast<size_t>(i)]; ++t)
            r.prompt.push_back(static_cast<int32_t>(
                rng.nextBelow(static_cast<uint64_t>(vocab))));
        r.max_new_tokens = new_len[static_cast<size_t>(i)];
        burst.push_back(std::move(r));
    }
    return burst;
}

/** Model + engine; the engine references the model, so it is declared
 *  (and destroyed) after it. */
struct ServeSetup
{
    std::unique_ptr<LlamaModel> model;
    std::unique_ptr<serve::Engine> engine;
};

std::vector<serve::RequestResult>
runBurst(serve::Engine &engine, const std::vector<serve::ServeRequest> &reqs)
{
    serve::RequestQueue queue;
    for (const serve::ServeRequest &r : reqs)
        queue.push(r);
    return engine.run(queue);
}

ServeSetup
makeServeSetup(uint64_t seed, serve::KvCacheMode mode,
               const std::vector<serve::ServeRequest> &burst)
{
    ServeSetup s;
    s.model = std::make_unique<LlamaModel>(serveModel(), subSeed(seed, 10));
    s.model->setScheme(PrecisionScheme::uniform(
        static_cast<size_t>(s.model->registry().numLinear()),
        Precision::FP8));
    serve::EngineConfig ec;
    ec.max_concurrency = kConcurrency;
    ec.kv_mode = mode;
    s.engine = std::make_unique<serve::Engine>(*s.model, ec);
    // Warm-up pass: one engine-full of the burst's requests.
    const std::vector<serve::ServeRequest> head(
        burst.begin(), burst.begin() + std::min<int64_t>(kConcurrency,
                                                         kBurst));
    runBurst(*s.engine, head);
    return s;
}

/** Every request served in full; pages returned; counts add up. */
std::vector<std::string>
checkServeRound(const std::vector<serve::ServeRequest> &reqs,
                const std::vector<serve::RequestResult> &results,
                const serve::ServeStats &stats, int64_t pages_in_use,
                int64_t vocab)
{
    std::vector<std::string> p;
    if (results.size() != reqs.size()) {
        p.push_back(strformat("%zu results for %zu requests", results.size(),
                              reqs.size()));
        return p;
    }
    int64_t prompt_tokens = 0, emitted = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        const serve::ServeRequest &q = reqs[i];
        const serve::RequestResult &r = results[i];
        prompt_tokens += static_cast<int64_t>(q.prompt.size());
        emitted += static_cast<int64_t>(r.tokens.size());
        if (r.id != q.id)
            p.push_back(strformat("result %zu has id %lld", i,
                                  static_cast<long long>(r.id)));
        if (r.status != serve::RequestStatus::Ok)
            p.push_back(strformat("request %lld ended %s",
                                  static_cast<long long>(q.id),
                                  serve::requestStatusName(r.status)));
        if (static_cast<int64_t>(r.tokens.size()) != q.max_new_tokens)
            p.push_back(strformat("request %lld emitted %zu of %lld tokens",
                                  static_cast<long long>(q.id),
                                  r.tokens.size(),
                                  static_cast<long long>(q.max_new_tokens)));
        for (int32_t t : r.tokens)
            if (t < 0 || t >= vocab) {
                p.push_back(strformat("request %lld emitted token %d "
                                      "outside the vocabulary",
                                      static_cast<long long>(q.id), t));
                break;
            }
    }
    if (pages_in_use != 0)
        p.push_back(strformat("%lld KV pages still in use after the burst",
                              static_cast<long long>(pages_in_use)));
    if (stats.requests != static_cast<int64_t>(reqs.size()) ||
        stats.prefill_tokens != prompt_tokens ||
        stats.decode_tokens != emitted)
        p.push_back(strformat(
            "engine counts (requests %lld, prefill %lld, decode %lld) != "
            "served (%zu, %lld, %lld)",
            static_cast<long long>(stats.requests),
            static_cast<long long>(stats.prefill_tokens),
            static_cast<long long>(stats.decode_tokens), reqs.size(),
            static_cast<long long>(prompt_tokens),
            static_cast<long long>(emitted)));
    if (stats.rejected + stats.preempted + stats.expired != 0)
        p.push_back("engine rejected, preempted or expired a request");
    return p;
}

/**
 * Re-derive @p result's tokens with a KV-free full-sequence forward
 * over prompt + emitted prefix. tests/test_serve.cpp bounds every FP8-KV
 * logit within tol = 0.08 * max|logit| + 0.02 of the exact one; the
 * emitted token won the FP8 argmax, so its exact logit lies within
 * 2 * tol of the exact argmax.
 */
std::vector<std::string>
checkEmittedTokens(LlamaModel &model, const serve::ServeRequest &req,
                   const serve::RequestResult &result)
{
    std::vector<std::string> p;
    const int64_t plen = static_cast<int64_t>(req.prompt.size());
    const int64_t n = static_cast<int64_t>(result.tokens.size());
    if (n == 0)
        return {strformat("request %lld emitted nothing",
                          static_cast<long long>(req.id))};
    std::vector<int32_t> seq = req.prompt;
    seq.insert(seq.end(), result.tokens.begin(), result.tokens.end() - 1);
    const Tensor logits = model.forward(
        seq, 1, static_cast<int64_t>(seq.size()), ForwardMode::Train);
    const int64_t vocab = model.config().vocab_size;
    for (int64_t j = 0; j < n; ++j) {
        const float *row = logits.data() + (plen - 1 + j) * vocab;
        const int32_t e = result.tokens[static_cast<size_t>(j)];
        int64_t best = 0;
        float max_abs = 0.0f;
        for (int64_t v = 0; v < vocab; ++v) {
            if (row[v] > row[best])
                best = v;
            max_abs = std::max(max_abs, std::fabs(row[v]));
        }
        const float tol = 0.08f * max_abs + 0.02f;
        if (e < 0 || e >= vocab || row[best] - row[e] > 2.0f * tol) {
            p.push_back(strformat(
                "request %lld token %lld: emitted %d, exact argmax %lld "
                "(logit gap %.4f > %.4f)",
                static_cast<long long>(req.id), static_cast<long long>(j), e,
                static_cast<long long>(best),
                e >= 0 && e < vocab ? row[best] - row[e] : INFINITY,
                2.0f * tol));
            break;
        }
    }
    return p;
}

} // namespace

Report
runServe(const Options &opts)
{
    Report report;
    if (opts.trace) {
        telemetry::Config tc;
        tc.enabled = true;
        telemetry::configure(tc);
    }
    const serve::KvCacheMode mode =
        opts.kv_fp32 ? serve::KvCacheMode::Fp32 : serve::KvCacheMode::Fp8;
    const ModelConfig mc = serveModel();
    const std::vector<serve::ServeRequest> burst =
        makeBurst(opts.seed, kBurst, mc.vocab_size);

    ServeSetup setup;
    const double setup_s = medianSeconds(kSetupReps, [&](int) {
        setup.engine.reset(); // before the model it references
        setup.model.reset();
        setup = makeServeSetup(opts.seed, mode, burst);
    });
    serve::Engine &engine = *setup.engine;
    const int threads = runtime::globalThreadPool().numThreads();
    int64_t burst_tokens = 0, prompt_tokens = 0;
    for (const serve::ServeRequest &r : burst) {
        burst_tokens += r.max_new_tokens;
        prompt_tokens += static_cast<int64_t>(r.prompt.size());
    }
    std::printf("serve: workload=%s seed=%llu threads=%d kv=%s model=%s "
                "blocks=%lld max_seq=%lld burst=%lld concurrency=%lld "
                "prompt=%lld-%lld new=%lld-%lld prompt_tokens=%lld "
                "new_tokens=%lld\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), threads,
                serve::kvCacheModeName(mode), mc.name.c_str(),
                static_cast<long long>(mc.n_blocks),
                static_cast<long long>(kMaxSeq),
                static_cast<long long>(kBurst),
                static_cast<long long>(kConcurrency),
                static_cast<long long>(kMinPrompt),
                static_cast<long long>(kMaxPrompt),
                static_cast<long long>(kMinNew),
                static_cast<long long>(kMaxNew),
                static_cast<long long>(prompt_tokens),
                static_cast<long long>(burst_tokens));

    Spans spans(opts.trace);
    std::vector<std::vector<serve::RequestResult>> rounds;
    std::vector<serve::ServeStats> stats;
    const telemetry::Snapshot before = telemetry::snapshot();
    const auto t_measure = Clock::now();
    do {
        {
            auto s = spans.scope("serve", "burst",
                                 static_cast<int64_t>(rounds.size()));
            rounds.push_back(runBurst(engine, burst));
        }
        stats.push_back(engine.stats());
        report.fail(checkServeRound(burst, rounds.back(), stats.back(),
                                    engine.kvCache().pagesInUse(),
                                    mc.vocab_size));
        for (size_t i = 0; i < burst.size() && rounds.size() > 1; ++i)
            if (rounds.back()[i].tokens != rounds.front()[i].tokens) {
                report.fail({strformat("request %zu's tokens differ from "
                                       "the first round's",
                                       i)});
                break;
            }
        report.attempted += kBurst;
    } while (secondsSince(t_measure) < opts.seconds &&
             secondsSince(t_measure) < kMaxMeasureSeconds);
    const telemetry::Snapshot after = telemetry::snapshot();
    // Before the check below: its Train-mode forwards keep whole-
    // sequence activations alive, which is the checker's memory.
    const double peak_rss_mb = peakRssMb();

    // Sampled exactness check against the KV-free forward.
    Rng pick(subSeed(opts.seed, 12));
    for (int k = 0; k < kTokenChecks; ++k) {
        const size_t i = static_cast<size_t>(
            pick.nextBelow(static_cast<uint64_t>(kBurst)));
        report.fail(
            checkEmittedTokens(*setup.model, burst[i], rounds.front()[i]));
    }

    std::vector<double> itl, ttft;
    std::vector<int32_t> all_tokens;
    double elapsed = 0.0, prefill_s = 0.0, decode_s = 0.0;
    int64_t emitted = 0, prefilled = 0, decode_steps = 0, requests = 0;
    int64_t peak_pages = 0;
    for (size_t r = 0; r < rounds.size(); ++r) {
        for (const serve::RequestResult &res : rounds[r]) {
            ttft.push_back(res.ttft_s);
            itl.insert(itl.end(), res.itl_s.begin(), res.itl_s.end());
        }
        const serve::ServeStats &s = stats[r];
        elapsed += s.elapsed_s;
        prefill_s += s.prefill_s;
        decode_s += s.decode_s;
        emitted += s.decode_tokens;
        prefilled += s.prefill_tokens;
        decode_steps += s.decode_steps;
        requests += s.requests;
        peak_pages = std::max(peak_pages, s.peak_kv_pages);
    }
    for (const serve::RequestResult &res : rounds.front())
        all_tokens.insert(all_tokens.end(), res.tokens.begin(),
                          res.tokens.end());
    const double tokens_per_s = static_cast<double>(emitted) / elapsed;
    std::printf("serve: rounds=%zu requests=%lld tokens=%lld itl-samples=%zu "
                "ttft-p50 %.3f ms token-digest %016llx\n",
                rounds.size(), static_cast<long long>(requests),
                static_cast<long long>(emitted), itl.size(),
                percentile(ttft, 0.5) * 1e3,
                static_cast<unsigned long long>(digest(all_tokens)));

    if (!opts.trace) {
        report.add("setup_s", setup_s, "s");
        report.add("peak_rss_mb", peak_rss_mb, "MB");
        report.add("tokens_per_s", tokens_per_s, "tokens/s");
        report.add("latency_ms_p50", percentile(itl, 0.5) * 1e3, "ms");
        report.add("latency_ms_tail", percentile(itl, kTailQuantile) * 1e3,
                   "ms");
        return report;
    }

    LayerMetrics lm;
    lm.serve_prefill_tokens_per_s =
        prefill_s > 0 ? static_cast<double>(prefilled) / prefill_s : 0.0;
    const double steps = static_cast<double>(decode_steps);
    lm.serve_decode_step_ms = decode_s * 1e3 / steps;
    // decode_tokens counts each request's prefill token too.
    lm.serve_decode_width = static_cast<double>(emitted - requests) / steps;
    lm.serve_ttft_ms_p50 = percentile(ttft, 0.5) * 1e3;
    lm.kv_pages_peak = static_cast<double>(peak_pages);
    const KvProbe kp = probeKvCache(mc, kMaxSeq, subSeed(opts.seed, 13));
    lm.kv_append_ns_per_row = kp.append_ns_per_row;
    lm.kv_gather_ns_per_token = kp.gather_ns_per_token;
    const QuantProbe qp = probeQuantizer(
        *setup.model, setup.model->currentScheme(), kConcurrency,
        /*fwd_only=*/true, subSeed(opts.seed, 14));
    lm.quant_nearest_ns_per_elem = qp.nearest_ns_per_elem;
    lm.fromTelemetry(before, after, steps, threads);
    lm.traced_tokens_per_s = tokens_per_s;
    lm.emit(report);
    if (!opts.trace_out.empty()) {
        if (spans.write(opts.trace_out))
            std::printf("serve: spans written to %s\n",
                        opts.trace_out.c_str());
        else
            report.fail({"cannot write " + opts.trace_out});
    }
    return report;
}

int
selftestServe()
{
    int failures = 0;
    const auto expect = [&](bool ok, const std::string &what) {
        std::printf("selftest %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };
    const ModelConfig mc = serveModel();
    const int64_t vocab = mc.vocab_size;
    const std::vector<serve::ServeRequest> all = makeBurst(5, 12, vocab);
    ServeSetup s = makeServeSetup(5, serve::KvCacheMode::Fp8, all);
    const std::vector<serve::ServeRequest> reqs(all.begin(), all.begin() + 6);
    const auto results = runBurst(*s.engine, reqs);
    const serve::ServeStats stats = s.engine->stats();
    const int64_t pages = s.engine->kvCache().pagesInUse();

    expect(checkServeRound(reqs, results, stats, pages, vocab).empty(),
           "serve_fp8kv: checks pass on a real burst");
    bool tokens_ok = true;
    for (size_t i = 0; i < reqs.size(); ++i)
        tokens_ok &= checkEmittedTokens(*s.model, reqs[i], results[i]).empty();
    expect(tokens_ok, "serve_fp8kv: every emitted token matches the "
                      "KV-free forward within tolerance");

    // Flip one emitted token to the exact forward's least likely token.
    {
        auto bad = results;
        const serve::ServeRequest &q = reqs[0];
        std::vector<int32_t> seq = q.prompt;
        seq.insert(seq.end(), bad[0].tokens.begin(), bad[0].tokens.end() - 1);
        const Tensor logits = s.model->forward(
            seq, 1, static_cast<int64_t>(seq.size()), ForwardMode::Train);
        const size_t j = bad[0].tokens.size() / 2;
        const float *row =
            logits.data() + (static_cast<int64_t>(q.prompt.size()) - 1 +
                             static_cast<int64_t>(j)) * vocab;
        bad[0].tokens[j] = static_cast<int32_t>(
            std::min_element(row, row + vocab) - row);
        expect(!checkEmittedTokens(*s.model, q, bad[0]).empty(),
               "a flipped emitted token fails the forward check");
    }
    {
        auto bad = results;
        bad[1].tokens.pop_back();
        expect(!checkServeRound(reqs, bad, stats, pages, vocab).empty(),
               "a short generation fails");
    }
    {
        auto bad = results;
        bad[2].status = serve::RequestStatus::Preempted;
        expect(!checkServeRound(reqs, bad, stats, pages, vocab).empty(),
               "a request that did not end ok fails");
    }
    {
        auto bad = results;
        bad[3].tokens[0] = static_cast<int32_t>(vocab);
        expect(!checkServeRound(reqs, bad, stats, pages, vocab).empty(),
               "a token outside the vocabulary fails");
    }
    expect(!checkServeRound(reqs, results, stats, 1, vocab).empty(),
           "a KV page left in use fails");
    {
        serve::ServeStats bad = stats;
        bad.decode_tokens += 1;
        expect(!checkServeRound(reqs, results, bad, pages, vocab).empty(),
               "engine token counts that do not add up fail");
    }
    return failures;
}

} // namespace e2e
} // namespace snip
