/**
 * @file
 * The training workloads, train_snip75 and train_fp8.
 *
 * Both train tinyllama_sim (batch 4 x 32 tokens) from a BF16 warm-up
 * built in memory, in rounds: every round restores the warm-up
 * snapshot and trains kRoundSteps steps, so every round of a run sees
 * the same data and must produce bit-identical losses. train_snip75
 * runs an inline SnipController at a 75% FP4-FLOP target with an
 * update every kUpdateInterval steps; train_fp8 trains under uniform
 * FP8 with no controller.
 *
 * The measured run calls Trainer::trainStep (with the controller).
 * The traced run performs the same step through its public parts —
 * collectTrainingStats, runNoiseProbe, DivergenceAnalyzer::analyze,
 * selectScheme, LlamaModel::forwardLoss/backward, AdamW::step — inside
 * benchmark spans; the self-test pins both paths to identical losses.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "core/controller.h"
#include "core/divergence.h"
#include "core/noise_probe.h"
#include "core/stats_collector.h"
#include "optim/lr_schedule.h"
#include "probes.h"
#include "runtime/thread_pool.h"
#include "train/presets.h"
#include "train/trainer.h"
#include "util/string_util.h"

namespace snip {
namespace e2e {
namespace {

/** BF16 steps of the in-memory warm-up; a multiple of the update
 *  interval, so every throughput window holds exactly one update. */
constexpr int64_t kWarmupSteps = 8;
/** Steps per round; each round restarts from the warm-up snapshot. */
constexpr int64_t kRoundSteps = 80;
/** Steps between SNIP scheme updates: 10 of a round's 80 steps
 *  (12.5%) are update steps, so the p90 tail falls among them. */
constexpr int64_t kUpdateInterval = 8;
constexpr double kFp4Target = 0.75;
/** Loss window of the convergence check (first vs last). */
constexpr int64_t kLossWindow = 10;
constexpr int kSetupReps = 5;
/** Tail = nearest-rank p90, which needs >= 100 step samples. */
constexpr double kTailQuantile = 0.90;
constexpr size_t kMinSteps = 100;
/** Hard stop of the measured loop, far inside the run time limit. */
constexpr double kMaxMeasureSeconds = 120.0;

TrainerConfig
trainConfig(uint64_t seed)
{
    TrainerConfig cfg = trainerPreset(tinyllamaSim());
    cfg.data_seed = subSeed(seed, 3);
    return cfg;
}

SnipController::Config
controllerConfig()
{
    SnipController::Config cc;
    cc.target_fp4_fraction = kFp4Target;
    cc.update_interval = kUpdateInterval;
    cc.update_at_start = true;
    return cc;
}

/** What one round produced. */
struct RoundLog
{
    std::vector<double> losses;
    std::vector<double> step_s;
    /** FP4 FLOP fraction of every scheme applied to the model. */
    std::vector<double> applied_fp4;
    /** ILP nodes of every update (traced rounds). */
    std::vector<double> ilp_nodes;
    int skipped_updates = 0;
};

/** Run one round. @p spans null = the measured path through
 *  Trainer::trainStep; otherwise the decomposed, traced path. */
void
runRound(Trainer &trainer, const TrainerSnapshot &snap, bool snip,
         int64_t steps, Spans *spans, RoundLog &log)
{
    trainer.restore(snap);
    LlamaModel &model = trainer.model();
    const FlopsModel flops(model.registry());
    if (!snip) {
        trainer.applyScheme(PrecisionScheme::uniform(
            static_cast<size_t>(model.registry().numLinear()),
            Precision::FP8));
    }

    if (spans == nullptr) {
        std::unique_ptr<SnipController> ctl;
        if (snip)
            ctl = std::make_unique<SnipController>(controllerConfig());
        int resolved = 0;
        for (int64_t i = 0; i < steps; ++i) {
            const auto t0 = Clock::now();
            const double loss = trainer.trainStep(ctl.get());
            log.step_s.push_back(secondsSince(t0));
            log.losses.push_back(loss);
            if (ctl && ctl->totals().updates + ctl->totals().skipped !=
                           resolved) {
                resolved = ctl->totals().updates + ctl->totals().skipped;
                log.applied_fp4.push_back(
                    flops.fp4Fraction(model.currentScheme()));
            }
        }
        log.skipped_updates = ctl ? ctl->totals().skipped : 0;
        return;
    }

    // Traced: Trainer::trainStep + SnipController's inline update,
    // call for call, with a span around each public call.
    const TrainerConfig &cfg = trainer.config();
    const LrSchedule lr(cfg.lr_kind, cfg.adamw.lr, cfg.lr_total_steps,
                        cfg.lr_warmup_steps);
    const SnipController::Config cc = controllerConfig();
    AdamW &opt = trainer.optimizer();
    bool has_scheme = false;
    for (int64_t i = 0; i < steps; ++i) {
        const int64_t step = snap.step + i;
        const auto t0 = Clock::now();
        {
            auto step_span = spans->scope("train", "step", step);
            const Batch batch = trainer.nextBatch();
            if (snip && (!has_scheme || (step > 0 &&
                                         step % cc.update_interval == 0))) {
                auto update_span = spans->scope("core", "update", step);
                TrainingStats stats;
                ProbeResult bwd, fwd;
                DivergenceTable table;
                SchemeSelection sel;
                {
                    auto s = spans->scope("core", "stats", step);
                    StatsOptions so;
                    so.pool = &trainer.pool();
                    stats = collectTrainingStats(model, &opt, batch, so);
                }
                {
                    auto s = spans->scope("core", "probe", step);
                    bwd = runNoiseProbe(model, batch, stats,
                                        ProbeKind::Backward, cc.probe);
                    fwd = runNoiseProbe(model, batch, stats,
                                        ProbeKind::Forward, cc.probe);
                }
                {
                    auto s = spans->scope("core", "analyze", step);
                    DivergenceOptions dopts;
                    dopts.metric = cc.metric;
                    dopts.weight_div_scale = cc.weight_div_scale;
                    const DivergenceAnalyzer analyzer(stats, &bwd, &fwd,
                                                      flops);
                    table = analyzer.analyze(makeOptionSet(cc.option_set),
                                             dopts);
                }
                {
                    auto s = spans->scope("ilp", "solve", step);
                    sel = selectScheme(table, cc.target_fp4_fraction, flops,
                                       cc.solve, cc.pipeline);
                }
                model.setScheme(sel.scheme);
                has_scheme = true;
                log.ilp_nodes.push_back(
                    static_cast<double>(sel.ilp.nodes_explored));
                log.applied_fp4.push_back(
                    flops.fp4Fraction(model.currentScheme()));
            }
            LossResult loss;
            {
                auto s = spans->scope("train", "fwd", step);
                model.zeroGrad();
                loss = model.forwardLoss(batch.tokens, batch.targets,
                                         batch.batch, batch.seq);
            }
            {
                auto s = spans->scope("train", "bwd", step);
                model.backward(loss.dlogits);
            }
            {
                auto s = spans->scope("train", "optim", step);
                opt.setLr(lr.at(step));
                opt.step();
            }
            telemetry::stepBoundary(step + 1);
            log.losses.push_back(loss.loss);
        }
        log.step_s.push_back(secondsSince(t0));
    }
}

/** In-memory warm-up: trainer built, BF16-trained, snapshotted, and
 *  one short warm-up pass of the workload itself run. */
struct Setup
{
    std::unique_ptr<Trainer> trainer;
    TrainerSnapshot snapshot;
    uint64_t warmup_digest = 0;
};

Setup
makeSetup(uint64_t seed, bool snip)
{
    Setup s;
    s.trainer = std::make_unique<Trainer>(trainConfig(seed));
    s.trainer->train(kWarmupSteps);
    s.snapshot = s.trainer->snapshot();
    s.warmup_digest = digest(s.trainer->lossHistory());
    RoundLog pass;
    runRound(*s.trainer, s.snapshot, snip, 2, nullptr, pass);
    return s;
}

/** Every loss finite; last window's mean below the first window's. */
std::vector<std::string>
checkLosses(const std::vector<double> &losses, int64_t window)
{
    std::vector<std::string> p;
    for (size_t i = 0; i < losses.size(); ++i)
        if (!std::isfinite(losses[i]))
            p.push_back(strformat("loss at step %zu is not finite", i));
    const size_t w = static_cast<size_t>(window);
    if (losses.size() < 2 * w) {
        p.push_back(strformat("only %zu losses for two windows of %zu",
                              losses.size(), w));
        return p;
    }
    const std::vector<double> first(losses.begin(), losses.begin() + w);
    const std::vector<double> last(losses.end() - w, losses.end());
    if (!(mean(last) < mean(first)))
        p.push_back(strformat("loss did not fall: first-window mean %.6f, "
                              "last-window mean %.6f",
                              mean(first), mean(last)));
    return p;
}

/** At least one update ran; every applied scheme meets the target. */
std::vector<std::string>
checkSchemes(const std::vector<double> &applied_fp4, double target)
{
    std::vector<std::string> p;
    if (applied_fp4.empty())
        p.push_back("no scheme update ran");
    for (size_t i = 0; i < applied_fp4.size(); ++i)
        if (!(applied_fp4[i] >= target))
            p.push_back(strformat("applied scheme %zu has FP4 FLOP "
                                  "fraction %.6f < target %.2f",
                                  i, applied_fp4[i], target));
    return p;
}

/** Every output check of one round. */
std::vector<std::string>
checkRound(const RoundLog &round, const RoundLog &first, bool snip,
           int64_t window)
{
    std::vector<std::string> p = checkLosses(round.losses, window);
    if (snip) {
        const auto s = checkSchemes(round.applied_fp4, kFp4Target);
        p.insert(p.end(), s.begin(), s.end());
        if (round.skipped_updates > 0)
            p.push_back(strformat("%d scheme updates failed and were "
                                  "skipped",
                                  round.skipped_updates));
    }
    if (round.losses != first.losses)
        p.push_back("round losses differ from the first round's "
                    "(same snapshot, same data)");
    return p;
}

} // namespace

Report
runTrain(const Options &opts)
{
    const bool snip = opts.workload == "train_snip75";
    Report report;
    if (opts.trace) {
        telemetry::Config tc;
        tc.enabled = true; // in memory; totals read via snapshot()
        telemetry::configure(tc);
    }

    Setup setup;
    std::vector<uint64_t> warmups;
    const double setup_s = medianSeconds(kSetupReps, [&](int) {
        setup = makeSetup(opts.seed, snip);
        warmups.push_back(setup.warmup_digest);
    });
    for (uint64_t d : warmups)
        if (d != warmups.front())
            report.fail({"warm-up losses differ between set-ups"});

    Trainer &trainer = *setup.trainer;
    const int threads = trainer.pool().numThreads();
    const TrainerConfig &cfg = trainer.config();
    const int64_t tokens_per_step = cfg.batch_size * cfg.corpus.seq_len;
    std::printf("train: workload=%s seed=%llu threads=%d model=%s "
                "blocks=%lld d_model=%lld batch=%lldx%lld warmup=%lld "
                "round=%lld interval=%s target=%s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), threads,
                cfg.model.name.c_str(),
                static_cast<long long>(cfg.model.n_blocks),
                static_cast<long long>(cfg.model.d_model),
                static_cast<long long>(cfg.batch_size),
                static_cast<long long>(cfg.corpus.seq_len),
                static_cast<long long>(kWarmupSteps),
                static_cast<long long>(kRoundSteps),
                snip ? std::to_string(kUpdateInterval).c_str() : "none",
                snip ? "0.75" : "none");

    Spans spans(opts.trace);
    std::vector<RoundLog> rounds;
    size_t n_steps = 0;
    const telemetry::Snapshot before = telemetry::snapshot();
    const auto t_measure = Clock::now();
    do {
        rounds.emplace_back();
        runRound(trainer, setup.snapshot, snip, kRoundSteps,
                 opts.trace ? &spans : nullptr, rounds.back());
        report.fail(checkRound(rounds.back(), rounds.front(), snip,
                               kLossWindow));
        report.attempted += kRoundSteps;
        n_steps += kRoundSteps;
    } while ((secondsSince(t_measure) < opts.seconds ||
              n_steps < kMinSteps) &&
             secondsSince(t_measure) < kMaxMeasureSeconds);
    const telemetry::Snapshot after = telemetry::snapshot();

    std::vector<double> step_s, fp4;
    for (const RoundLog &r : rounds) {
        step_s.insert(step_s.end(), r.step_s.begin(), r.step_s.end());
        fp4.insert(fp4.end(), r.applied_fp4.begin(), r.applied_fp4.end());
    }
    // Throughput per window of kUpdateInterval steps (one update each
    // on train_snip75), median over the windows: a burst of load from
    // another process on the host slows a few windows, not the figure.
    std::vector<double> window_rates;
    for (const RoundLog &r : rounds)
        for (size_t w = 0; w + kUpdateInterval <= r.step_s.size();
             w += kUpdateInterval) {
            double t = 0.0;
            for (size_t i = w; i < w + kUpdateInterval; ++i)
                t += r.step_s[i];
            window_rates.push_back(
                static_cast<double>(kUpdateInterval * tokens_per_step) / t);
        }
    const double tokens_per_s = percentile(window_rates, 0.5);
    const RoundLog &first = rounds.front();
    std::printf("train: rounds=%zu steps=%zu loss first-window %.5f "
                "last-window %.5f loss-digest %016llx updates/round %zu "
                "min-fp4 %.4f\n",
                rounds.size(), n_steps,
                mean({first.losses.begin(),
                      first.losses.begin() + kLossWindow}),
                mean({first.losses.end() - kLossWindow, first.losses.end()}),
                static_cast<unsigned long long>(digest(first.losses)),
                first.applied_fp4.size(),
                fp4.empty() ? 0.0
                            : *std::min_element(fp4.begin(), fp4.end()));

    if (!opts.trace) {
        report.add("setup_s", setup_s, "s");
        report.add("peak_rss_mb", peakRssMb(), "MB");
        report.add("tokens_per_s", tokens_per_s, "tokens/s");
        report.add("latency_ms_p50", percentile(step_s, 0.5) * 1e3, "ms");
        report.add("latency_ms_tail", percentile(step_s, kTailQuantile) * 1e3,
                   "ms");
        std::printf("train: %zu step samples, tail = p90\n", step_s.size());
        return report;
    }

    LayerMetrics lm;
    const double steps = static_cast<double>(n_steps);
    lm.train_fwd_ms = spans.totalMs("fwd") / steps;
    lm.train_bwd_ms = spans.totalMs("bwd") / steps;
    lm.train_optim_ms = spans.totalMs("optim") / steps;
    const int64_t updates = spans.count("update");
    if (updates > 0) {
        const double u = static_cast<double>(updates);
        lm.core_update_ms = spans.totalMs("update") / u;
        lm.core_stats_ms = spans.totalMs("stats") / u;
        lm.core_probe_ms = spans.totalMs("probe") / u;
        lm.core_analyze_ms = spans.totalMs("analyze") / u;
        lm.ilp_solve_ms = spans.totalMs("solve") / u;
        std::vector<double> nodes;
        for (const RoundLog &r : rounds)
            nodes.insert(nodes.end(), r.ilp_nodes.begin(),
                         r.ilp_nodes.end());
        lm.ilp_nodes = mean(nodes);
    }
    const QuantProbe qp =
        probeQuantizer(trainer.model(), trainer.model().currentScheme(),
                       tokens_per_step, /*fwd_only=*/false,
                       subSeed(opts.seed, 4));
    lm.quant_sr_ns_per_elem = qp.sr_ns_per_elem;
    lm.quant_sr_elems_per_step = qp.sr_elems_per_step;
    lm.quant_nearest_ns_per_elem = qp.nearest_ns_per_elem;
    lm.fromTelemetry(before, after, steps, threads);
    lm.traced_tokens_per_s = tokens_per_s;
    lm.emit(report);
    if (!opts.trace_out.empty()) {
        if (spans.write(opts.trace_out))
            std::printf("train: spans written to %s\n",
                        opts.trace_out.c_str());
        else
            report.fail({"cannot write " + opts.trace_out});
    }
    return report;
}

int
selftestTrain()
{
    int failures = 0;
    const auto expect = [&](bool ok, const std::string &what) {
        std::printf("selftest %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };

    for (bool snip : {true, false}) {
        const std::string name = snip ? "train_snip75" : "train_fp8";
        Setup s = makeSetup(/*seed=*/3, snip);
        // Short rounds that still cross an update boundary.
        const int64_t steps = 2 * kUpdateInterval + 2;
        RoundLog measured, traced;
        runRound(*s.trainer, s.snapshot, snip, steps, nullptr, measured);
        Spans spans(true);
        runRound(*s.trainer, s.snapshot, snip, steps, &spans, traced);
        expect(checkRound(measured, measured, snip, 5).empty(),
               name + ": checks pass on a real round");
        expect(traced.losses == measured.losses,
               name + ": traced decomposition reproduces trainStep "
                      "losses bit for bit");
        expect(traced.applied_fp4 == measured.applied_fp4,
               name + ": traced decomposition applies the same schemes");
    }

    std::vector<double> good;
    for (int i = 0; i < 20; ++i)
        good.push_back(4.0 - 0.05 * i);
    expect(checkLosses(good, 5).empty(), "falling losses pass");
    std::vector<double> bad = good;
    bad[7] = std::nan("");
    expect(!checkLosses(bad, 5).empty(), "a NaN loss fails");
    bad = good;
    bad[3] = INFINITY;
    expect(!checkLosses(bad, 5).empty(), "an infinite loss fails");
    bad.assign(good.rbegin(), good.rend());
    expect(!checkLosses(bad, 5).empty(), "rising losses fail");
    expect(!checkLosses({4.0, 3.0}, 5).empty(), "too few losses fail");
    expect(checkSchemes({0.75, 0.81}, kFp4Target).empty(),
           "schemes at/above the FP4 target pass");
    expect(!checkSchemes({0.80, 0.7499}, kFp4Target).empty(),
           "a scheme below the FP4 target fails");
    expect(!checkSchemes({}, kFp4Target).empty(),
           "a run without scheme updates fails");
    RoundLog a, b;
    a.losses = good;
    b.losses = good;
    b.losses[11] = std::nextafter(b.losses[11], 0.0);
    expect(!checkRound(b, a, false, 5).empty(),
           "a round whose losses drift from the first round fails");
    return failures;
}

} // namespace e2e
} // namespace snip
