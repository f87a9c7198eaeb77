/**
 * @file
 * snip_e2e: the end-to-end benchmark program.
 *
 *   snip_e2e --workload <train_snip75|train_fp8|serve_fp8kv>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <spans.json>] [--kv fp32]
 *   snip_e2e --selftest
 *
 * Prints the run's configuration and checks, then, as its last line,
 * one JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. Exits 1 when an output check fails, 2 on bad usage or a
 * refused environment.
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "runtime/env_config.h"
#include "runtime/thread_pool.h"

namespace {

using snip::runtime::EnvKnob;

/** Pool size when SNIP_THREADS is unset. */
constexpr int kThreads = 1;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "snip_e2e: %s\nusage: snip_e2e --workload "
                 "<train_snip75|train_fp8|serve_fp8kv> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>] "
                 "[--kv fp32]\n       snip_e2e --selftest\n",
                 msg);
    return 2;
}

bool
armed(const EnvKnob &knob)
{
    return knob.set && !knob.value.empty() && knob.value != "off" &&
           knob.value != "0";
}

bool
parseNumber(const char *text, double *out)
{
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace snip;
    e2e::Options opts;
    bool selftest = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest") {
            selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--seed" && parseNumber(value, &number) &&
                   number >= 0) {
            opts.seed = static_cast<uint64_t>(number);
            have_seed = true;
        } else if (arg == "--seconds" && parseNumber(value, &number) &&
                   number > 0 && number <= 120) {
            opts.seconds = number;
            have_seconds = true;
        } else if (arg == "--trace" && (std::string(value) == "0" ||
                                        std::string(value) == "1")) {
            opts.trace = std::string(value) == "1";
            have_trace = true;
        } else if (arg == "--trace-out") {
            opts.trace_out = value;
        } else if (arg == "--kv" && std::string(value) == "fp32") {
            opts.kv_fp32 = true;
        } else {
            return usage(("bad argument " + arg + " " + value).c_str());
        }
    }

    const runtime::EnvConfig &env = runtime::envConfig();
    std::printf("%s", env.dump().c_str());
    // Measured numbers must come from the plain program: an armed
    // fault schedule changes behaviour, and the library's own tracer
    // or telemetry add overhead the end-to-end metrics must not carry.
    for (const auto &[name, knob] :
         {std::pair<const char *, const EnvKnob &>{"SNIP_FAULT", env.fault()},
          {"SNIP_TRACE", env.trace()},
          {"SNIP_TELEMETRY", env.telemetry()}}) {
        if (armed(knob)) {
            std::fprintf(stderr, "snip_e2e: refusing to run with %s=%s "
                                 "armed\n",
                         name, knob.value.c_str());
            return 2;
        }
    }
    std::string knobs;
    for (const auto &[name, knob] :
         {std::pair<const char *, const EnvKnob &>{"SNIP_THREADS",
                                                   env.threadsKnob()},
          {"SNIP_SIMD", env.simd()},
          {"SNIP_GEMM_PACK", env.gemmPack()},
          {"SNIP_ATTN", env.attn()},
          {"SNIP_KV_CACHE", env.kvCache()},
          {"SNIP_KV_PAGE", env.kvPage()}}) {
        if (knob.set)
            knobs += std::string(" ") + name + "=" + knob.value;
    }
    // A fixed pool size keeps the workload the same on every host. On
    // a shared 4-vCPU host the quartile spread of ten runs was at most
    // 9% with 1 thread but up to 25% with 2 (4 threads swung train_fp8
    // throughput 2x); SNIP_THREADS overrides.
    if (!env.threadsKnob().set)
        runtime::setGlobalThreadCount(kThreads);
    std::printf("knobs:%s\nthreads: %d%s\n",
                knobs.empty() ? " (all default)" : knobs.c_str(),
                runtime::globalThreadPool().numThreads(),
                env.threadsKnob().set ? " (SNIP_THREADS)"
                                      : " (benchmark default)");

    if (selftest) {
        const int failures = e2e::selftestTrain() + e2e::selftestServe();
        std::printf("selftest: %d failure(s)\n", failures);
        return failures == 0 ? 0 : 1;
    }
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    e2e::Report report;
    if (opts.workload == "train_snip75" || opts.workload == "train_fp8")
        report = e2e::runTrain(opts);
    else if (opts.workload == "serve_fp8kv")
        report = e2e::runServe(opts);
    else
        return usage(("unknown workload " + opts.workload).c_str());
    e2e::printResult(report);
    return report.correct() ? 0 : 1;
}
