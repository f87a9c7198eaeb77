/**
 * @file
 * Shared pieces of the end-to-end benchmark program: options, the
 * result report, the in-memory span recorder, percentiles and the
 * process-level measurements (peak RSS, output digests).
 *
 * The benchmark sits outside the library: it only calls public entry
 * points (Trainer, SnipController, serve::Engine, FakeQuantizer,
 * serve::KvCache, telemetry::snapshot()) and never edits src/.
 */
#ifndef SNIP_E2EBENCH_COMMON_H
#define SNIP_E2EBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace snip {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace-event file the traced run writes its spans to. */
    std::string trace_out;
    /** Reference runs only: serve through the FP32 KV cache. */
    bool kv_fp32 = false;
};

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one run: counts, metrics and failed output checks. */
struct Report
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;

    void add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record failed checks (each problem is one line of text). */
    void fail(const std::vector<std::string> &found)
    {
        problems.insert(problems.end(), found.begin(), found.end());
    }
    bool correct() const { return problems.empty(); }
};

/** Print the problems and the one-line JSON result (last stdout
 *  line). */
void printResult(const Report &report);

/**
 * In-memory span recorder. Spans are kept whole (nothing wraps or is
 * dropped) and written once at the end as Chrome trace events, the
 * format tools/trace_report.py reads. A disabled recorder costs one
 * branch per scope and records nothing.
 */
class Spans
{
  public:
    struct Span
    {
        const char *cat;
        const char *name;
        int64_t start_ns;
        int64_t dur_ns;
        int64_t arg;
    };

    class Scope
    {
      public:
        Scope(Spans *spans, const char *cat, const char *name,
              int64_t arg);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *spans_;
        const char *cat_;
        const char *name_;
        int64_t arg_;
        Clock::time_point t0_;
    };

    explicit Spans(bool enabled);

    /** Open a span closed at the end of the enclosing scope. Names
     *  must be string literals. */
    Scope scope(const char *cat, const char *name, int64_t arg = 0)
    {
        return Scope(enabled_ ? this : nullptr, cat, name, arg);
    }

    /** Total milliseconds and count of spans named @p name. */
    double totalMs(const char *name) const;
    int64_t count(const char *name) const;

    /** Write {"traceEvents": [...]}; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** Nearest-rank percentile (q in (0, 1]) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double q);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &v);

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** FNV-1a over the bit patterns of @p v (output fingerprints). */
uint64_t digest(const std::vector<double> &v);
uint64_t digest(const std::vector<int32_t> &v);

/** Independent sub-seed for @p stream derived from the run seed. */
uint64_t subSeed(uint64_t seed, uint64_t stream);

/** Median of @p reps wall-clock seconds of @p fn (set-up timing). */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        t.push_back(secondsSince(t0));
    }
    return percentile(t, 0.5);
}

// ------------------------------------------------------- workloads

/** train_snip75 / train_fp8. */
Report runTrain(const Options &opts);
/** serve_fp8kv. */
Report runServe(const Options &opts);

/** Short runs plus corrupted-result cases of every output check;
 *  returns the number of self-test failures. */
int selftestTrain();
int selftestServe();

} // namespace e2e
} // namespace snip

#endif // SNIP_E2EBENCH_COMMON_H
