#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace snip {
namespace e2e {

void
printResult(const Report &report)
{
    for (const std::string &p : report.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
    std::string json = "{\"correct\": ";
    json += report.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        char value[64];
        // Non-finite values are not JSON; they can only come from a
        // broken measurement, which the checks already reject.
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof value, "%.17g", m.value);
        else
            std::snprintf(value, sizeof value, "null");
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

Spans::Scope::Scope(Spans *spans, const char *cat, const char *name,
                    int64_t arg)
    : spans_(spans), cat_(cat), name_(name), arg_(arg)
{
    if (spans_ != nullptr)
        t0_ = Clock::now();
}

Spans::Scope::~Scope()
{
    if (spans_ == nullptr)
        return;
    const auto t1 = Clock::now();
    using std::chrono::duration_cast;
    using std::chrono::nanoseconds;
    spans_->spans_.push_back(
        {cat_, name_,
         duration_cast<nanoseconds>(t0_ - spans_->epoch_).count(),
         duration_cast<nanoseconds>(t1 - t0_).count(), arg_});
}

Spans::Spans(bool enabled) : enabled_(enabled), epoch_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

double
Spans::totalMs(const char *name) const
{
    int64_t ns = 0;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            ns += s.dur_ns;
    return static_cast<double>(ns) * 1e-6;
}

int64_t
Spans::count(const char *name) const
{
    int64_t n = 0;
    for (const Span &s : spans_)
        n += std::strcmp(s.name, name) == 0 ? 1 : 0;
    return n;
}

bool
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n"
                    "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
                    "\"thread_name\", \"args\": {\"name\": \"bench\"}}");
    for (const Span &s : spans_) {
        std::fprintf(f,
                     ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"cat\": \"%s\", \"name\": \"%s\", \"ts\": %.3f, "
                     "\"dur\": %.3f, \"args\": {\"n\": %lld}}",
                     s.cat, s.name, static_cast<double>(s.start_ns) * 1e-3,
                     static_cast<double>(s.dur_ns) * 1e-3,
                     static_cast<long long>(s.arg));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

namespace {

uint64_t
fnv1a(const void *data, size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

uint64_t
digest(const std::vector<double> &v)
{
    return fnv1a(v.data(), v.size() * sizeof(double));
}

uint64_t
digest(const std::vector<int32_t> &v)
{
    return fnv1a(v.data(), v.size() * sizeof(int32_t));
}

uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    // splitmix64 of (seed, stream): distinct, well-mixed sub-seeds.
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace e2e
} // namespace snip
