/**
 * perfbench: runs one benchmark workload through SearchPolicy::tune() and
 * prints the run's raw measurements as one JSON object on the last line of
 * stdout (perfbench/run.py turns them into the benchmark's metrics).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *   perfbench --workload NAME --seed N --setup-only
 *
 * --trace 0 times repeated tune() calls with observability off. --trace 1
 * splits the budget: untraced calls, then calls traced with a
 * wall-clock Tracer and a MetricsRegistry (each trace written to DIR as
 * Chrome trace JSON), then the layer probes. Either way every result is
 * checked: the result fingerprint must repeat across all calls (traced or
 * not, and for a multi-worker workload also in one serial run pinned to
 * the same clock lanes), the final latency must be finite and no nn kernel
 * tier may have been demoted. Exits 1 if a check fails, 2 on bad usage.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace pruner;
using perfbench::PreparedWorkload;

namespace {

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
nowSeconds()
{
    return static_cast<double>(steadyNs()) * 1e-9;
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/** FNV-1a over the bits of everything a tuning trajectory decides. */
std::string
fingerprint(const TuneResult& r)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    auto mixDouble = [&](double d) {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    };
    mixDouble(r.final_latency);
    mix(r.best_per_task.size());
    for (const double best : r.best_per_task) {
        mixDouble(best);
    }
    mix(r.curve.size());
    for (const CurvePoint& p : r.curve) {
        mixDouble(p.time_s);
        mixDouble(p.latency_s);
    }
    mix(r.trials);
    mix(r.failed_trials);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

std::string
jsonString(const std::string& v)
{
    std::string quoted = "\"";
    for (const char c : v) {
        if (c == '"' || c == '\\') {
            quoted += '\\';
        }
        quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return quoted + "\"";
}

/** Minimal JSON object writer (numbers keep all 17 digits). */
class JsonObject
{
  public:
    JsonObject& num(const std::string& key, double v)
    {
        char buf[40];
        if (std::isfinite(v)) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
        } else {
            std::snprintf(buf, sizeof(buf), "null");
        }
        return raw(key, buf);
    }
    JsonObject& str(const std::string& key, const std::string& v)
    {
        return raw(key, jsonString(v));
    }
    JsonObject& raw(const std::string& key, const std::string& json)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<std::string>& items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
        out += (i != 0 ? "," : "") + items[i];
    }
    return out + "]";
}

/** Failed output checks, in the order they were found. */
class Checks
{
  public:
    bool expect(bool ok, const std::string& what)
    {
        if (!ok) {
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
            failures_.push_back(what);
        }
        return ok;
    }
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

struct TimedTune
{
    TuneResult result;
    double wall_s;
    double cpu_s;
    int64_t start_ns;
};

TimedTune
timedTune(const PreparedWorkload& prepared, const TuneOptions& opts)
{
    const auto policy = prepared.makePolicy();
    TimedTune out;
    out.cpu_s = cpuSeconds();
    out.start_ns = steadyNs();
    out.result = policy->tune(prepared.workload(), opts);
    out.wall_s = static_cast<double>(steadyNs() - out.start_ns) * 1e-9;
    out.cpu_s = cpuSeconds() - out.cpu_s;
    return out;
}

/** Call @p once until about @p seconds have passed (predicting the next
 *  call from the median so far), and at least @p min_calls times. */
void
repeatFor(double seconds, int min_calls, const std::function<void()>& once)
{
    const double start = nowSeconds();
    std::vector<double> calls;
    for (;;) {
        const double t0 = nowSeconds();
        once();
        calls.push_back(nowSeconds() - t0);
        std::vector<double> sorted = calls;
        std::sort(sorted.begin(), sorted.end());
        const double typical = sorted[sorted.size() / 2];
        if (static_cast<int>(calls.size()) >= min_calls &&
            nowSeconds() - start + typical > seconds) {
            return;
        }
    }
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out_dir = ".";
    bool setup_only = false;
};

bool
parseArgs(int argc, char** argv, Args* args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args->setup_only = true;
            continue;
        }
        if (i + 1 >= argc) {
            return false;
        }
        const char* value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args->seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            args->trace = static_cast<int>(std::strtol(value, &end, 10));
        } else if (flag == "--out") {
            args->out_dir = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0') {
            return false;
        }
    }
    return !args->workload.empty() && args->seconds > 0.0 &&
           (args->trace == 0 || args->trace == 1);
}

/** Counters and gauges of a registry, as a JSON object. */
std::string
registryJson(const obs::MetricsRegistry& registry)
{
    const obs::MetricsSnapshot snap = registry.snapshot();
    JsonObject out;
    for (const auto& c : snap.counters) {
        out.num(c.name, static_cast<double>(c.value));
    }
    for (const auto& g : snap.gauges) {
        out.num(g.name, static_cast<double>(g.value));
    }
    return out.text();
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "[--seconds S --trace 0|1 --out DIR | --setup-only]\n");
        return 2;
    }
    const perfbench::WorkloadSpec* spec =
        perfbench::findWorkload(args.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    // --- Set-up: workload build, kernel self-checks, MoA pretraining,
    // first policy. run.py times it from process start to setup_end_ns.
    Checks checks;
    const PreparedWorkload prepared(*spec, args.seed);
    checks.expect(nnkernel::kernelTierDemotions() == 0,
                  "an nn kernel tier was demoted at start-up");
    const TuneOptions base = prepared.options();
    if (args.setup_only) {
        prepared.makePolicy();
        std::printf("%s\n",
                    JsonObject()
                        .num("setup_end_ns", static_cast<double>(steadyNs()))
                        .text()
                        .c_str());
        return checks.failures().empty() ? 0 : 1;
    }

    std::string reference_fp;
    int attempted = 0;
    int failed = 0;
    TuneResult first_result;
    auto check = [&](const TimedTune& t, const char* what) {
        ++attempted;
        const TuneResult& r = t.result;
        const std::string fp = fingerprint(r);
        if (reference_fp.empty()) {
            reference_fp = fp;
            first_result = r;
        }
        bool ok = checks.expect(!r.failed, std::string(what) +
                                               ": tune() failed: " +
                                               r.failure_reason);
        ok = checks.expect(std::isfinite(r.final_latency),
                           std::string(what) + ": final latency not finite") &&
             ok;
        ok = checks.expect(fp == reference_fp,
                           std::string(what) + ": fingerprint " + fp +
                               " != " + reference_fp) &&
             ok;
        failed += ok ? 0 : 1;
    };

    int64_t setup_end_ns = 0;
    std::vector<std::string> untraced;
    auto untracedCall = [&]() {
        const TimedTune t = timedTune(prepared, base);
        if (setup_end_ns == 0) {
            setup_end_ns = t.start_ns;
        }
        check(t, "untraced tune");
        untraced.push_back(JsonObject()
                               .num("wall_s", t.wall_s)
                               .num("cpu_s", t.cpu_s)
                               .text());
    };
    // The traced run keeps untraced calls only for the overhead ratio and
    // the traced/untraced fingerprint check.
    const double share = args.trace == 1 ? 0.35 : 1.0;
    repeatFor(args.seconds * share, args.trace == 1 ? 2 : 3, untracedCall);

    std::vector<std::string> traced;
    std::string registry;
    std::string probes;
    if (args.trace == 1) {
        std::string deterministic_registry;
        int index = 0;
        repeatFor(args.seconds * share, 2, [&]() {
            obs::Tracer tracer(/*capture_wall=*/true);
            obs::MetricsRegistry metrics;
            TuneOptions opts = base;
            opts.tracer = &tracer;
            opts.metrics = &metrics;
            const TimedTune t = timedTune(prepared, opts);
            check(t, "traced tune");
            const std::string det = metrics.renderText(true);
            if (registry.empty()) {
                registry = registryJson(metrics);
                deterministic_registry = det;
            }
            checks.expect(det == deterministic_registry,
                          "deterministic registry differs between traced "
                          "calls");
            const std::string path = args.out_dir + "/trace_" +
                                     std::to_string(index++) + ".json";
            std::ofstream(path) << tracer.chromeTrace(true);
            traced.push_back(JsonObject()
                                 .num("wall_s", t.wall_s)
                                 .str("trace", path)
                                 .text());
        });
        JsonObject probe_json;
        for (const auto& p :
             perfbench::runProbes(prepared, args.seconds * (1 - 2 * share))) {
            probe_json.raw(p.name, JsonObject()
                                       .num("value", p.value)
                                       .str("unit", p.unit)
                                       .text());
        }
        probes = probe_json.text();
    }

    if (spec->workers > 1) {
        // Untimed serial run pinned to the same simulated clock lanes: the
        // worker count must not change the trajectory.
        TuneOptions serial = base;
        serial.measure_workers = 1;
        serial.clock_lanes = spec->workers;
        check(timedTune(prepared, serial), "serial reference tune");
    }
    checks.expect(nnkernel::kernelTierDemotions() == 0,
                  "an nn kernel tier was demoted");

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    std::vector<std::string> failures;
    for (const std::string& f : checks.failures()) {
        failures.push_back(jsonString(f));
    }
    JsonObject out;
    out.str("workload", spec->name)
        .num("seed", static_cast<double>(args.seed))
        .num("setup_end_ns", static_cast<double>(setup_end_ns))
        .str("fingerprint", reference_fp)
        .num("attempted", attempted)
        .num("failed", failed)
        .raw("check_failures", jsonArray(failures))
        .num("peak_rss_kb", static_cast<double>(usage.ru_maxrss))
        .num("final_latency_s", first_result.final_latency)
        .num("sim_search_s", first_result.total_time_s)
        .num("sim_exploration_s", first_result.exploration_s)
        .num("sim_training_s", first_result.training_s)
        .num("sim_measurement_s", first_result.measurement_s)
        .raw("untraced", jsonArray(untraced));
    if (args.trace == 1) {
        out.raw("traced", jsonArray(traced))
            .raw("registry", registry)
            .raw("probes", probes);
    }
    std::printf("%s\n", out.text().c_str());
    return checks.failures().empty() ? 0 : 1;
}
