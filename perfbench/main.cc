/**
 * @file
 * tpred_perfbench: runs one benchmark workload as a closed batch in
 * this process and prints its metrics, last line a JSON object:
 *
 *   tpred_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --reference FILE --work-dir DIR [--tiny]
 *                   [--record-reference]
 *
 * --trace 0 times untraced repetitions and reports the end-to-end
 * metrics.  --trace 1 alternates untraced and traced repetitions and
 * reports the per-layer metrics: library counter/timer deltas and
 * span self times over the traced ones, plus the tracing overhead.
 * The spans are written to DIR/spans/ at exit.  perfbench/run.py
 * builds this binary and is the command BENCHMARK.json names.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel_runner.hh"
#include "instrument.hh"
#include "obs/metrics.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

namespace fs = std::filesystem;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    bool record = false;
    std::string reference;
    std::string workDir;
};

uint64_t
parseUnsigned(const std::string &text, const char *what)
{
    size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        throw std::invalid_argument(std::string("bad ") + what + ": '" +
                                    text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = parseUnsigned(value(), "--seed");
        else if (arg == "--seconds")
            o.seconds = static_cast<double>(
                parseUnsigned(value(), "--seconds"));
        else if (arg == "--trace")
            o.trace = parseUnsigned(value(), "--trace") != 0;
        else if (arg == "--tiny")
            o.tiny = true;
        else if (arg == "--record-reference")
            o.record = true;
        else if (arg == "--reference")
            o.reference = value();
        else if (arg == "--work-dir")
            o.workDir = value();
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (o.workload.empty() || o.workDir.empty() ||
        (o.reference.empty() && !o.record))
        throw std::invalid_argument(
            "need --workload, --work-dir and --reference");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** @p key's value in @p m, or 0 when absent. */
template <typename V>
V
valueOr0(const std::map<std::string, V> &m, const std::string &key)
{
    const auto it = m.find(key);
    return it == m.end() ? V{} : it->second;
}

/** SIMD ISA the simulator was compiled for (same flags as this TU). */
const char *
compiledIsa()
{
#if defined(__AVX512F__)
    return "avx512f";
#elif defined(__AVX2__)
    return "avx2";
#elif defined(__AVX__)
    return "avx";
#elif defined(__SSE2__)
    return "sse2";
#else
    return "generic";
#endif
}

std::map<std::string, std::string>
buildIdentity(const Options &o, unsigned threads)
{
    return {
        {"build_type", PERFBENCH_BUILD_TYPE},
#if defined(__clang__)
        {"compiler", std::string("clang ") + __clang_version__},
#else
        {"compiler", std::string("gcc ") + __VERSION__},
#endif
        {"simd_isa", compiledIsa()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"runner_threads", std::to_string(threads)},
        {"workload", o.workload},
        {"seed", std::to_string(o.seed)},
    };
}

/** Library counter and timer deltas summed over several intervals. */
struct Deltas
{
    std::map<std::string, double> counters;  ///< both counter kinds
    std::map<std::string, tpred::obs::TimerValue> timers;

    void
    add(const tpred::obs::MetricsSnapshot &a,
        const tpred::obs::MetricsSnapshot &b)
    {
        const auto d = tpred::obs::snapshotDelta(a, b);
        for (const auto &[k, v] : d.counters)
            counters[k] += static_cast<double>(v);
        for (const auto &[k, v] : d.runtime)
            counters[k] += static_cast<double>(v);
        for (const auto &[k, v] : d.timers) {
            timers[k].count += v.count;
            timers[k].wallNs += v.wallNs;
            timers[k].cpuNs += v.cpuNs;
        }
    }

    double count(const std::string &name) const
    {
        return valueOr0(counters, name);
    }

    double wallS(const std::string &name) const
    {
        return static_cast<double>(valueOr0(timers, name).wallNs) / 1e9;
    }

    double cpuS(const std::string &name) const
    {
        return static_cast<double>(valueOr0(timers, name).cpuNs) / 1e9;
    }
};

struct Rep
{
    double wall = 0;
    double cpu = 0;
    bool traced = false;
    RepFacts facts;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer metrics over the traced repetitions (see README.md). */
std::vector<Metric>
perLayerMetrics(const std::vector<Rep> &reps, const Deltas &d,
                const Tracer &tracer, double setup_ops, unsigned threads)
{
    std::vector<double> traced_wall, plain_wall, traced_cpu;
    RepFacts f;
    for (const Rep &r : reps) {
        (r.traced ? traced_wall : plain_wall).push_back(r.wall);
        if (!r.traced)
            continue;
        traced_cpu.push_back(r.cpu);
        f = r.facts;  // identical on every repetition of one run
    }
    const double n = static_cast<double>(traced_wall.size());
    const double wall = median(traced_wall);
    const auto per = [n](double total) { return ratio(total, n); };
    const auto count = [&](const std::string &k) { return per(d.count(k)); };
    const auto self = tracer.selfSeconds(true);
    const auto selfOf = [&](const std::string &layer) {
        return per(valueOr0(self, layer));
    };
    const double setup_store =
        ratio(valueOr0(tracer.selfSeconds(false), "corpus"),
              kSetups);

    const double record_s = per(d.wallS("phase.record"));
    const double accuracy_s = per(d.wallS("phase.sweep"));
    const double corpus_load_s = selfOf("corpus");
    const double bytes_loaded = count("corpus.bytes_loaded") +
                                count("stream_corpus.bytes_loaded");
    const double pf_hits = count("segments.prefetch_hits");
    const double pf_syncs = count("segments.prefetch_syncs");
    const double shared = count("sweep.shared_cycles");
    const double member = count("sweep.member_cycles");
    const double jobs = count("runner.jobs");
    const auto spans = tracer.spanSeconds();
    const double shard_streaming =
        per(valueOr0(spans, "runAccuracyStreaming"));
    const double shard_sharded =
        per(valueOr0(spans, "runAccuracySharded"));

    return {
        {"traced.wall_s", wall, "s"},
        {"traced.cpu_s", median(traced_cpu), "s"},
        {"trace_overhead_frac", ratio(wall, median(plain_wall)) - 1.0,
         "fraction"},
        {"self.bench_s", selfOf("bench"), "s"},
        {"self.workloads_s", selfOf("workloads"), "s"},
        {"self.harness_s", selfOf("harness"), "s"},
        {"setup.corpus_store_s", setup_store, "s"},
        {"setup.ops_recorded", setup_ops, "ops"},
        {"workloads.record_s", record_s, "s"},
        {"workloads.ops_recorded",
         count("experiment.traces_recorded") * f.opsPerTrace, "ops"},
        {"trace.compact_bytes", count("trace_cache.bytes_inserted"), "B"},
        {"trace.stream_extract_s", selfOf("trace"), "s"},
        {"trace.branches", f.branches, "count"},
        {"corpus.load_s", corpus_load_s, "s"},
        {"corpus.bytes_loaded", bytes_loaded, "B"},
        {"corpus.load_gbps", ratio(bytes_loaded / 1e9, corpus_load_s),
         "GB/s"},
        {"corpus.hits", count("corpus.hits") + count("stream_corpus.hits"),
         "count"},
        {"corpus.misses",
         count("corpus.misses") + count("stream_corpus.misses"), "count"},
        {"corpus.quarantined",
         count("corpus.quarantined") + count("stream_corpus.quarantined"),
         "count"},
        {"segments.prefetch_hits", pf_hits, "count"},
        {"segments.prefetch_syncs", pf_syncs, "count"},
        {"segments.prefetch_hit_frac", ratio(pf_hits, pf_hits + pf_syncs),
         "fraction"},
        {"trace_cache.hits", count("trace_cache.hits"), "count"},
        {"trace_cache.misses", count("trace_cache.misses"), "count"},
        {"trace_cache.stream_corpus_hits",
         count("trace_cache.stream_corpus_hits"), "count"},
        {"sweep.accuracy_s", accuracy_s, "s"},
        {"sweep.branch_configs", f.branchConfigs, "count"},
        {"sweep.branch_configs_per_s", ratio(f.branchConfigs, accuracy_s),
         "1/s"},
        {"sweep.timing_s", per(d.wallS("phase.sweep_timing")), "s"},
        {"sweep.timing_forks", count("sweep.timing_forks"), "count"},
        {"sweep.shared_cycles", shared, "count"},
        {"sweep.member_cycles", member, "count"},
        {"sweep.shared_frac", ratio(shared, shared + member), "fraction"},
        {"core.cycles_simulated", count("core.cycles_simulated"), "count"},
        {"core.instructions_retired", count("core.instructions_retired"),
         "count"},
        {"core.cpu_s", per(d.cpuS("phase.core_run")), "s"},
        {"core.mops_per_cpu_s",
         ratio(count("core.instructions_retired") / 1e6,
               per(d.cpuS("phase.core_run"))),
         "Mops/s"},
        {"runner.jobs", jobs, "count"},
        {"runner.batches", count("runner.batches"), "count"},
        {"runner.idle_frac",
         ratio(per(d.wallS("pool.idle")), wall * threads), "fraction"},
        {"shard.streaming_s", shard_streaming, "s"},
        {"shard.sharded_s", shard_sharded, "s"},
        {"shard.speedup", ratio(shard_streaming, shard_sharded), "x"},
        {"shard.checkpoint_bytes", f.checkpointBytes, "B"},
        {"shard.proofs_failed", f.proofsFailed, "count"},
        {"tune.search_s", selfOf("tune"), "s"},
        {"tune.evals", count("tune.evals"), "count"},
        {"tune.full_evals", count("tune.full_evals"), "count"},
        {"btb.l1_hits", count("btb.l1_hits"), "count"},
        {"btb.l1_misses", count("btb.l1_misses"), "count"},
        {"prop.indirect_frac", ratio(f.indirect, f.branches), "fraction"},
        {"prop.history_groups", count("sweep.history_groups"), "count"},
        {"prop.jobs_per_thread", ratio(jobs, threads), "count"},
        {"prop.trace_mb", f.inputBytes / 1e6, "MB"},
    };
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw std::runtime_error("non-finite metric value");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Removes the run's private scratch directory on every exit path. */
struct ScratchDir
{
    fs::path path;
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

int
runMain(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    // The benchmark fixes every knob itself; none may leak in from
    // the environment.
    for (const char *var : {"TPRED_CORPUS_DIR", "TPRED_JOBS", "TPRED_OPS",
                            "TPRED_PREFETCH", "TPRED_VERBOSE",
                            "TPRED_REPORT"})
        unsetenv(var);
    const unsigned threads =
        std::max(1u, std::thread::hardware_concurrency());
    tpred::setDefaultJobs(threads);

    ScratchDir scratch{fs::path(o.workDir) /
                       (o.workload + "-" + std::to_string(getpid()))};
    fs::create_directories(scratch.path);

    Tracer tracer;
    Checker checker(o.workload, o.reference, o.record);
    Context ctx;
    ctx.variant = static_cast<unsigned>((o.seed + 3) % 4);
    ctx.tiny = o.tiny;
    ctx.threads = threads;
    ctx.workDir = scratch.path.string();
    ctx.tracer = &tracer;
    ctx.checker = &checker;
    const auto workload = makeBenchWorkload(o.workload, ctx);

    const auto identity = buildIdentity(o, threads);
    for (const auto &[k, v] : identity)
        std::printf("build %s = %s\n", k.c_str(), v.c_str());
    std::printf("input %s (variant %u)\n", workload->input().c_str(),
                ctx.variant);

    // --- Set-up, repeated so its median is steady -----------------
    std::vector<double> setup_times;
    double setup_ops = 0;
    tracer.setRecording(o.trace);
    tracer.setRep(-1);
    for (int i = 0; i < kSetups; ++i) {
        const double t0 = wallSeconds();
        setup_ops = static_cast<double>(workload->setup(ctx));
        setup_times.push_back(wallSeconds() - t0);
    }

    std::printf("peak_rss_mb after set-up = %s MB\n",
                jsonNumber(peakRssMb()).c_str());

    // --- Timed repetitions ----------------------------------------
    std::vector<Rep> reps;
    Deltas deltas;
    const double start = wallSeconds();
    for (int i = 0;; ++i) {
        Rep rep;
        rep.traced = o.trace && i % 2 == 1;
        tracer.setRecording(rep.traced);
        tracer.setRep(i);
        const auto before = tpred::obs::globalMetrics().snapshot();
        const double c0 = processCpuSeconds();
        const double t0 = wallSeconds();
        try {
            const auto span = tracer.span("bench", "rep");
            workload->run(ctx);
        } catch (const std::exception &e) {
            // A repetition that throws is a failed cell; its outputs
            // cannot be checked, so the run ends here.
            checker.expect(false, std::string("threw: ") + e.what());
            break;
        }
        rep.wall = wallSeconds() - t0;
        rep.cpu = processCpuSeconds() - c0;
        if (rep.traced)
            deltas.add(before, tpred::obs::globalMetrics().snapshot());
        tracer.setRecording(false);
        rep.facts = workload->check(ctx);
        reps.push_back(rep);

        const bool enough = !o.trace || reps.size() >= 2;
        if (enough && wallSeconds() - start >= o.seconds)
            break;
    }

    // --- Report -----------------------------------------------------
    std::vector<Metric> metrics;
    if (o.trace) {
        metrics = perLayerMetrics(reps, deltas, tracer, setup_ops, threads);
        const fs::path dir = fs::path(o.workDir) / "spans";
        fs::create_directories(dir);
        tracer.write((dir / (o.workload + "-seed" + std::to_string(o.seed) +
                             ".json"))
                         .string(),
                     identity);
    } else {
        std::vector<double> wall, cpu, mops;
        for (const Rep &r : reps) {
            wall.push_back(r.wall);
            cpu.push_back(r.cpu);
            mops.push_back(ratio(r.facts.nominalOps / 1e6, r.wall));
        }
        metrics = {
            {"wall_s", median(wall), "s"},
            {"cpu_s", median(cpu), "s"},
            {"sim_mops", median(mops), "Mops/s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"setup_s", median(setup_times), "s"},
        };
    }

    for (size_t i = 0; i < reps.size(); ++i)
        std::printf("rep %zu%s wall_s = %s, cpu_s = %s\n", i,
                    reps[i].traced ? " (traced)" : "",
                    jsonNumber(reps[i].wall).c_str(),
                    jsonNumber(reps[i].cpu).c_str());
    const uint64_t attempted = checker.attempted();
    const uint64_t failed = checker.failed();
    std::printf("setups %d, reps %zu\n", kSetups, reps.size());
    std::printf("metric failed_frac = %s fraction\n",
                jsonNumber(ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted)))
                    .c_str());
    std::string json = "{\"correct\": ";
    json += failed == 0 && attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("metric %s = %s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
        json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tpred_perfbench: %s\n", e.what());
        return 2;
    }
}
