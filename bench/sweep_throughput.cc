/**
 * @file
 * Fused-sweep throughput, two lanes per workload:
 *
 *   tagged grid   — Table 9's ten-config tagged grid: one runSweep()
 *                   pass driving all ten SoA-batched predictors vs one
 *                   runAccuracy() per config;
 *   mixed grid    — a Table 4-9 cross-family batch (tagless GAg / GAs
 *                   / gshare, all three tagged schemes, cascaded,
 *                   BTB-only) exercising every SoA family group and
 *                   the history-tracker dedup at once.
 *
 * An untimed self-check first requires every fused result to be
 * bit-identical to its per-config reference, so the speedups are only
 * reported for kernels proven semantically equivalent; the timed lanes
 * then fold per-config results into checksums that must also agree.
 * Throughput is in aggregate Mops/s: (ops x configs) per wall-clock
 * second, i.e. the rate at which config-instructions are retired.
 * Results go to stdout and to BENCH_sweep.json (override with
 * TPRED_BENCH_OUT) as a tpred-run-report/1 document for
 * tools/bench_compare.py, with the compiled ISA and vector width
 * recorded in the runtime-info block.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/sweep_kernel.hh"

using namespace tpred;

namespace
{

inline uint64_t
fold(uint64_t acc, const FrontendStats &s)
{
    return acc * 0x9E3779B97F4A7C15ull +
           (s.indirectJumps.hits() ^ s.allBranches.total());
}

/** Table 9's ten-config tagged grid. */
std::vector<IndirectConfig>
taggedGrid()
{
    std::vector<IndirectConfig> configs;
    for (unsigned bits : {9u, 16u})
        for (unsigned ways : {1u, 2u, 4u, 8u, 16u})
            configs.push_back(taggedConfig(TaggedIndexScheme::HistoryXor,
                                           ways, patternHistory(bits)));
    return configs;
}

/** A cross-family batch covering every SoA group (Tables 4-9). */
std::vector<IndirectConfig>
mixedGrid()
{
    std::vector<IndirectConfig> configs = {
        baselineConfig(),
        taglessGAg(9),
        taglessGAs(6, 3),
        taglessGshare(),
        taglessGshare(patternHistory(12), 9),
        taggedConfig(TaggedIndexScheme::Address, 4),
        taggedConfig(TaggedIndexScheme::HistoryConcat, 4),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4),
        taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                     patternHistory(16)),
        cascadedConfig(),
    };
    return configs;
}

/** Compile-time ISA / vector width of this binary. */
const char *
compiledIsa()
{
#if defined(__AVX512F__)
    return "x86-64+avx512f";
#elif defined(__AVX2__)
    return "x86-64+avx2";
#elif defined(__AVX__)
    return "x86-64+avx";
#elif defined(__SSE2__) || defined(_M_X64)
    return "x86-64+sse2";
#elif defined(__ARM_NEON)
    return "aarch64+neon";
#else
    return "generic";
#endif
}

unsigned
vectorWidthBytes()
{
#if defined(__AVX512F__)
    return 64;
#elif defined(__AVX2__) || defined(__AVX__)
    return 32;
#elif defined(__SSE2__) || defined(_M_X64) || defined(__ARM_NEON)
    return 16;
#else
    return 8;
#endif
}

struct LaneResult
{
    double seqMops = 0.0;
    double fusedMops = 0.0;

    double
    speedup() const
    {
        return seqMops > 0.0 ? fusedMops / seqMops : 0.0;
    }
};

/** Sums per-workload lane times into an aggregate Mops pair. */
struct LaneTotal
{
    double ops = 0.0;
    double seqSecs = 0.0;
    double fusedSecs = 0.0;

    void
    add(size_t aggregate_ops, const LaneResult &r)
    {
        ops += static_cast<double>(aggregate_ops);
        if (r.seqMops > 0.0)
            seqSecs += static_cast<double>(aggregate_ops) /
                       (r.seqMops * 1e6);
        if (r.fusedMops > 0.0)
            fusedSecs += static_cast<double>(aggregate_ops) /
                         (r.fusedMops * 1e6);
    }

    LaneResult
    aggregate() const
    {
        LaneResult r;
        r.seqMops = seqSecs > 0.0 ? ops / seqSecs / 1e6 : 0.0;
        r.fusedMops = fusedSecs > 0.0 ? ops / fusedSecs / 1e6 : 0.0;
        return r;
    }
};

/** Accuracy lane: runSweep() vs per-config runAccuracy(). */
LaneResult
accuracyLane(const SharedTrace &trace, const std::string &name,
             const std::vector<IndirectConfig> &configs, size_t ops,
             unsigned reps, const char *what)
{
    // Untimed: the fused kernel must reproduce every config's
    // per-config statistics exactly before its speed means anything.
    // (This also builds the cached BranchStream, so the timed lanes
    // measure the sweep itself.)
    const std::vector<FrontendStats> fused_ref = runSweep(trace, configs);
    for (size_t c = 0; c < configs.size(); ++c)
        bench::requireSameStats(runAccuracy(trace, configs[c]),
                                fused_ref[c], what, name);

    const size_t aggregate_ops = ops * configs.size();
    LaneResult r;
    uint64_t seq_sum = 0;
    r.seqMops = bench::measureMops(aggregate_ops, reps, seq_sum, [&] {
        uint64_t acc = 0;
        for (const IndirectConfig &config : configs)
            acc = fold(acc, runAccuracy(trace, config));
        return acc;
    });
    uint64_t fused_sum = 0;
    r.fusedMops =
        bench::measureMops(aggregate_ops, reps, fused_sum, [&] {
            uint64_t acc = 0;
            for (const FrontendStats &s : runSweep(trace, configs))
                acc = fold(acc, s);
            return acc;
        });
    if (seq_sum != fused_sum) {
        std::fprintf(stderr, "FATAL: %s checksums disagree on %s\n",
                     what, name.c_str());
        std::exit(1);
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const size_t ops =
        bench::setup(argc, argv, kDefaultAccuracyOps).ops;
    const unsigned reps = 3;
    bench::heading("Fused multi-config sweeps vs per-config replay",
                   ops);

    const struct
    {
        const char *label;  ///< table + report key prefix
        std::vector<IndirectConfig> configs;
    } lanes[] = {
        {"tagged", taggedGrid()},
        {"mixed", mixedGrid()},
    };

    const std::vector<std::string> names = bench::headlinePair();
    const std::vector<SharedTrace> traces = bench::recordAll(names, ops);

    bench::LaneReport out("sweep_throughput", ops, "BENCH_sweep.json");
    out.report().setRuntimeInfo("isa", compiledIsa());
    out.report().setRuntimeInfo("vector_width_bytes",
                                uint64_t{vectorWidthBytes()});

    Table table;
    table.setHeader({"Benchmark", "lane", "configs",
                     "sequential Mops/s", "fused Mops/s", "speedup"});
    for (const auto &lane : lanes) {
        out.report().setConfig(std::string(lane.label) + "_configs",
                               static_cast<uint64_t>(
                                   lane.configs.size()));
        LaneTotal total;
        for (size_t w = 0; w < names.size(); ++w) {
            const LaneResult r = accuracyLane(
                traces[w], names[w], lane.configs, ops, reps,
                std::string(lane.label).append(" sweep").c_str());
            total.add(ops * lane.configs.size(), r);

            char buf[64];
            std::vector<std::string> row = {names[w], lane.label};
            row.push_back(std::to_string(lane.configs.size()));
            std::snprintf(buf, sizeof(buf), "%.1f", r.seqMops);
            row.push_back(buf);
            std::snprintf(buf, sizeof(buf), "%.1f", r.fusedMops);
            row.push_back(buf);
            std::snprintf(buf, sizeof(buf), "%.2fx", r.speedup());
            row.push_back(buf);
            table.addRow(row);

            const std::string prefix = lane.label;
            out.value(names[w], prefix + "_sequential_mops", r.seqMops);
            out.value(names[w], prefix + "_fused_mops", r.fusedMops);
            out.value(names[w], prefix + "_speedup", r.speedup());
        }
        const LaneResult agg = total.aggregate();
        const std::string prefix = lane.label;
        out.value("aggregate", prefix + "_sequential_mops",
                  agg.seqMops);
        out.value("aggregate", prefix + "_fused_mops", agg.fusedMops);
        out.value("aggregate", prefix + "_speedup", agg.speedup());
        std::printf("aggregate %s (%zu configs x %zu workloads): "
                    "sequential %.1f, fused %.1f Mops/s -> %.2fx\n",
                    lane.label, lane.configs.size(), names.size(),
                    agg.seqMops, agg.fusedMops, agg.speedup());
    }

    std::printf("\n%s\n", table.render().c_str());
    return out.write();
}
