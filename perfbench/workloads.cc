#include "workloads.hh"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "corpus/corpus.hh"
#include "corpus/segmented_trace.hh"
#include "harness/paper_tables.hh"
#include "harness/parallel_runner.hh"
#include "harness/shard_replay.hh"
#include "harness/sweep_kernel.hh"
#include "harness/trace_cache.hh"
#include "obs/metrics.hh"
#include "trace/trace_stats.hh"
#include "tune/config_space.hh"
#include "tune/successive_halving.hh"
#include "tune/tune_report.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace tpred;

namespace
{

namespace fs = std::filesystem;

/** Every statistic of @p s, so equal lines mean equal stats. */
std::string
statsLine(const FrontendStats &s)
{
    std::string out = "instr=" + std::to_string(s.instructions);
    const std::pair<const char *, const RatioStat *> ratios[] = {
        {"all", &s.allBranches},     {"cond_dir", &s.condDirection},
        {"cond", &s.condBranches},   {"uncond", &s.uncondDirect},
        {"indirect", &s.indirectJumps}, {"ret", &s.returns},
        {"btb", &s.btbHits},
    };
    for (const auto &[name, r] : ratios)
        out += std::string(" ") + name + "=" + std::to_string(r->hits()) +
               "/" + std::to_string(r->total());
    return out;
}

/** Adds @p stream's branch and indirect-jump counts to @p facts. */
void
countBranches(const BranchStream &stream, RepFacts &facts)
{
    facts.branches += static_cast<double>(stream.size());
    for (uint8_t kind : stream.kind)
        if (isIndirectNonReturn(static_cast<BranchKind>(kind)))
            facts.indirect += 1;
}

/** Records @p names at @p ops through the shared trace cache. */
std::vector<SharedTrace>
recordTraces(Context &ctx, const std::vector<std::string> &names,
             size_t ops)
{
    const auto span = ctx.tracer->span("workloads", "cachedTrace");
    return ParallelRunner(ctx.threads).map<SharedTrace>(
        names.size(), [&](size_t i) { return cachedTrace(names[i], ops); });
}

/** Input facts of the traces a paper-table repetition rendered from. */
void
traceFacts(const std::vector<SharedTrace> &traces, RepFacts &facts)
{
    for (const SharedTrace &trace : traces) {
        countBranches(trace.branchStream(), facts);
        facts.inputBytes +=
            static_cast<double>(trace.compact().residentBytes());
    }
}

/** A rendered paper artifact and the grid cells it simulates. */
struct PaperArtifact
{
    const char *name;
    std::string (*render)(const TableOptions &);
    size_t cells;  ///< simulations per workload trace, baseline included
};

/**
 * Shared shape of the two paper-table workloads: the render functions
 * take no generator seed (their traces are always seed 1), so the
 * seed's variant lengthens every trace by variant x kOpsStep ops.
 */
class PaperWorkload : public Workload
{
  public:
    static constexpr size_t kOpsStep = 1000;

    PaperWorkload(const Context &ctx, size_t default_ops,
                  size_t warm_ops, std::vector<std::string> traces)
        : ops_((ctx.tiny ? 20'000 : default_ops) +
               ctx.variant * kOpsStep),
          warmOps_(ctx.tiny ? 5'000 : warm_ops), traces_(std::move(traces))
    {
    }

    std::string input() const override { return inputAt(ops_); }

    uint64_t
    setup(Context &ctx) override
    {
        // Warm-up at a small length: faults in code and allocator
        // pages and finishes lazy statics before anything is timed.
        globalTraceCache().clear();
        render(ctx, warmOps_);
        check(ctx, warmOps_);
        return warmOps_ * traces_.size();
    }

    void run(Context &ctx) override { render(ctx, ops_); }

    RepFacts check(Context &ctx) override { return check(ctx, ops_); }

  protected:
    /** Renders every artifact at @p ops into texts_. */
    virtual void render(Context &ctx, size_t ops) = 0;

    /** Simulations per repetition, over every artifact. */
    virtual double nominalCells() const = 0;

    /** Accuracy-sweep branch x config steps over @p traces. */
    virtual double
    sweepBranchConfigs(const std::vector<SharedTrace> &) const
    {
        return 0;
    }

    static std::string
    inputAt(size_t ops)
    {
        return "ops=" + std::to_string(ops);
    }

    size_t ops_;
    size_t warmOps_;
    std::vector<std::string> traces_;
    std::vector<SharedTrace> recorded_;
    std::vector<std::pair<std::string, std::string>> texts_;

  private:
    RepFacts
    check(Context &ctx, size_t ops)
    {
        for (const auto &[artifact, text] : texts_)
            ctx.checker->digest(inputAt(ops), artifact, text);
        RepFacts facts;
        facts.opsPerTrace = static_cast<double>(ops);
        facts.nominalOps = nominalCells() * static_cast<double>(ops);
        traceFacts(recorded_, facts);
        facts.branchConfigs = sweepBranchConfigs(recorded_);
        texts_.clear();
        recorded_.clear();
        globalTraceCache().clear();
        return facts;
    }
};

/**
 * paper-timing: Tables 5-9 and Figs 12/13 on gcc and perl at the
 * timing default length.  The out-of-order core model dominates, and
 * Tables 7 and 9 offer only 2-4 jobs to the runner.
 */
class PaperTiming : public PaperWorkload
{
  public:
    explicit PaperTiming(const Context &ctx)
        : PaperWorkload(ctx, kDefaultTimingOps, 20'000, headlineWorkloads())
    {
    }

  protected:
    // Cells per workload: the grid's configs plus the BTB-only
    // baseline each reduction is taken against.
    static constexpr PaperArtifact kArtifacts[] = {
        {"table5", renderTable5, 5 * 5 + 1},
        {"table6", renderTable6, 4 * 5 + 1},
        {"table7", renderTable7, 5 * 3 + 1},
        {"table8", renderTable8, 5 * 5 + 1},
        {"table9", renderTable9, 5 * 2 + 1},
        {"fig12_13", renderFig1213, 1 + 5 + 1},
    };

    void
    render(Context &ctx, size_t ops) override
    {
        recorded_ = recordTraces(ctx, traces_, ops);
        const TableOptions opt{.ops = ops, .threads = ctx.threads};
        for (const PaperArtifact &a : kArtifacts) {
            const auto span = ctx.tracer->span("harness", a.name);
            texts_.emplace_back(a.name, a.render(opt));
        }
    }

    double
    nominalCells() const override
    {
        double cells = 0;
        for (const PaperArtifact &a : kArtifacts)
            cells += static_cast<double>(a.cells * traces_.size());
        return cells;
    }
};

/**
 * paper-accuracy: Tables 1, 2 and 4 plus the Figs 1-8 target
 * histograms on all eight SPEC analogues, from a cold trace cache.
 * Workload generation and trace encode dominate; no core model runs.
 */
class PaperAccuracy : public PaperWorkload
{
  public:
    explicit PaperAccuracy(const Context &ctx)
        : PaperWorkload(ctx, kDefaultAccuracyOps, 500'000, spec95Names())
    {
    }

  protected:
    void
    render(Context &ctx, size_t ops) override
    {
        recorded_ = recordTraces(ctx, traces_, ops);
        const TableOptions opt{.ops = ops, .threads = ctx.threads};
        {
            const auto span = ctx.tracer->span("harness", "table1");
            texts_.emplace_back("table1", renderTable1(opt));
        }
        {
            const auto span = ctx.tracer->span("harness", "table2");
            texts_.emplace_back("table2", renderTable2(opt));
        }
        {
            const auto span = ctx.tracer->span("harness", "table4");
            texts_.emplace_back("table4", renderTable4(opt));
        }
        const auto span = ctx.tracer->span("harness", "fig1_8");
        const auto blocks = ParallelRunner(ctx.threads).map<std::string>(
            traces_.size(), [&](size_t w) {
                TargetProfiler targets;
                cachedTrace(traces_[w], ops).forEachOp(
                    [&](const MicroOp &op) { targets.observe(op); });
                return targets.buildHistogram().render("Figure (" +
                                                       traces_[w] + ")") +
                       "\n  static sites: " +
                       std::to_string(targets.staticSites()) +
                       ", dynamic indirect jumps: " +
                       std::to_string(targets.dynamicJumps()) + "\n";
            });
        for (size_t w = 0; w < blocks.size(); ++w)
            texts_.emplace_back("fig_" + traces_[w], blocks[w]);
    }

    double
    nominalCells() const override
    {
        // Table 1: one baseline run per benchmark; Table 2: three
        // columns per benchmark; Table 4: five columns on gcc and
        // perl; Figs 1-8: one profile pass per benchmark.
        const double all = static_cast<double>(traces_.size());
        const double headline =
            static_cast<double>(headlineWorkloads().size());
        return all * 1 + all * 3 + headline * 5 + all * 1;
    }

    double
    sweepBranchConfigs(const std::vector<SharedTrace> &traces) const override
    {
        // Table 2 sweeps three configs over every trace, Table 4 five
        // over the headline pair; Table 1 and the figures do not sweep.
        const auto &headline = headlineWorkloads();
        double steps = 0;
        for (size_t i = 0; i < traces.size(); ++i) {
            const bool in_table4 =
                std::find(headline.begin(), headline.end(), traces_[i]) !=
                headline.end();
            steps += static_cast<double>(traces[i].branchStream().size()) *
                     (in_table4 ? 3 + 5 : 3);
        }
        return steps;
    }
};

/** Private corpus directory of one run, replaced on every set-up. */
std::shared_ptr<CorpusManager>
freshCorpus(const Context &ctx, const std::string &leaf)
{
    const fs::path dir = fs::path(ctx.workDir) / leaf;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return std::make_shared<CorpusManager>(dir.string(),
                                           &obs::globalMetrics());
}

/**
 * design-sweep: a successive-halving search over the "standard" space
 * on four workloads at 8M ops, served from a warm branch-stream
 * corpus.  Only the predictor-family sweep loops and the stream tier
 * run; nothing is generated and no core model runs.
 */
class DesignSweep : public Workload
{
  public:
    explicit DesignSweep(const Context &ctx)
        : space_(tune::enumerateSpace("standard"))
    {
        opt_.fullOps = ctx.tiny ? 200'000 : 8'000'000;
        opt_.seed = ctx.variant + 1;
        opt_.workloads = {"gcc", "perl", "server-dispatch", "server-jit"};
        schedule_ = tune::rungSchedule(opt_);
    }

    std::string
    input() const override
    {
        return "seed=" + std::to_string(opt_.seed) +
               ",ops=" + std::to_string(opt_.fullOps);
    }

    uint64_t
    setup(Context &ctx) override
    {
        globalTraceCache().attachCorpus(nullptr);
        globalTraceCache().clear();
        auto corpus = freshCorpus(ctx, "design-sweep");
        // Streams are stored straight from a segmented recording, so
        // set-up never holds a whole trace: every rung's stream is a
        // prefix of the full-length one.  Recording runs in parallel
        // at O(segment) memory; extraction runs one workload at a
        // time, so set-up's peak RSS stays below the timed region's
        // instead of depending on how the extractions overlap.
        const size_t segment_ops = opt_.fullOps / 64;
        const uint64_t parent = Tracer::current();
        ParallelRunner(ctx.threads).forEach(
            opt_.workloads.size(), [&](size_t w) {
                const auto span = ctx.tracer->span(
                    "corpus", "storeSegmentedFromSource", parent);
                auto source = makeWorkload(opt_.workloads[w], opt_.seed);
                corpus->storeSegmentedFromSource(
                    CorpusKey{opt_.workloads[w], opt_.seed, opt_.fullOps},
                    *source, source->name(), segment_ops);
            });
        for (const std::string &name : opt_.workloads) {
            const CorpusKey full{name, opt_.seed, opt_.fullOps};
            auto trace = corpus->loadSegmented(full, segment_ops);
            if (!trace)
                throw std::runtime_error("design-sweep: stored trace "
                                         "did not load");
            BranchStream stream;
            {
                const auto span =
                    ctx.tracer->span("trace", "extractBranchStream");
                stream = extractBranchStream(*trace);
            }
            const BranchStreamColumns cols = stream.columns();
            for (size_t ops : schedule_) {
                BranchStreamColumns prefix = cols;
                size_t n = 0;
                while (n < cols.pos.size() && cols.pos[n] < ops)
                    ++n;
                prefix.opCount = ops;
                prefix.pos = cols.pos.first(n);
                prefix.pc = cols.pc.first(n);
                prefix.target = cols.target.first(n);
                prefix.fallthrough = cols.fallthrough.first(n);
                prefix.kind = cols.kind.first(n);
                prefix.taken = cols.taken.first(n);
                const auto span = ctx.tracer->span("corpus", "storeStream");
                corpus->storeStream(
                    CorpusKey{name, opt_.seed, ops},
                    BranchStream::fromColumns(prefix, nullptr), name);
            }
            trace.reset();
            fs::remove(corpus->segmentedPathFor(full, segment_ops));
        }
        globalTraceCache().attachCorpus(corpus);
        return opt_.fullOps * opt_.workloads.size();
    }

    void
    run(Context &ctx) override
    {
        {
            const auto span =
                ctx.tracer->span("corpus", "cachedBranchStream");
            const uint64_t parent = Tracer::current();
            const size_t rungs = schedule_.size();
            streams_ = ParallelRunner(ctx.threads)
                           .map<std::shared_ptr<const BranchStream>>(
                               opt_.workloads.size() * rungs,
                               [&](size_t i) {
                                   const auto job = ctx.tracer->span(
                                       "corpus", "loadStream", parent);
                                   return cachedBranchStream(
                                       opt_.workloads[i / rungs],
                                       schedule_[i % rungs], opt_.seed);
                               });
        }
        const auto span = ctx.tracer->span("tune", "runSuccessiveHalving");
        result_ = tune::runSuccessiveHalving(space_, opt_);
    }

    RepFacts
    check(Context &ctx) override
    {
        ctx.checker->digest(input(), "rungs",
                            tune::renderRungTable(result_));
        ctx.checker->digest(
            input(), "frontier",
            tune::renderFrontierTable(result_.aggregateFrontier));

        RepFacts facts;
        const size_t rungs = schedule_.size();
        for (const tune::RungRecord &rung : result_.rungs) {
            facts.nominalOps += static_cast<double>(
                rung.population * rung.ops * opt_.workloads.size());
            for (size_t i = 0; i < streams_.size(); ++i)
                if (schedule_[i % rungs] == rung.ops)
                    facts.branchConfigs += static_cast<double>(
                        rung.population * streams_[i]->size());
        }
        for (size_t i = 0; i < streams_.size(); ++i) {
            facts.inputBytes +=
                static_cast<double>(streams_[i]->residentBytes());
            if (i % rungs == rungs - 1)
                countBranches(*streams_[i], facts);
        }
        streams_.clear();
        result_ = {};
        globalTraceCache().clear();
        return facts;
    }

  private:
    tune::ConfigSpace space_;
    tune::TuneOptions opt_;
    std::vector<size_t> schedule_;
    std::vector<std::shared_ptr<const BranchStream>> streams_;
    tune::TuneResult result_;
};

/**
 * long-trace: a 30M-op server-dispatch trace in a segmented corpus
 * entry.  The timed region loads and verifies it, extracts its branch
 * stream window by window, sweeps the Table 7 tagged grid over it, and
 * replays one config streaming and 4-way sharded with proofs.
 */
class LongTrace : public Workload
{
  public:
    static constexpr unsigned kShards = 4;

    explicit LongTrace(const Context &ctx)
        : key_{"server-dispatch", ctx.variant + 1,
               ctx.tiny ? size_t{300'000} : size_t{30'000'000}},
          segmentOps_(key_.ops / 64)
    {
        const unsigned assocs[] = {1, 2, 4, 8, 16};
        const TaggedIndexScheme schemes[] = {
            TaggedIndexScheme::Address,
            TaggedIndexScheme::HistoryConcat,
            TaggedIndexScheme::HistoryXor,
        };
        for (unsigned ways : assocs)
            for (TaggedIndexScheme scheme : schemes)
                grid_.push_back(taggedConfig(scheme, ways));
    }

    std::string
    input() const override
    {
        return "seed=" + std::to_string(key_.seed) +
               ",ops=" + std::to_string(key_.ops);
    }

    uint64_t
    setup(Context &ctx) override
    {
        corpus_ = freshCorpus(ctx, "long-trace");
        const auto span =
            ctx.tracer->span("corpus", "storeSegmentedFromSource");
        auto source = makeWorkload(key_.workload, key_.seed);
        corpus_->storeSegmentedFromSource(key_, *source, source->name(),
                                          segmentOps_);
        return key_.ops;
    }

    void
    run(Context &ctx) override
    {
        {
            const auto span = ctx.tracer->span("corpus", "loadSegmented");
            trace_ = corpus_->loadSegmented(key_, segmentOps_);
        }
        if (!trace_)
            throw std::runtime_error("long-trace: stored trace did not "
                                     "load");
        {
            const auto span =
                ctx.tracer->span("trace", "extractBranchStream");
            stream_ = extractBranchStream(*trace_);
        }
        {
            // One fused sweep per index scheme, fanned out over the
            // runner the way the paper-table renderers fan out a grid.
            const auto span = ctx.tracer->span("harness", "runSweep");
            const auto parts =
                ParallelRunner(ctx.threads).map<std::vector<FrontendStats>>(
                    kSchemes, [&](size_t scheme) {
                        std::vector<IndirectConfig> column;
                        for (size_t i = scheme; i < grid_.size();
                             i += kSchemes)
                            column.push_back(grid_[i]);
                        return runSweep(stream_, column);
                    });
            sweep_.assign(grid_.size(), FrontendStats{});
            for (size_t i = 0; i < grid_.size(); ++i)
                sweep_[i] = parts[i % kSchemes][i / kSchemes];
        }
        {
            const auto span =
                ctx.tracer->span("shard", "runAccuracyStreaming");
            streaming_ = runAccuracyStreaming(trace_, grid_[kShardCell]);
        }
        const auto span = ctx.tracer->span("shard", "runAccuracySharded");
        sharded_ = runAccuracySharded(
            trace_, grid_[kShardCell],
            ShardOptions{.shards = kShards, .threads = ctx.threads});
    }

    RepFacts
    check(Context &ctx) override
    {
        std::string grid;
        for (size_t i = 0; i < grid_.size(); ++i)
            grid += grid_[i].describe() + ": " + statsLine(sweep_[i]) +
                    "\n";
        ctx.checker->digest(input(), "table7_grid", grid);

        const std::string want = statsLine(streaming_);
        ctx.checker->expect(statsLine(sweep_[kShardCell]) == want,
                            "fused sweep cell != streaming replay");
        ctx.checker->expect(statsLine(sharded_.stats) == want &&
                                statsLine(sharded_.serial) == want,
                            "sharded stats != streaming stats");
        RepFacts facts;
        ctx.checker->expect(sharded_.shards.size() == kShards,
                            "shard count");
        for (const ShardProof &proof : sharded_.shards) {
            ctx.checker->expect(proof.ok(), "shard proof: " + proof.error);
            facts.proofsFailed += proof.ok() ? 0 : 1;
        }

        const double ops = static_cast<double>(key_.ops);
        facts.nominalOps = static_cast<double>(grid_.size() + 2) * ops;
        facts.branchConfigs =
            static_cast<double>(grid_.size() * stream_.size());
        countBranches(stream_, facts);
        facts.inputBytes = static_cast<double>(trace_->fileBytes());
        facts.checkpointBytes =
            static_cast<double>(sharded_.checkpointBytes);
        trace_.reset();
        stream_ = {};
        sweep_.clear();
        sharded_ = {};
        return facts;
    }

  private:
    /** Table 7's index schemes: the grid's columns. */
    static constexpr size_t kSchemes = 3;

    /** The grid cell (hist-xor, 4-way) replayed streaming and sharded. */
    static constexpr size_t kShardCell = 2 * kSchemes + 2;

    CorpusKey key_;
    size_t segmentOps_;
    std::vector<IndirectConfig> grid_;
    std::shared_ptr<CorpusManager> corpus_;
    std::shared_ptr<const SegmentedTrace> trace_;
    BranchStream stream_;
    std::vector<FrontendStats> sweep_;
    FrontendStats streaming_;
    ShardedAccuracyResult sharded_;
};

} // namespace

std::unique_ptr<Workload>
makeBenchWorkload(const std::string &name, const Context &ctx)
{
    if (name == "paper-timing")
        return std::make_unique<PaperTiming>(ctx);
    if (name == "paper-accuracy")
        return std::make_unique<PaperAccuracy>(ctx);
    if (name == "design-sweep")
        return std::make_unique<DesignSweep>(ctx);
    if (name == "long-trace")
        return std::make_unique<LongTrace>(ctx);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace perfbench
