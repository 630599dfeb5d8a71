#include "harness/trace_cache.hh"

#include <cstdio>
#include <cstdlib>

#include "corpus/corpus.hh"
#include "harness/run_options.hh"

namespace tpred
{

namespace
{

void
logTraffic(const char *event, const std::string &workload, size_t ops,
           uint64_t seed)
{
    if (verboseLogging())
        std::fprintf(stderr, "tpred-cache: %s %s ops=%zu seed=%llu\n",
                     event, workload.c_str(), ops,
                     static_cast<unsigned long long>(seed));
}

} // namespace

TraceCache::TraceCache(obs::MetricsRegistry *metrics)
    : owned_(metrics == nullptr
                 ? std::make_unique<obs::MetricsRegistry>()
                 : nullptr),
      metrics_(metrics != nullptr ? metrics : owned_.get()),
      hits_(metrics_->counter("trace_cache.hits")),
      misses_(metrics_->counter("trace_cache.misses")),
      corpusHits_(metrics_->counter("trace_cache.corpus_hits")),
      recordings_(metrics_->counter("trace_cache.recordings")),
      bytesInserted_(metrics_->counter("trace_cache.bytes_inserted")),
      streamHits_(metrics_->counter("trace_cache.stream_hits")),
      streamMisses_(metrics_->counter("trace_cache.stream_misses")),
      streamCorpusHits_(
          metrics_->counter("trace_cache.stream_corpus_hits")),
      streamExtractions_(
          metrics_->counter("trace_cache.stream_extractions"))
{
}

size_t
TraceCache::hashKey(std::string_view workload, uint64_t seed,
                    size_t ops)
{
    // FNV-1a over the name, then splitmix-style mixing of the
    // numeric fields — cheap, and computed exactly once per get().
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : workload) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    for (uint64_t v : {seed, static_cast<uint64_t>(ops)}) {
        h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
    }
    return static_cast<size_t>(h);
}

SharedTrace
TraceCache::acquire(const std::string &workload, size_t ops,
                    uint64_t seed)
{
    std::shared_ptr<CorpusManager> corpus = this->corpus();
    if (corpus) {
        const CorpusKey key{workload, seed, ops};
        std::string name;
        if (auto trace = corpus->load(key, &name)) {
            corpusHits_.inc();
            bytesInserted_.inc(trace->residentBytes());
            logTraffic("corpus-hit", workload, ops, seed);
            // Warm runs also get the derived branch stream for free:
            // adopting the stored container into the trace's lazy
            // stream cache lets branchStream() consumers (runSweep)
            // skip the extraction pass entirely.
            if (auto stream = corpus->loadStream(key))
                trace->adoptBranchStream(*stream);
            return SharedTrace(std::move(trace),
                               name.empty() ? workload : name);
        }
    }

    recordings_.inc();
    logTraffic("generate", workload, ops, seed);
    SharedTrace trace = recordWorkload(workload, ops, seed);
    bytesInserted_.inc(trace.compact().residentBytes());

    if (corpus) {
        // Best effort: a full disk must not fail the experiment.
        try {
            corpus->store(CorpusKey{workload, seed, ops},
                          trace.compact(), trace.name());
            logTraffic("corpus-store", workload, ops, seed);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "tpred-cache: corpus store failed: %s\n",
                         e.what());
        }
    }
    return trace;
}

SharedTrace
TraceCache::get(std::string_view workload, size_t ops, uint64_t seed)
{
    const KeyRef ref{workload, seed, ops,
                     hashKey(workload, seed, ops)};
    std::promise<SharedTrace> promise;
    std::shared_future<SharedTrace> future;
    bool recorder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = memo_.find(ref);
        if (it != memo_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            memo_.emplace(Key{std::string(workload), seed, ops,
                              ref.hash},
                          future);
            recorder = true;
        }
    }
    if (recorder) {
        misses_.inc();
        try {
            promise.set_value(
                acquire(std::string(workload), ops, seed));
        } catch (...) {
            // Un-memoize so a later retry isn't poisoned, then let the
            // waiters (and this caller, via get()) see the exception.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = memo_.find(ref);
                if (it != memo_.end())
                    memo_.erase(it);
            }
            promise.set_exception(std::current_exception());
        }
    } else {
        hits_.inc();
        logTraffic("memo-hit", std::string(workload), ops, seed);
    }
    return future.get();
}

std::shared_ptr<const BranchStream>
TraceCache::acquireStream(const std::string &workload, size_t ops,
                          uint64_t seed)
{
    std::shared_ptr<CorpusManager> corpus = this->corpus();
    const CorpusKey key{workload, seed, ops};
    if (corpus) {
        if (auto stream = corpus->loadStream(key)) {
            streamCorpusHits_.inc();
            logTraffic("stream-corpus-hit", workload, ops, seed);
            return stream;
        }
    }

    // No stored stream: extract from the trace (which may itself be
    // served from the corpus or memo).  The copy shares the trace's
    // column backing, so it stays valid past clear().
    streamExtractions_.inc();
    logTraffic("stream-extract", workload, ops, seed);
    SharedTrace trace = get(workload, ops, seed);
    auto stream = std::make_shared<const BranchStream>(
        trace.compact().branchStream());

    if (corpus) {
        // Best effort: a full disk must not fail the experiment.
        try {
            corpus->storeStream(key, *stream, trace.name());
            logTraffic("stream-store", workload, ops, seed);
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "tpred-cache: stream store failed: %s\n",
                         e.what());
        }
    }
    return stream;
}

std::shared_ptr<const BranchStream>
TraceCache::getStream(std::string_view workload, size_t ops,
                      uint64_t seed)
{
    const KeyRef ref{workload, seed, ops,
                     hashKey(workload, seed, ops)};
    std::promise<std::shared_ptr<const BranchStream>> promise;
    std::shared_future<std::shared_ptr<const BranchStream>> future;
    bool resolver = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = streamMemo_.find(ref);
        if (it != streamMemo_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            streamMemo_.emplace(Key{std::string(workload), seed, ops,
                                    ref.hash},
                                future);
            resolver = true;
        }
    }
    if (resolver) {
        streamMisses_.inc();
        try {
            promise.set_value(
                acquireStream(std::string(workload), ops, seed));
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = streamMemo_.find(ref);
                if (it != streamMemo_.end())
                    streamMemo_.erase(it);
            }
            promise.set_exception(std::current_exception());
        }
    } else {
        streamHits_.inc();
        logTraffic("stream-memo-hit", std::string(workload), ops,
                   seed);
    }
    return future.get();
}

void
TraceCache::attachCorpus(std::shared_ptr<CorpusManager> corpus)
{
    std::lock_guard<std::mutex> lock(mutex_);
    corpus_ = std::move(corpus);
}

std::shared_ptr<CorpusManager>
TraceCache::corpus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corpus_;
}

size_t
TraceCache::recordings() const
{
    const obs::MetricsSnapshot snap = metrics_->snapshot();
    const auto it = snap.counters.find("trace_cache.recordings");
    return it != snap.counters.end() ? it->second : 0;
}

size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memo_.size();
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.clear();
    streamMemo_.clear();
}

TraceCache &
globalTraceCache()
{
    static TraceCache cache{&obs::globalMetrics()};
    static const bool attached = [] {
        const char *dir = std::getenv("TPRED_CORPUS_DIR");
        if (dir == nullptr || *dir == '\0')
            return false;
        try {
            cache.attachCorpus(std::make_shared<CorpusManager>(
                dir, &obs::globalMetrics()));
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "tpred-cache: ignoring TPRED_CORPUS_DIR: "
                         "%s\n",
                         e.what());
            return false;
        }
        return true;
    }();
    (void)attached;
    return cache;
}

SharedTrace
cachedTrace(std::string_view workload, size_t ops, uint64_t seed)
{
    return globalTraceCache().get(workload, ops, seed);
}

std::shared_ptr<const BranchStream>
cachedBranchStream(std::string_view workload, size_t ops,
                   uint64_t seed)
{
    return globalTraceCache().getStream(workload, ops, seed);
}

} // namespace tpred
