/**
 * @file
 * Shared immutable trace cache: memoizes recordWorkload() so each
 * (workload, seed, ops) trace is generated exactly once per process,
 * even under concurrent access, and every consumer shares the same
 * underlying columnar storage.  This is what makes the parallel
 * experiment engine cheap — a table sweeping 25 configs over one
 * trace records that trace once, not 25 times.  See
 * docs/parallelism.md.
 */

#ifndef TPRED_HARNESS_TRACE_CACHE_HH
#define TPRED_HARNESS_TRACE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "harness/experiment.hh"
#include "obs/metrics.hh"

namespace tpred
{

class CorpusManager;

/**
 * Mutex-guarded memo from (workload, seed, ops) to a recorded
 * SharedTrace.
 *
 * The memo is an unordered_map whose key carries its hash,
 * precomputed once per get() from a string_view — a lookup for an
 * already-cached trace allocates nothing and compares strings at most
 * once per probed bucket entry.
 *
 * Thread safety: get() may be called concurrently from any number of
 * threads.  The first caller for a key claims it under the mutex and
 * records the trace outside it; later callers for the same key block
 * on a shared future instead of re-recording.  Cached traces stay
 * alive until clear(); SharedTrace handles already handed out remain
 * valid past clear() because the storage is reference-counted.
 *
 * Second-level cache: when a CorpusManager is attached (explicitly or
 * via $TPRED_CORPUS_DIR for the global cache), a memo miss first
 * tries the on-disk corpus — a validated hit is adopted zero-copy
 * without running the workload generator, and a freshly generated
 * trace is persisted back (best effort) for future processes.
 *
 * Branch-stream tier: getStream() resolves the dense BranchStream
 * for a key through three levels — stream memo, then the corpus's
 * ".tpbs" stream container (zero-copy mmap, no CompactTrace decode
 * at all), then extraction from the (possibly itself corpus-served)
 * trace, persisting the extraction back for future warm runs.  A
 * corpus trace hit additionally adopts any stored stream into the
 * trace's lazy stream cache, so trace.branchStream() consumers
 * (runSweep) skip extraction on warm runs too.
 */
class TraceCache
{
  public:
    /**
     * @param metrics Registry the "trace_cache.*" counters report
     *        into; nullptr gives this cache a private registry (so
     *        tests see per-instance counts).  The global cache uses
     *        obs::globalMetrics() so run reports include it.
     */
    explicit TraceCache(obs::MetricsRegistry *metrics = nullptr);

    /** Returns the memoized trace, recording it on first request. */
    SharedTrace get(std::string_view workload, size_t ops,
                    uint64_t seed = 1);

    /**
     * Returns the dense branch stream for (workload, ops, seed):
     * memo -> stream corpus (zero-copy, skipping trace decode
     * entirely) -> extraction from get()'s trace.  Accuracy-only
     * consumers (fused sweeps, the autotuner) should prefer this
     * over get(): on a warm corpus it never touches the
     * CompactTrace.
     */
    std::shared_ptr<const BranchStream>
    getStream(std::string_view workload, size_t ops, uint64_t seed = 1);

    /** Registry holding this cache's "trace_cache.*" counters. */
    obs::MetricsRegistry &metricsRegistry() const { return *metrics_; }

    /**
     * Attaches (or detaches, with nullptr) the second-level disk
     * corpus consulted on memo misses.
     */
    void attachCorpus(std::shared_ptr<CorpusManager> corpus);

    /** The attached corpus, or nullptr. */
    std::shared_ptr<CorpusManager> corpus() const;

    /** Number of traces actually generated (not served from disk). */
    size_t recordings() const;

    /** Number of traces currently memoized. */
    size_t size() const;

    /** Drops every memoized trace (handed-out handles stay valid). */
    void clear();

  private:
    struct Key
    {
        std::string workload;
        uint64_t seed;
        size_t ops;
        size_t hash;  ///< precomputed over the three fields above
    };

    /** Borrowed-string probe key; same hash, no allocation. */
    struct KeyRef
    {
        std::string_view workload;
        uint64_t seed;
        size_t ops;
        size_t hash;
    };

    static size_t hashKey(std::string_view workload, uint64_t seed,
                          size_t ops);

    struct KeyHash
    {
        using is_transparent = void;
        size_t operator()(const Key &k) const { return k.hash; }
        size_t operator()(const KeyRef &k) const { return k.hash; }
    };

    struct KeyEqual
    {
        using is_transparent = void;

        static bool
        eq(std::string_view wa, uint64_t sa, size_t oa,
           std::string_view wb, uint64_t sb, size_t ob)
        {
            return sa == sb && oa == ob && wa == wb;
        }

        bool
        operator()(const Key &a, const Key &b) const
        {
            return eq(a.workload, a.seed, a.ops, b.workload, b.seed,
                      b.ops);
        }
        bool
        operator()(const KeyRef &a, const Key &b) const
        {
            return eq(a.workload, a.seed, a.ops, b.workload, b.seed,
                      b.ops);
        }
        bool
        operator()(const Key &a, const KeyRef &b) const
        {
            return eq(a.workload, a.seed, a.ops, b.workload, b.seed,
                      b.ops);
        }
    };

    /** Memo-miss path: corpus load, else generate (and persist). */
    SharedTrace acquire(const std::string &workload, size_t ops,
                        uint64_t seed);

    /** Stream-memo-miss path: stream corpus, else extract+persist. */
    std::shared_ptr<const BranchStream>
    acquireStream(const std::string &workload, size_t ops,
                  uint64_t seed);

    mutable std::mutex mutex_;
    std::unordered_map<Key, std::shared_future<SharedTrace>, KeyHash,
                       KeyEqual>
        memo_;
    std::unordered_map<
        Key, std::shared_future<std::shared_ptr<const BranchStream>>,
        KeyHash, KeyEqual>
        streamMemo_;
    std::shared_ptr<CorpusManager> corpus_;

    std::unique_ptr<obs::MetricsRegistry> owned_;  ///< when unshared
    obs::MetricsRegistry *metrics_;
    obs::Counter hits_;
    obs::Counter misses_;
    obs::Counter corpusHits_;
    obs::Counter recordings_;
    obs::Counter bytesInserted_;
    obs::Counter streamHits_;
    obs::Counter streamMisses_;
    obs::Counter streamCorpusHits_;
    obs::Counter streamExtractions_;
};

/**
 * Process-wide cache shared by the harness and bench drivers.  On
 * first use, if $TPRED_CORPUS_DIR names a directory, a CorpusManager
 * over it is attached as the second-level cache; set $TPRED_VERBOSE
 * to log hit/miss/store traffic on stderr.
 */
TraceCache &globalTraceCache();

/** Shorthand for globalTraceCache().get(...). */
SharedTrace cachedTrace(std::string_view workload, size_t ops,
                        uint64_t seed = 1);

/** Shorthand for globalTraceCache().getStream(...). */
std::shared_ptr<const BranchStream>
cachedBranchStream(std::string_view workload, size_t ops,
                   uint64_t seed = 1);

} // namespace tpred

#endif // TPRED_HARNESS_TRACE_CACHE_HH
