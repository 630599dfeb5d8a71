/**
 * @file
 * Measurement plumbing for the repo benchmark: host clocks, spans
 * kept in memory around the benchmark's calls into each library layer,
 * and the reference-output checker every workload reports through.
 */

#ifndef PERFBENCH_INSTRUMENT_HH
#define PERFBENCH_INSTRUMENT_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** Monotonic wall-clock seconds. */
double wallSeconds();

/** User + system CPU seconds of the whole process (every thread). */
double processCpuSeconds();

/** Peak resident set of the process so far, in MB (10^6 bytes). */
double peakRssMb();

/** One closed span: a call into a layer, and the span that caused it. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = a root span
    int rep = -1;         ///< timed repetition; -1 = set-up
    std::string layer;    ///< module name: harness, corpus, trace, ...
    std::string name;     ///< the library entry point called
    double start = 0.0;   ///< seconds since the tracer was created
    double end = 0.0;
};

/**
 * In-memory span recorder.  Disabled tracers record nothing and cost a
 * branch per span, which is what the untraced run relies on.  Spans
 * nest per thread; a span opened on a worker thread names its parent
 * explicitly.  Thread safety: span() and the Span destructor may run
 * on any thread.
 */
class Tracer
{
  public:
    /** Parent value meaning "innermost open span on this thread". */
    static constexpr uint64_t kInherit = ~uint64_t{0};

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Spans open only while recording is on (traced repetitions). */
    void setRecording(bool on) { recording_ = on; }

    /** Repetition index stamped on spans opened from now on. */
    void setRep(int rep) { rep_ = rep; }

    /** Scoped span: records itself when it goes out of scope. */
    class Span
    {
      public:
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        friend class Tracer;
        Span(Tracer *tracer, SpanRecord rec)
            : tracer_(tracer), rec_(std::move(rec))
        {
        }
        Tracer *tracer_;
        SpanRecord rec_;
    };

    /** Opens a span around one call into @p layer. */
    [[nodiscard]] Span span(const std::string &layer,
                            const std::string &name,
                            uint64_t parent = kInherit);

    /** Innermost open span on the calling thread, or 0. */
    static uint64_t current();

    /**
     * Self time per layer, summed over spans whose rep satisfies
     * @p timed (rep >= 0) or set-up (rep < 0): each span's duration
     * minus the part of it that its child spans cover.
     */
    std::map<std::string, double> selfSeconds(bool timed) const;

    /** Total duration per span name over the timed repetitions. */
    std::map<std::string, double> spanSeconds() const;

    /** Writes every span, with self times, as a JSON document. */
    void write(const std::string &path,
               const std::map<std::string, std::string> &header) const;

  private:
    double now() const;

    /** Self time of each span in spans_, index-aligned; needs mutex_. */
    std::vector<double> selfTimesLocked() const;

    const double epoch_ = wallSeconds();
    bool recording_ = false;
    int rep_ = -1;
    mutable std::mutex mutex_;  ///< guards spans_ and nextId_
    std::vector<SpanRecord> spans_;
    uint64_t nextId_ = 1;
};

/**
 * Compares workload outputs with the digests recorded from a known
 * good commit.  Every comparison is one attempted cell; a missing
 * reference is a failure, never a silent pass.  In record mode each
 * digest is printed as a reference line instead of being compared.
 */
class Checker
{
  public:
    /**
     * @param reference Lines "workload<TAB>input<TAB>artifact<TAB>
     *        digest"; '#' starts a comment.
     */
    Checker(std::string workload, const std::string &reference_path,
            bool record);

    /** Checks rendered @p text against the reference for its key. */
    void digest(const std::string &input, const std::string &artifact,
                const std::string &text);

    /** Counts one cell whose correctness the caller established. */
    void expect(bool ok, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    std::string workload_;
    bool record_;
    std::map<std::string, std::string> reference_;  ///< key -> digest
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_INSTRUMENT_HH
