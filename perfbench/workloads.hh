/**
 * @file
 * The benchmark's workloads.  Each is a closed batch run in one
 * process: set-up (untimed, repeated to time it), then timed
 * repetitions, each followed by an untimed check of its outputs.
 * README.md in this directory records why each workload exists and
 * which per-layer metric should move which end-to-end metric on it.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "instrument.hh"

namespace perfbench
{

/** Everything a workload needs from main(). */
struct Context
{
    unsigned variant = 0;  ///< input variant: (--seed + 3) % 4
    bool tiny = false;     ///< smoke-test scale
    unsigned threads = 1;  ///< runner threads (= nproc)
    std::string workDir;   ///< private scratch directory of this run
    Tracer *tracer = nullptr;
    Checker *checker = nullptr;
};

/**
 * Work-volume facts about one repetition, established by the untimed
 * check from the repetition's own inputs and outputs.
 */
struct RepFacts
{
    double nominalOps = 0;     ///< sum over grid cells of trace ops
    double opsPerTrace = 0;    ///< length of each trace recorded
    double branchConfigs = 0;  ///< accuracy-sweep branch x config steps
    double branches = 0;       ///< branches in the distinct inputs
    double indirect = 0;       ///< indirect jumps/calls among them
    double inputBytes = 0;     ///< in-memory or stored input bytes
    double checkpointBytes = 0;
    double proofsFailed = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Identifies the inputs in reference keys (e.g. "ops=1000000"). */
    virtual std::string input() const = 0;

    /**
     * Builds whatever the timed region consumes; replaces the state
     * a previous set-up left.  Returns the number of ops recorded.
     */
    virtual uint64_t setup(Context &ctx) = 0;

    /** The timed region of one repetition. */
    virtual void run(Context &ctx) = 0;

    /** Untimed: checks the repetition's outputs, then releases them. */
    virtual RepFacts check(Context &ctx) = 0;
};

/** Builds the workload @p name; throws std::invalid_argument. */
std::unique_ptr<Workload> makeBenchWorkload(const std::string &name,
                                            const Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
