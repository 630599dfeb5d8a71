/**
 * @file
 * Pull interface for dynamic instruction streams.
 */

#ifndef TPRED_TRACE_TRACE_SOURCE_HH
#define TPRED_TRACE_TRACE_SOURCE_HH

#include <string>
#include <vector>

#include "trace/micro_op.hh"

namespace tpred
{

/**
 * A producer of dynamic MicroOps.  Workload generators implement this;
 * consumers (statistics, prediction harness, timing model) pull from it.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produces the next dynamic instruction.
     * @param op Receives the instruction when available.
     * @return false at end of trace (op is left untouched).
     */
    virtual bool next(MicroOp &op) = 0;

    /** Human-readable stream name (benchmark name for workloads). */
    virtual std::string name() const = 0;
};

/**
 * Replays a pre-recorded vector of MicroOps.  Used by unit tests and by
 * experiments that run several predictor configurations over the exact
 * same dynamic stream.
 */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<MicroOp> ops,
                               std::string name = "vector")
        : ops_(std::move(ops)), name_(std::move(name))
    {
    }

    bool
    next(MicroOp &op) override
    {
        if (pos_ >= ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

    std::string name() const override { return name_; }

    /** Rewinds to the beginning of the recorded stream. */
    void rewind() { pos_ = 0; }

    size_t size() const { return ops_.size(); }

  private:
    std::vector<MicroOp> ops_;
    std::string name_;
    size_t pos_ = 0;
};

/**
 * Drains up to @p max_ops ops of @p source into a plain vector: the
 * uncompressed reference tests compare a recorded trace against.
 * Recording itself goes through SharedTrace, which encodes each op
 * as it is pulled and never holds the vector.
 */
std::vector<MicroOp> drainTrace(TraceSource &source, size_t max_ops);

} // namespace tpred

#endif // TPRED_TRACE_TRACE_SOURCE_HH
