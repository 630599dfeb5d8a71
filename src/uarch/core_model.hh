/**
 * @file
 * Wide-issue out-of-order timing model in the style of the paper's HPS
 * machine (section 4.1): Tomasulo-scheduled execution, checkpointing
 * per branch — "once a branch misprediction is determined, instructions
 * from the correct path are fetched in the next cycle" — a perfect
 * instruction cache, and a 16 KB data cache.
 *
 * The model is trace-driven: the front end is consulted for every
 * instruction and a misprediction stalls fetch until the branch
 * executes (wrong-path instructions are never injected; their cost is
 * the fetch bubble, the first-order effect the paper measures).
 *
 * Two driving styles share one simulation body:
 *  - run(): simulate a whole trace in one call (the classic API);
 *  - beginSession() / runSession() / endSession(): a resumable
 *    session that can suspend at an exact fetched-op boundary, have
 *    its complete microarchitectural state serialized (saveState /
 *    restoreState), and be continued — possibly in another thread
 *    from another windowed view of the same trace — with bit-identical
 *    results.  This is the timing-model half of the sharded-replay
 *    checkpoints (docs/parallelism.md).
 */

#ifndef TPRED_UARCH_CORE_MODEL_HH
#define TPRED_UARCH_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/frontend_predictor.hh"
#include "obs/metrics.hh"
#include "trace/compact_trace.hh"
#include "trace/trace_source.hh"
#include "uarch/dcache.hh"
#include "uarch/fu_pool.hh"

namespace tpred
{

class StateWriter;
class StateReader;

/** Machine parameters (paper section 4.1 and DESIGN.md section 5). */
struct CoreParams
{
    unsigned width = 8;     ///< fetch / issue / retire bandwidth
    unsigned window = 128;  ///< max instructions in flight
    unsigned fuCount = 8;   ///< universal functional units
    DCacheConfig dcache{};
};

/** Result of one timing run. */
struct CoreResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    FrontendStats frontend;
    DCacheStats dcache;

    /**
     * Fetch-stall cycles attributed to the mispredicted branch kind
     * that caused them (indexed by BranchKind) — the decomposition of
     * where execution time goes, and hence of what a better indirect
     * predictor can recover.
     */
    std::array<uint64_t, 7> stallCyclesByKind{};

    /**
     * Fetch-stall cycles from L1-BTB misses serviced by L2 — the
     * bubble a two-level hierarchy charges for a *correctly* predicted
     * but late redirect (bpred/btb_hierarchy.hh).  Disjoint from
     * stallCyclesByKind: a mispredicted branch's stall is always
     * attributed to its kind, never here (mispredict wins).
     */
    uint64_t btbMissStallCycles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Stall cycles caused by indirect (non-return) mispredictions. */
    uint64_t
    indirectStallCycles() const
    {
        return stallCyclesByKind[static_cast<size_t>(
                   BranchKind::IndirectJump)] +
               stallCyclesByKind[static_cast<size_t>(
                   BranchKind::IndirectCall)];
    }
};

/**
 * Event-driven core with cycle-exact results.  Ops wait on their
 * producers through wakeup lists and a timing wheel instead of being
 * polled each cycle, and a cycle in which nothing can happen jumps
 * straight to the next event (docs/timing_model.md).  One instance
 * runs one trace against one front end; construct fresh per
 * experiment (or restoreState() into it).
 */
class CoreModel
{
  public:
    /**
     * @throws std::invalid_argument if width, window or fuCount is 0,
     *         or any execution latency is 0 — a machine that could
     *         never finish, or one the scheduler cannot model exactly
     *         — or if the window or the D-cache hit + miss latency
     *         exceeds 65536, which would size the window ring or the
     *         timing wheel beyond reason.
     */
    explicit CoreModel(const CoreParams &params);

    /**
     * Simulates until @p max_instrs retire (or the trace ends) and
     * returns cycle/IPC/accuracy results.
     */
    CoreResult run(TraceSource &trace, FrontendPredictor &frontend,
                   uint64_t max_instrs);

    /**
     * Devirtualized overload: fetches through the non-virtual
     * CompactReplay block decoder instead of a TraceSource vtable
     * dispatch per instruction.  Same simulation, same bits.
     */
    CoreResult run(CompactReplay &trace, FrontendPredictor &frontend,
                   uint64_t max_instrs);

    /** Resets all session state; call once before runSession(). */
    void beginSession();

    /**
     * Advances the simulation, fetching ops from @p trace, until one
     * of:
     *  - @p stop_after_fetched ops (counted across the whole session)
     *    have been fetched — returns true, the session is *suspended*
     *    mid-cycle at an exact op boundary and a later runSession()
     *    (after saveState()/restoreState(), with a Source positioned
     *    at op @p stop_after_fetched) continues bit-identically;
     *  - @p max_instrs instructions have retired, or the trace ended
     *    and the window drained — returns false, the session is
     *    complete and endSession() yields the result.
     *
     * @p Source needs only `bool next(MicroOp&)`.
     */
    template <typename Source>
    bool
    runSession(Source &trace, FrontendPredictor &frontend,
               uint64_t max_instrs, uint64_t stop_after_fetched)
    {
        static const obs::Timer phase =
            obs::globalMetrics().timer("phase.core_run");
        obs::ScopedTimer timed(phase);

        for (;;) {
            // A cycle resumed mid-fetch never counts as idle, so a
            // suspension boundary is never skipped over.
            bool idle = false;
            if (!inFetch_) {
                if (!(instructions_ < max_instrs &&
                      (!traceEnded_ || headSeq_ != nextSeq_)))
                    return false;
                idle = retireIssueAndOpenFetch();
            }

            // ---- Fetch/dispatch: <= width, stopping at taken CTIs.
            // This stage is individually resumable: a suspension
            // leaves inFetch_/fetched_ set so the next runSession()
            // re-enters the same fetch group mid-cycle.
            if (inFetch_) {
                while (fetched_ < params_.width &&
                       nextSeq_ - headSeq_ < params_.window) {
                    if (totalFetched_ == stop_after_fetched)
                        return true;  // suspended at an op boundary
                    MicroOp op;
                    if (!trace.next(op)) {
                        traceEnded_ = true;
                        break;
                    }
                    ++totalFetched_;
                    const PredictionOutcome outcome =
                        frontend.onInstruction(op);
                    const bool mispredicted =
                        op.isBranch() && !outcome.correct;
                    dispatch(op, mispredicted);
                    ++fetched_;

                    if (mispredicted) {
                        // Wrong-path fetch until this branch executes.
                        redirectPending_ = true;
                        stallKind_ = op.branch;
                        break;
                    }
                    if (outcome.fetchBubbleCycles > 0) {
                        // Correct but L2-supplied redirect: fetch
                        // resumes after the BTB-miss bubble.  The
                        // mispredict path above wins when both apply —
                        // its checkpoint repair dominates the bubble.
                        const uint64_t resume =
                            cycle_ + 1 + outcome.fetchBubbleCycles;
                        if (resume > fetchAllowed_)
                            fetchAllowed_ = resume;
                        btbStallPending_ = true;
                        break;
                    }
                    if (op.isBranch() && op.taken)
                        break;  // one taken control transfer per group
                }
                inFetch_ = false;
                idle = idle && fetched_ == 0;
            }

            if (idle)
                skipIdleCycles();
            ++cycle_;
        }
    }

    /**
     * Finishes a session: packages cycles, stats and stall breakdown.
     * @p count_metrics gates the global core.cycles_simulated /
     * core.instructions_retired counters — sharded-replay warm-up and
     * verification passes pass false so the deterministic counters
     * stay identical to a continuous run.
     */
    CoreResult endSession(FrontendPredictor &frontend,
                          bool count_metrics = true);

    /** Ops fetched from the source(s) so far in this session. */
    uint64_t totalFetched() const { return totalFetched_; }

    /**
     * Serializes the complete session state — cycle counters, window
     * contents, register writer map, fetch/stall flags and the data
     * cache.  The front end is checkpointed separately by the caller.
     */
    void saveState(StateWriter &w) const;

    /** Restores a saveState() snapshot; params must match. */
    void restoreState(StateReader &r);

  private:
    /// No dependent: the end of an intrusive dependents list.
    static constexpr uint32_t kNoLink = UINT32_MAX;

    /**
     * One in-flight op in the window ring, at index seq & ringMask_.
     * Holds only what retire, issue and wakeup read; the full MicroOp
     * sits in ops_ for saveState().
     */
    struct Slot
    {
        uint64_t srcSeq[2];  ///< producing seq, 0 = ready at dispatch
        uint64_t doneCycle;  ///< valid once issued; 0 before
        uint64_t memAddr;
        uint64_t readyAt;    ///< earliest issue cycle known so far
        /// Head of the list of ops waiting on this one.  A link is
        /// (consumer slot << 1) | source index, so an op can sit in
        /// two producers' lists at once.
        uint32_t depHead;
        uint32_t depNext[2];  ///< next link, per source of this op
        uint32_t wheelNext;   ///< next slot in the same wheel bucket
        InstClass cls;
        RegIndex dstReg;
        uint8_t pending;  ///< producers not yet issued
        bool issued;
        bool mispredicted;
    };

    /** Retire, issue and fetch-stall accounting of one cycle, then
     *  opens its fetch group if fetch may proceed.  Returns true when
     *  nothing retired and nothing issued. */
    bool retireIssueAndOpenFetch();

    /** Enters @p op as the youngest in-flight op. */
    void dispatch(const MicroOp &op, bool mispredicted);

    /** Executes the op in @p slot this cycle and wakes its dependents. */
    void issue(size_t slot);

    /** Links @p slot's source @p src to its producer @p producer. */
    void linkSource(size_t slot, unsigned src, uint64_t producer);

    /** Files @p slot in the timing-wheel bucket of its readyAt. */
    void schedule(size_t slot);

    /** After an idle cycle, advances cycle_ to the cycle before the
     *  next event, charging the skipped fetch stalls. */
    void skipIdleCycles();

    /** Adds @p cycles to whichever fetch stall is pending. */
    void chargeStall(uint64_t cycles);

    /** Clears the wheel and ready mask and rebuilds them, with the
     *  dependents lists, from the slots' serialized fields. */
    void rebuildSchedule();

    CoreParams params_;
    DCache dcache_;
    std::array<unsigned, kNumInstClasses> latency_;
    uint64_t maxLatency_;  ///< longest issue-to-done time of any op

    // ---- Window ring and scheduler ----------------------------------
    // Ring and wheel sizes are powers of two and at least 64, so every
    // bitmask is a whole number of 64-bit words.
    size_t ringMask_;
    std::vector<Slot> slots_;
    std::vector<MicroOp> ops_;     ///< full ops, for saveState() only
    std::vector<uint64_t> ready_;  ///< slots that may issue this cycle
    /// Timing wheel: bucket b lists (through Slot::wheelNext) the
    /// ops that become ready in the cycle congruent to b.
    size_t wheelMask_;
    std::vector<uint32_t> wheel_;
    std::vector<uint64_t> wheelBusy_;  ///< bit b: bucket b non-empty
    uint64_t headSeq_ = 1;  ///< oldest in-flight seq (= nextSeq_: empty)

    // ---- Resumable session state ------------------------------------
    /// Sequence number of the last writer of each register; 0 = value
    /// available since before the window.
    std::array<uint64_t, kNumArchRegs> lastWriter_{};
    std::array<uint64_t, 7> stallByKind_{};
    uint64_t instructions_ = 0;  ///< retired so far
    uint64_t cycle_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t fetchAllowed_ = 0;    ///< earliest cycle fetch may resume
    uint64_t totalFetched_ = 0;    ///< ops consumed from the source(s)
    unsigned fetched_ = 0;         ///< ops fetched in the current group
    bool redirectPending_ = false; ///< unresolved mispredicted branch
    bool inFetch_ = false;         ///< suspended inside a fetch group
    BranchKind stallKind_ = BranchKind::None; ///< who blocked fetch
    bool btbStallPending_ = false; ///< blocked by a BTB-miss bubble
    uint64_t btbMissStall_ = 0;    ///< cycles lost to BTB-miss bubbles
    bool traceEnded_ = false;
};

} // namespace tpred

#endif // TPRED_UARCH_CORE_MODEL_HH
