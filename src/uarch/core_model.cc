#include "uarch/core_model.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/state_io.hh"

namespace tpred
{

namespace
{

/// Bounds on the machine that keep the ring and the timing wheel
/// (whose sizes follow the window and the memory latency) small.
constexpr unsigned kMaxWindow = 1u << 16;
constexpr uint64_t kMaxMemoryLatency = 1u << 16;

/** Power-of-two bitmask length covering @p needed bits, in whole
 *  64-bit words. */
size_t
maskBits(uint64_t needed)
{
    return std::max<size_t>(64, std::bit_ceil(needed));
}

/**
 * First set bit at or after bit @p from of the @p words-word bitmask
 * @p mask, in cyclic order (wrapping past the end to bit 0), or
 * SIZE_MAX when no bit is set.
 */
size_t
firstSetFrom(const uint64_t *mask, size_t words, size_t from)
{
    size_t w = from >> 6;
    uint64_t bits = mask[w] & (~uint64_t{0} << (from & 63));
    for (size_t n = 0; n <= words; ++n) {
        if (bits)
            return (w << 6) | static_cast<size_t>(std::countr_zero(bits));
        w = w + 1 == words ? 0 : w + 1;
        bits = mask[w];
    }
    return SIZE_MAX;
}

void
setBit(std::vector<uint64_t> &mask, size_t bit)
{
    mask[bit >> 6] |= uint64_t{1} << (bit & 63);
}

void
clearBit(std::vector<uint64_t> &mask, size_t bit)
{
    mask[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
}

const CoreParams &
validated(const CoreParams &params)
{
    if (params.width == 0 || params.window == 0 || params.fuCount == 0)
        throw std::invalid_argument(
            "CoreParams: width, window and fuCount must be nonzero");
    if (params.window > kMaxWindow)
        throw std::invalid_argument("CoreParams: window too large");
    if (uint64_t{params.dcache.hitLatency} + params.dcache.missLatency >
        kMaxMemoryLatency)
        throw std::invalid_argument(
            "CoreParams: D-cache latency too large");
    // The scheduler's exactness rests on this: an op issued in cycle
    // c completes in c + 1 at the earliest, so it never readies a
    // consumer in its own issue cycle.
    for (unsigned latency : latencyTable()) {
        if (latency == 0)
            throw std::invalid_argument(
                "CoreModel: every execution latency must be >= 1");
    }
    return params;
}

} // namespace

CoreModel::CoreModel(const CoreParams &params)
    : params_(validated(params)),
      dcache_(params.dcache),
      latency_(latencyTable())
{
    maxLatency_ = *std::max_element(latency_.begin(), latency_.end()) +
                  uint64_t{params.dcache.hitLatency} +
                  params.dcache.missLatency;
    const size_t ring = maskBits(params.window);
    ringMask_ = ring - 1;
    slots_.resize(ring);
    ops_.resize(ring);
    ready_.assign(ring / 64, 0);
    // Every op becomes ready at most maxLatency_ cycles after the
    // current one, so no two pending cycles share a bucket.
    const size_t wheel = maskBits(maxLatency_ + 1);
    wheelMask_ = wheel - 1;
    wheel_.assign(wheel, kNoLink);
    wheelBusy_.assign(wheel / 64, 0);
}

bool
CoreModel::retireIssueAndOpenFetch()
{
    // ---- Retire: in order, up to width per cycle. -------------------
    unsigned retired = 0;
    while (retired < params_.width && headSeq_ != nextSeq_) {
        const Slot &head = slots_[headSeq_ & ringMask_];
        if (!head.issued || head.doneCycle > cycle_)
            break;
        // A retiring writer's value is ready by construction; drop its
        // writer record if it is still the latest.
        if (head.dstReg != kNoReg && lastWriter_[head.dstReg] == headSeq_)
            lastWriter_[head.dstReg] = 0;
        ++headSeq_;
        ++instructions_;
        ++retired;
    }

    // ---- Issue: this cycle's wheel bucket joins the ready mask, and
    // the oldest <= fuCount ready ops issue, in age order from the
    // head slot — the order the D-cache sees their accesses in.
    const size_t bucket = cycle_ & wheelMask_;
    for (uint32_t s = wheel_[bucket]; s != kNoLink; s = slots_[s].wheelNext)
        setBit(ready_, s);
    wheel_[bucket] = kNoLink;
    clearBit(wheelBusy_, bucket);

    unsigned issued = 0;
    const size_t head_slot = headSeq_ & ringMask_;
    while (issued < params_.fuCount) {
        const size_t s =
            firstSetFrom(ready_.data(), ready_.size(), head_slot);
        if (s == SIZE_MAX)
            break;
        clearBit(ready_, s);
        issue(s);
        ++issued;
    }

    // ---- Fetch-stall accounting, then open this cycle's fetch group.
    const bool fetch_blocked = redirectPending_ || cycle_ < fetchAllowed_;
    if (fetch_blocked && !traceEnded_)
        chargeStall(1);
    if (!traceEnded_ && !fetch_blocked) {
        stallKind_ = BranchKind::None;
        btbStallPending_ = false;
        fetched_ = 0;
        inFetch_ = true;
    }
    return retired == 0 && issued == 0;
}

void
CoreModel::dispatch(const MicroOp &op, bool mispredicted)
{
    const uint64_t seq = nextSeq_++;
    const size_t s = seq & ringMask_;
    ops_[s] = op;
    Slot &entry = slots_[s];
    entry.doneCycle = 0;
    entry.memAddr = op.memAddr;
    entry.readyAt = cycle_ + 1;  // fetched this cycle, issues after
    entry.depHead = kNoLink;
    entry.cls = op.cls;
    entry.dstReg = op.dstReg;
    entry.pending = 0;
    entry.issued = false;
    entry.mispredicted = mispredicted;
    for (unsigned src = 0; src < 2; ++src) {
        const RegIndex reg = op.srcRegs[src];
        // A register's last writer is 0 or still in flight: a
        // retiring writer clears its own record.
        entry.srcSeq[src] = reg == kNoReg ? 0 : lastWriter_[reg];
        if (entry.srcSeq[src] != 0)
            linkSource(s, src, entry.srcSeq[src]);
    }
    if (op.dstReg != kNoReg)
        lastWriter_[op.dstReg] = seq;
    if (entry.pending == 0)
        schedule(s);
}

void
CoreModel::linkSource(size_t slot, unsigned src, uint64_t producer)
{
    Slot &entry = slots_[slot];
    Slot &from = slots_[producer & ringMask_];
    if (!from.issued) {
        entry.depNext[src] = from.depHead;
        from.depHead = static_cast<uint32_t>(slot << 1 | src);
        ++entry.pending;
    } else if (from.doneCycle > entry.readyAt) {
        entry.readyAt = from.doneCycle;
    }
}

void
CoreModel::issue(size_t slot)
{
    Slot &entry = slots_[slot];
    entry.issued = true;
    unsigned latency = latency_[static_cast<size_t>(entry.cls)];
    if (entry.cls == InstClass::Load || entry.cls == InstClass::Store) {
        latency += dcache_.access(entry.memAddr,
                                  entry.cls == InstClass::Store);
    }
    entry.doneCycle = cycle_ + latency;
    if (entry.mispredicted) {
        // Checkpoint repair: correct-path fetch restarts the cycle
        // after the branch resolves.
        fetchAllowed_ = entry.doneCycle + 1;
        redirectPending_ = false;
    }

    // Wake the ops waiting on this one.  Their readyAt is at least
    // doneCycle > cycle_, so they go to the wheel, never into this
    // cycle's ready mask.
    for (uint32_t link = entry.depHead; link != kNoLink;) {
        const size_t d = link >> 1;
        Slot &dep = slots_[d];
        link = dep.depNext[link & 1];
        if (entry.doneCycle > dep.readyAt)
            dep.readyAt = entry.doneCycle;
        if (--dep.pending == 0)
            schedule(d);
    }
    entry.depHead = kNoLink;
}

void
CoreModel::schedule(size_t slot)
{
    const size_t bucket = slots_[slot].readyAt & wheelMask_;
    slots_[slot].wheelNext = wheel_[bucket];
    wheel_[bucket] = static_cast<uint32_t>(slot);
    setBit(wheelBusy_, bucket);
}

void
CoreModel::skipIdleCycles()
{
    // Nothing retired, issued or was fetched this cycle, so the ready
    // mask is empty and every later cycle repeats this one until the
    // earliest of: the head completing (retire frees the window), the
    // next wheel bucket (an issue), and fetch unblocking.
    uint64_t next = UINT64_MAX;
    if (headSeq_ != nextSeq_) {
        const Slot &head = slots_[headSeq_ & ringMask_];
        if (head.issued)
            next = head.doneCycle;
    }
    const size_t from = (cycle_ + 1) & wheelMask_;
    const size_t bucket =
        firstSetFrom(wheelBusy_.data(), wheelBusy_.size(), from);
    if (bucket != SIZE_MAX)
        next = std::min(next, cycle_ + 1 + ((bucket - from) & wheelMask_));
    if (fetchAllowed_ > cycle_)
        next = std::min(next, fetchAllowed_);
    if (next == UINT64_MAX || next <= cycle_ + 1)
        return;

    // Cycles cycle_ + 1 .. next - 1 are skipped.  Fetch is blocked in
    // all of them or in none: redirectPending_ clears only at an
    // issue, and fetchAllowed_ is either past or >= next.
    const uint64_t skipped = next - cycle_ - 1;
    if (!traceEnded_ && (redirectPending_ || cycle_ + 1 < fetchAllowed_))
        chargeStall(skipped);
    cycle_ += skipped;
}

void
CoreModel::chargeStall(uint64_t cycles)
{
    if (stallKind_ != BranchKind::None)
        stallByKind_[static_cast<size_t>(stallKind_)] += cycles;
    else if (btbStallPending_)
        btbMissStall_ += cycles;
}

void
CoreModel::rebuildSchedule()
{
    std::fill(ready_.begin(), ready_.end(), 0);
    std::fill(wheel_.begin(), wheel_.end(), kNoLink);
    std::fill(wheelBusy_.begin(), wheelBusy_.end(), 0);
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq)
        slots_[seq & ringMask_].depHead = kNoLink;

    // Suspended inside a fetch group, this cycle's issue stage has run
    // and the next one is in cycle_ + 1; otherwise it is in cycle_.
    const uint64_t next_issue = inFetch_ ? cycle_ + 1 : cycle_;
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const size_t s = seq & ringMask_;
        Slot &entry = slots_[s];
        if (entry.issued)
            continue;
        entry.readyAt = next_issue;
        entry.pending = 0;
        for (unsigned src = 0; src < 2; ++src) {
            // A producer below the head has retired: no wait.
            if (entry.srcSeq[src] >= headSeq_)
                linkSource(s, src, entry.srcSeq[src]);
        }
        if (entry.pending == 0)
            schedule(s);
    }
}

CoreResult
CoreModel::run(TraceSource &trace, FrontendPredictor &frontend,
               uint64_t max_instrs)
{
    beginSession();
    runSession(trace, frontend, max_instrs, UINT64_MAX);
    return endSession(frontend);
}

CoreResult
CoreModel::run(CompactReplay &trace, FrontendPredictor &frontend,
               uint64_t max_instrs)
{
    beginSession();
    runSession(trace, frontend, max_instrs, UINT64_MAX);
    return endSession(frontend);
}

void
CoreModel::beginSession()
{
    std::fill(ready_.begin(), ready_.end(), 0);
    std::fill(wheel_.begin(), wheel_.end(), kNoLink);
    std::fill(wheelBusy_.begin(), wheelBusy_.end(), 0);
    headSeq_ = 1;
    lastWriter_.fill(0);
    stallByKind_.fill(0);
    instructions_ = 0;
    cycle_ = 0;
    nextSeq_ = 1;
    fetchAllowed_ = 0;
    totalFetched_ = 0;
    fetched_ = 0;
    redirectPending_ = false;
    inFetch_ = false;
    stallKind_ = BranchKind::None;
    btbStallPending_ = false;
    btbMissStall_ = 0;
    traceEnded_ = false;
}

CoreResult
CoreModel::endSession(FrontendPredictor &frontend, bool count_metrics)
{
    CoreResult result;
    result.cycles = cycle_;
    result.instructions = instructions_;
    result.stallCyclesByKind = stallByKind_;
    result.btbMissStallCycles = btbMissStall_;
    result.frontend = frontend.stats();
    result.dcache = dcache_.stats();

    if (count_metrics) {
        // Once per run, not per cycle — the simulation loop stays
        // clean.
        static const obs::Counter cycles_simulated =
            obs::globalMetrics().counter("core.cycles_simulated");
        static const obs::Counter instructions_retired =
            obs::globalMetrics().counter("core.instructions_retired");
        cycles_simulated.inc(result.cycles);
        instructions_retired.inc(result.instructions);
    }
    return result;
}

namespace
{

void
saveOp(StateWriter &w, const MicroOp &op)
{
    w.u64(op.pc);
    w.u64(op.nextPc);
    w.u64(op.fallthrough);
    w.u64(op.memAddr);
    w.u64(op.selector);
    w.u8(static_cast<uint8_t>(op.cls));
    w.u8(static_cast<uint8_t>(op.branch));
    w.b(op.taken);
    w.i16(op.dstReg);
    w.i16(op.srcRegs[0]);
    w.i16(op.srcRegs[1]);
}

RegIndex
restoreReg(StateReader &r)
{
    const RegIndex reg = r.i16();
    if (reg != kNoReg && (reg < 0 || reg >= RegIndex{kNumArchRegs}))
        throw StateFormatError("core checkpoint: register out of range");
    return reg;
}

MicroOp
restoreOp(StateReader &r)
{
    MicroOp op;
    op.pc = r.u64();
    op.nextPc = r.u64();
    op.fallthrough = r.u64();
    op.memAddr = r.u64();
    op.selector = r.u64();
    const uint8_t cls = r.u8();
    if (cls >= kNumInstClasses)
        throw StateFormatError("core checkpoint: bad instruction class");
    op.cls = static_cast<InstClass>(cls);
    op.branch = static_cast<BranchKind>(r.u8());
    op.taken = r.b();
    op.dstReg = restoreReg(r);
    op.srcRegs[0] = restoreReg(r);
    op.srcRegs[1] = restoreReg(r);
    return op;
}

} // namespace

void
CoreModel::saveState(StateWriter &w) const
{
    dcache_.saveState(w);
    for (uint64_t seq : lastWriter_)
        w.u64(seq);
    for (uint64_t cycles : stallByKind_)
        w.u64(cycles);
    w.u64(btbMissStall_);
    w.u64(instructions_);
    w.u64(cycle_);
    w.u64(nextSeq_);
    w.u64(fetchAllowed_);
    w.u64(totalFetched_);
    w.u32(fetched_);
    w.b(redirectPending_);
    w.b(inFetch_);
    w.u8(static_cast<uint8_t>(stallKind_));
    w.b(btbStallPending_);
    w.b(traceEnded_);
    w.u64(nextSeq_ - headSeq_);
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const size_t s = seq & ringMask_;
        const Slot &entry = slots_[s];
        saveOp(w, ops_[s]);
        w.u64(seq);
        w.u64(entry.srcSeq[0]);
        w.u64(entry.srcSeq[1]);
        w.u64(entry.doneCycle);
        w.b(entry.issued);
        w.b(entry.mispredicted);
    }
}

void
CoreModel::restoreState(StateReader &r)
{
    dcache_.restoreState(r);
    for (uint64_t &seq : lastWriter_)
        seq = r.u64();
    for (uint64_t &cycles : stallByKind_)
        cycles = r.u64();
    btbMissStall_ = r.u64();
    instructions_ = r.u64();
    cycle_ = r.u64();
    nextSeq_ = r.u64();
    fetchAllowed_ = r.u64();
    totalFetched_ = r.u64();
    fetched_ = r.u32();
    redirectPending_ = r.b();
    inFetch_ = r.b();
    stallKind_ = static_cast<BranchKind>(r.u8());
    btbStallPending_ = r.b();
    traceEnded_ = r.b();
    const uint64_t window_size = r.u64();
    if (window_size > params_.window || window_size >= nextSeq_)
        throw StateFormatError("core checkpoint: window overflow");
    headSeq_ = nextSeq_ - window_size;
    for (uint64_t seq = headSeq_; seq != nextSeq_; ++seq) {
        const size_t s = seq & ringMask_;
        const MicroOp op = restoreOp(r);
        Slot &entry = slots_[s];
        if (r.u64() != seq)
            throw StateFormatError("core checkpoint: window seq gap");
        entry.srcSeq[0] = r.u64();
        entry.srcSeq[1] = r.u64();
        entry.doneCycle = r.u64();
        entry.issued = r.b();
        entry.mispredicted = r.b();
        // What rebuildSchedule() relies on: producers are older, and
        // an issued op completes within maxLatency_ of its issue.
        if (entry.srcSeq[0] >= seq || entry.srcSeq[1] >= seq ||
            (entry.issued && entry.doneCycle > cycle_ + maxLatency_))
            throw StateFormatError("core checkpoint: inconsistent op");
        entry.memAddr = op.memAddr;
        entry.cls = op.cls;
        entry.dstReg = op.dstReg;
        ops_[s] = op;
    }
    rebuildSchedule();
}

} // namespace tpred
