/** @file Unit tests for the out-of-order timing model. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_util.hh"
#include "uarch/core_model.hh"

namespace tpred
{
namespace
{

CoreParams
smallCore()
{
    CoreParams params;
    params.width = 4;
    params.window = 32;
    params.fuCount = 4;
    return params;
}

CoreResult
run(std::vector<MicroOp> ops, const CoreParams &params = smallCore())
{
    VectorTraceSource trace(std::move(ops));
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel core(params);
    return core.run(trace, frontend, 1u << 30);
}

/** Independent single-cycle ops retire at the machine width. */
TEST(CoreModel, IdealThroughputBoundedByWidth)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 4000; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4);
        op.srcRegs = {kNoReg, kNoReg};
        op.dstReg = static_cast<RegIndex>(8 + (i % 40));
        ops.push_back(op);
    }
    CoreResult result = run(ops);
    EXPECT_EQ(result.instructions, 4000u);
    EXPECT_GT(result.ipc(), 3.0);
    EXPECT_LE(result.ipc(), 4.0 + 1e-9);
}

/** A serial dependence chain of 1-cycle ops runs at IPC ~1. */
TEST(CoreModel, DependenceChainSerializes)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 2000; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4);
        op.srcRegs = {10, kNoReg};
        op.dstReg = 10;  // every op depends on the previous one
        ops.push_back(op);
    }
    CoreResult result = run(ops);
    EXPECT_NEAR(result.ipc(), 1.0, 0.1);
}

/** A chain of divides runs at IPC ~ 1/8. */
TEST(CoreModel, LongLatencyChain)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 500; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4, InstClass::Div);
        op.srcRegs = {10, kNoReg};
        op.dstReg = 10;
        ops.push_back(op);
    }
    CoreResult result = run(ops);
    EXPECT_NEAR(result.ipc(), 1.0 / 8.0, 0.02);
}

/** Correctly predicted branches cost nothing beyond the taken-branch
 *  fetch break. */
TEST(CoreModel, PredictedLoopIsCheap)
{
    // A tight loop: 3 ops + backward branch, 200 iterations; gshare
    // learns the all-taken pattern immediately.
    std::vector<MicroOp> ops;
    for (int iter = 0; iter < 200; ++iter) {
        for (int i = 0; i < 3; ++i) {
            MicroOp op = test::plainOp(0x1000 + i * 4);
            op.srcRegs = {kNoReg, kNoReg};
            op.dstReg = static_cast<RegIndex>(8 + i);
            ops.push_back(op);
        }
        ops.push_back(test::branchOp(0x100c, BranchKind::CondDirect,
                                     0x1000, iter + 1 < 200));
    }
    CoreResult result = run(ops);
    // 4 instructions per iteration, 1 fetch group per iteration
    // (taken branch ends the group): IPC approaches 4.
    EXPECT_GT(result.ipc(), 2.5);
}

/** Mispredicted branches cost fetch bubbles. */
TEST(CoreModel, MispredictionsSlowExecution)
{
    auto make_jumps = [](bool alternate) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 2000; ++i) {
            // Pad so the BTB is warm but targets alternate.
            MicroOp pad = test::plainOp(0x100);
            pad.srcRegs = {kNoReg, kNoReg};
            ops.push_back(pad);
            uint64_t target = alternate && (i & 1) ? 0x5000 : 0x4000;
            ops.push_back(test::indirectOp(0x200, target));
        }
        return ops;
    };
    CoreResult stable = run(make_jumps(false));
    CoreResult alternating = run(make_jumps(true));
    EXPECT_GT(alternating.cycles, stable.cycles * 3 / 2);
}

/** Cache-missing loads cost memory latency. */
TEST(CoreModel, CacheMissesSlowExecution)
{
    auto make_loads = [](uint64_t stride) {
        std::vector<MicroOp> ops;
        for (int i = 0; i < 1000; ++i) {
            MicroOp op = test::plainOp(0x1000 + (i % 8) * 4,
                                       InstClass::Load);
            op.memAddr = 0x100000 + i * stride;
            op.srcRegs = {10, kNoReg};
            op.dstReg = 10;  // serialize on the load results
            ops.push_back(op);
        }
        return ops;
    };
    CoreResult hits = run(make_loads(0));      // same line every time
    CoreResult misses = run(make_loads(4096)); // new set every time
    EXPECT_GT(misses.cycles, hits.cycles * 5);
}

TEST(CoreModel, DrainCompletesAllInstructions)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < 37; ++i)
        ops.push_back(test::plainOp(0x1000 + i * 4));
    CoreResult result = run(ops);
    EXPECT_EQ(result.instructions, 37u);
    EXPECT_GT(result.cycles, 0u);
}

TEST(CoreModel, RespectsMaxInstrs)
{
    std::vector<MicroOp> ops(500, test::plainOp(0x100));
    VectorTraceSource trace(ops);
    FrontendPredictor frontend{FrontendConfig{}};
    CoreModel core(smallCore());
    CoreResult result = core.run(trace, frontend, 100);
    EXPECT_GE(result.instructions, 100u);
    EXPECT_LT(result.instructions, 150u);
}

TEST(CoreModel, WindowLimitsInFlight)
{
    // With window 4 and a long-latency head, throughput collapses.
    CoreParams tiny = smallCore();
    tiny.window = 4;
    std::vector<MicroOp> ops;
    for (int i = 0; i < 400; ++i) {
        MicroOp op = test::plainOp(
            0x1000 + i * 4,
            i % 4 == 0 ? InstClass::Div : InstClass::Integer);
        op.srcRegs = {kNoReg, kNoReg};
        op.dstReg = static_cast<RegIndex>(8 + i % 40);
        ops.push_back(op);
    }
    CoreResult small = run(ops, tiny);
    CoreResult big = run(ops);
    EXPECT_GT(big.ipc(), small.ipc() * 1.5);
}

// A machine with no fetch/retire width, window slot or functional
// unit could never retire an op; the constructor refuses it instead
// of letting run() spin forever.

TEST(CoreModel, ZeroWidthThrows)
{
    CoreParams params;
    params.width = 0;
    EXPECT_THROW(CoreModel{params}, std::invalid_argument);
}

TEST(CoreModel, ZeroWindowThrows)
{
    CoreParams params;
    params.window = 0;
    EXPECT_THROW(CoreModel{params}, std::invalid_argument);
}

TEST(CoreModel, ZeroFuCountThrows)
{
    CoreParams params;
    params.fuCount = 0;
    EXPECT_THROW(CoreModel{params}, std::invalid_argument);
}

/** The window ring and the timing wheel are sized from these. */
TEST(CoreModel, OversizedWindowOrMemoryLatencyThrows)
{
    CoreParams wide;
    wide.window = (1u << 16) + 1;
    EXPECT_THROW(CoreModel{wide}, std::invalid_argument);
    CoreParams slow;
    slow.dcache.missLatency = 1u << 16;  // + hitLatency 1
    EXPECT_THROW(CoreModel{slow}, std::invalid_argument);
}

/** @p n ops with no register sources, so none waits on another. */
std::vector<MicroOp>
independentOps(int n, InstClass cls = InstClass::Integer)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4, cls);
        op.dstReg = static_cast<RegIndex>(8 + (i % 40));
        ops.push_back(op);
    }
    return ops;
}

/** @p n ops of @p cls, each reading the previous one's result. */
std::vector<MicroOp>
chainOps(int n, InstClass cls)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i) {
        MicroOp op = test::plainOp(0x1000 + i * 4, cls);
        op.srcRegs = {10, kNoReg};
        op.dstReg = 10;
        ops.push_back(op);
    }
    return ops;
}

// Closed-form cycle counts.  An op fetched in cycle d issues at the
// earliest in d + 1, completes latency cycles after it issues and
// retires in its completion cycle; the run ends the cycle after the
// last retirement.

/** Op k of a 1-cycle chain issues in k + 1 and retires in k + 2. */
TEST(CoreModelExact, DependentChainTakesOneCyclePerOp)
{
    constexpr int n = 1000;
    CoreResult result = run(chainOps(n, InstClass::Integer));
    EXPECT_EQ(result.instructions, uint64_t{n});
    EXPECT_EQ(result.cycles, uint64_t{n} + 2);
}

/** Op k of a Div chain issues in 8k + 1 and retires in 8k + 9. */
TEST(CoreModelExact, DivChainTakesEightCyclesPerOp)
{
    constexpr int n = 200;
    CoreResult result = run(chainOps(n, InstClass::Div));
    EXPECT_EQ(result.instructions, uint64_t{n});
    EXPECT_EQ(result.cycles, 8 * uint64_t{n} + 2);
}

/**
 * A chain of loads that all miss: each takes its 1-cycle execute plus
 * the D-cache's hit and miss latencies.  The 300-cycle memory pins the
 * timing wheel's sizing, which must cover the longest miss.
 */
TEST(CoreModelExact, MissingLoadChainPaysFullMemoryLatency)
{
    constexpr int n = 50;
    std::vector<MicroOp> ops = chainOps(n, InstClass::Load);
    for (int i = 0; i < n; ++i)
        ops[i].memAddr = 0x100000 + uint64_t(i) * 4096;  // one set
    for (unsigned miss : {20u, 300u}) {
        CoreParams params = smallCore();
        params.dcache.missLatency = miss;
        CoreResult result = run(ops, params);
        EXPECT_EQ(result.dcache.misses, uint64_t{n});
        EXPECT_EQ(result.cycles, n * (2 + uint64_t{miss}) + 2)
            << "missLatency " << miss;
    }
}

/** Fetch group g (width 4) issues in g + 1 and retires in g + 2. */
TEST(CoreModelExact, IndependentStreamIsWidthBound)
{
    constexpr int n = 4000;
    CoreResult result = run(independentOps(n));
    EXPECT_EQ(result.instructions, uint64_t{n});
    EXPECT_EQ(result.cycles, uint64_t{n} / 4 + 2);
}

/**
 * Blocks of six independent ops and one mispredicted indirect jump.
 * A block takes two fetch cycles, the second ending at the jump; the
 * jump issues the next cycle and completes the one after, and fetch
 * resumes the cycle after that — four cycles per block, two of them
 * fetch stalls charged to IndirectJump.  After the last jump the
 * resumed fetch spends one more cycle finding the trace exhausted.
 */
TEST(CoreModelExact, OneMispredictPerBlockCostsTwoStallCycles)
{
    constexpr int blocks = 300;
    std::vector<MicroOp> ops;
    for (int b = 0; b < blocks; ++b) {
        for (int i = 0; i < 6; ++i) {
            MicroOp op = test::plainOp(0x100 + i * 4);
            op.dstReg = static_cast<RegIndex>(8 + i);
            ops.push_back(op);
        }
        // Alternating targets: the BTB always holds the other one.
        ops.push_back(test::indirectOp(0x200, (b & 1) ? 0x5000 : 0x4000));
    }
    CoreResult result = run(ops);
    EXPECT_EQ(result.instructions, uint64_t{7 * blocks});
    EXPECT_EQ(result.frontend.indirectJumps.misses(),
              uint64_t{blocks});
    EXPECT_EQ(result.cycles, 4 * uint64_t{blocks} + 1);
    EXPECT_EQ(result.stallCyclesByKind[static_cast<size_t>(
                  BranchKind::IndirectJump)],
              2 * uint64_t{blocks});
    EXPECT_EQ(result.indirectStallCycles(), 2 * uint64_t{blocks});
}

} // namespace
} // namespace tpred
