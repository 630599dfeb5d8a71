/**
 * @file
 * Exact timing-model outputs on real workloads: cycles, the stall
 * breakdown and D-cache traffic of 20K-op runs, pinned to the values
 * the cycle-by-cycle core produced.  Any change to issue order, wakeup
 * timing or stall charging shifts at least one of these numbers.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "harness/paper_tables.hh"
#include "workloads/workload.hh"

namespace tpred
{
namespace
{

constexpr size_t kGoldenOps = 20000;

struct GoldenRun
{
    const char *workload;
    const char *config;  ///< "btb", "tagged" or "two-level"
    uint64_t cycles;
    std::array<uint64_t, 7> stallCyclesByKind;
    uint64_t btbMissStallCycles;
    uint64_t dcacheHits;
    uint64_t dcacheMisses;
};

/**
 * Names a run by workload and config, so gtest and ctest list it the
 * same way on every build instead of by the struct's raw bytes.
 */
void
PrintTo(const GoldenRun &golden, std::ostream *os)
{
    *os << golden.workload << ' ' << golden.config;
}

// Recorded from the cycle-by-cycle core.  BranchKind order: None,
// CondDirect, UncondDirect, IndirectJump, Call, IndirectCall, Return.
// gcc, go and perl under "btb" are in test_core_model_golden_btb.cc.
const std::vector<GoldenRun> kGolden = {
    {"compress", "btb", 34280, {0, 28736, 56, 634, 4, 0, 0}, 0, 2568, 1821},
    {"compress", "tagged", 34294, {0, 28799, 56, 585, 4, 0, 0}, 0, 2568,
     1821},
    {"gcc", "tagged", 17733, {0, 4686, 595, 6834, 124, 0, 0}, 0, 3151, 392},
    {"go", "tagged", 13004, {0, 2820, 3, 3607, 16, 0, 0}, 0, 2351, 91},
    {"ijpeg", "btb", 20233, {0, 14502, 5, 116, 35, 0, 0}, 0, 3323, 581},
    {"ijpeg", "tagged", 20241, {0, 14423, 5, 203, 35, 0, 0}, 0, 3323, 581},
    {"m88ksim", "btb", 13883, {0, 384, 3, 8339, 100, 0, 0}, 0, 4703, 281},
    {"m88ksim", "tagged", 13381, {0, 361, 3, 7101, 100, 0, 0}, 0, 4703, 281},
    {"perl", "tagged", 18357, {0, 1794, 405, 10620, 129, 0, 0}, 0, 3042, 623},
    {"vortex", "btb", 16005, {0, 8622, 26, 0, 17, 824, 0}, 0, 4736, 514},
    {"vortex", "tagged", 15921, {0, 8705, 26, 0, 17, 657, 0}, 0, 4736, 514},
    {"xlisp", "btb", 17598, {0, 2191, 52, 8520, 65, 0, 0}, 0, 3408, 398},
    {"xlisp", "tagged", 16000, {0, 2135, 52, 6973, 65, 0, 0}, 0, 3408, 398},
    {"server-dispatch", "two-level", 36692,
     {0, 10718, 1034, 6392, 0, 9516, 0}, 3398, 3920, 1074},
};

CoreResult
runGolden(const std::string &workload, const std::string &config)
{
    const SharedTrace trace = recordWorkload(workload, kGoldenOps);
    if (config == "tagged") {
        return runTiming(trace,
                         taggedConfig(TaggedIndexScheme::HistoryXor, 4,
                                      patternHistory(9)));
    }
    if (config == "two-level")
        return runTiming(trace, baselineConfig(), CoreParams{},
                         twoLevelBtbFrontend());
    return runTiming(trace, baselineConfig());
}

class CoreModelGolden : public ::testing::TestWithParam<GoldenRun>
{
};

TEST_P(CoreModelGolden, CyclesStallsAndDCacheUnchanged)
{
    const GoldenRun &golden = GetParam();
    const CoreResult r = runGolden(golden.workload, golden.config);
    EXPECT_EQ(r.instructions, kGoldenOps);
    EXPECT_EQ(r.cycles, golden.cycles);
    EXPECT_EQ(r.stallCyclesByKind, golden.stallCyclesByKind);
    EXPECT_EQ(r.btbMissStallCycles, golden.btbMissStallCycles);
    EXPECT_EQ(r.dcache.hits, golden.dcacheHits);
    EXPECT_EQ(r.dcache.misses, golden.dcacheMisses);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpec, CoreModelGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRun> &info) {
        std::string name =
            std::string(info.param.workload) + "_" + info.param.config;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace tpred
