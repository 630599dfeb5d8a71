/**
 * @file
 * Exact timing-model outputs of the baseline-BTB core on gcc, go and
 * perl (20K ops), pinned like the runs in test_core_model_golden.cc.
 * BtbGolden prints as its workload name, so gtest lists these tests
 * under the same name on every run; a parameter gtest cannot print is
 * listed by its raw bytes, string addresses included, and ASLR moves
 * those addresses from run to run.
 */

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>

#include "harness/paper_tables.hh"
#include "workloads/workload.hh"

namespace tpred
{
namespace
{

constexpr size_t kGoldenOps = 20000;

struct BtbGolden
{
    const char *workload;
    uint64_t cycles;
    std::array<uint64_t, 7> stallCyclesByKind;
    uint64_t dcacheHits;
    uint64_t dcacheMisses;
};

void
PrintTo(const BtbGolden &golden, std::ostream *os)
{
    *os << golden.workload;
}

// Recorded from the cycle-by-cycle core.  BranchKind order: None,
// CondDirect, UncondDirect, IndirectJump, Call, IndirectCall, Return.
constexpr BtbGolden kBtbGolden[] = {
    {"gcc", 18950, {0, 4290, 595, 8462, 124, 0, 0}, 3151, 392},
    {"go", 12752, {0, 3001, 3, 3174, 16, 0, 0}, 2351, 91},
    {"perl", 19606, {0, 1354, 405, 12871, 129, 0, 0}, 3041, 624},
};

class CoreModelBtbGolden : public ::testing::TestWithParam<BtbGolden>
{
};

TEST_P(CoreModelBtbGolden, CyclesStallsAndDCacheUnchanged)
{
    const BtbGolden &golden = GetParam();
    const CoreResult r = runTiming(
        recordWorkload(golden.workload, kGoldenOps), baselineConfig());
    EXPECT_EQ(r.instructions, kGoldenOps);
    EXPECT_EQ(r.cycles, golden.cycles);
    EXPECT_EQ(r.stallCyclesByKind, golden.stallCyclesByKind);
    EXPECT_EQ(r.btbMissStallCycles, 0u);
    EXPECT_EQ(r.dcache.hits, golden.dcacheHits);
    EXPECT_EQ(r.dcache.misses, golden.dcacheMisses);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpec, CoreModelBtbGolden, ::testing::ValuesIn(kBtbGolden),
    [](const ::testing::TestParamInfo<BtbGolden> &info) {
        return std::string(info.param.workload);
    });

} // namespace
} // namespace tpred
