/** @file Unit tests for the functional-unit latency table (Table 3). */

#include <gtest/gtest.h>

#include "uarch/fu_pool.hh"

namespace tpred
{
namespace
{

TEST(FuPool, SingleCycleClasses)
{
    EXPECT_EQ(executionLatency(InstClass::Integer), 1u);
    EXPECT_EQ(executionLatency(InstClass::BitField), 1u);
    EXPECT_EQ(executionLatency(InstClass::Branch), 1u);
    EXPECT_EQ(executionLatency(InstClass::Store), 1u);
    EXPECT_EQ(executionLatency(InstClass::Load), 1u);
}

TEST(FuPool, MultiCycleClasses)
{
    EXPECT_EQ(executionLatency(InstClass::FpAdd), 3u);
    EXPECT_EQ(executionLatency(InstClass::Mul), 3u);
    EXPECT_EQ(executionLatency(InstClass::Div), 8u);
}

TEST(FuPool, TableMatchesAccessor)
{
    const auto &table = latencyTable();
    ASSERT_EQ(table.size(), kNumInstClasses);
    for (size_t i = 0; i < table.size(); ++i)
        EXPECT_EQ(table[i],
                  executionLatency(static_cast<InstClass>(i)));
}

/** CoreModel's event-driven issue is exact only under this; its
 *  constructor throws on a zero entry. */
TEST(FuPool, AllLatenciesPositive)
{
    for (unsigned lat : latencyTable())
        EXPECT_GE(lat, 1u);
}

} // namespace
} // namespace tpred
