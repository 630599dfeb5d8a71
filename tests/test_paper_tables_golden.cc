/**
 * @file
 * Golden paper tables: the rendered text of every paper table and
 * figure render function, plus the BTB-pressure extension grid, at
 * the small op counts test_paper_tables_differential.cc uses.  A
 * refactor of the sweep, timing or predictor layers must leave every
 * cell unchanged; when one moves, the failure names the table, the
 * line and both versions of it, so the cell that moved is visible at
 * a glance.
 *
 * To re-record after a deliberate output change, print each render
 * function's text at these op counts and paste it between the
 * R"golden( ... )golden" delimiters; say in the change log why the
 * cells moved.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/paper_tables.hh"

namespace tpred
{
namespace
{

/** Same op counts as the serial-vs-parallel differential. */
constexpr size_t kAccuracyOps = 20000;
constexpr size_t kTimingOps = 10000;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

/**
 * Renders through the parallel runner and compares line by line
 * against @p golden, which starts with a newline so the literal can
 * open on its own line.
 */
void
expectGolden(std::string (*render)(const TableOptions &), size_t ops,
             const char *golden)
{
    const std::string expected = std::string(golden).substr(1);
    const std::string actual =
        render({.ops = ops, .mode = ExecMode::Parallel, .threads = 4});
    const auto want = splitLines(expected);
    const auto got = splitLines(actual);
    bool lines_match = true;
    for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
        const std::string &w = i < want.size() ? want[i] : "<missing>";
        const std::string &g = i < got.size() ? got[i] : "<missing>";
        if (g != w) {
            ADD_FAILURE() << "line " << i + 1 << " moved\n  golden: " << w
                          << "\n  actual: " << g;
            lines_match = false;
        }
    }
    // Line-equal text can still differ in its final newline.
    if (lines_match) {
        EXPECT_EQ(actual, expected);
    }
}

TEST(PaperTablesGolden, Fig1to8TargetHistograms)
{
    expectGolden(renderFig1to8, kAccuracyOps, R"golden(
Figure (compress): % of dynamic indirect jumps by targets of their static site
     3 | ################################################## 100.00%

  static sites: 1, dynamic indirect jumps: 241

Figure (gcc): % of dynamic indirect jumps by targets of their static site
     2 | #                                                    2.71%
     3 | ###                                                  5.76%
     4 | #                                                    1.69%
     7 | ###                                                  5.42%
     8 | #####                                               10.16%
    12 | ##########                                          19.05%
    14 | #####                                               10.16%
    22 | #####                                               10.16%
 >= 30 | #################                                   34.89%

  static sites: 14, dynamic indirect jumps: 1,181

Figure (go): % of dynamic indirect jumps by targets of their static site
    11 | ################################################## 100.00%

  static sites: 1, dynamic indirect jumps: 559

Figure (ijpeg): % of dynamic indirect jumps by targets of their static site
     2 | ################################################## 100.00%

  static sites: 2, dynamic indirect jumps: 271

Figure (m88ksim): % of dynamic indirect jumps by targets of their static site
     3 | ###                                                  5.25%
    14 | ###############################################     94.75%

  static sites: 2, dynamic indirect jumps: 724

Figure (perl): % of dynamic indirect jumps by targets of their static site
     3 | #####                                                9.55%
     8 | #######################                             45.23%
    21 | #######################                             45.23%

  static sites: 3, dynamic indirect jumps: 995

Figure (vortex): % of dynamic indirect jumps by targets of their static site
     5 | ########################################            79.79%
     6 | ##########                                          20.21%

  static sites: 4, dynamic indirect jumps: 579

Figure (xlisp): % of dynamic indirect jumps by targets of their static site
     7 | ################################################## 100.00%

  static sites: 1, dynamic indirect jumps: 1,694

)golden");
}

TEST(PaperTablesGolden, Table1BtbBaseline)
{
    expectGolden(renderTable1, kAccuracyOps, R"golden(
Benchmark   #Instructions   #Branches   #Indirect Jumps   Ind. Jump Mispred. Rate
------------------------------------------------------------------------------------
compress    20,000          6,091       241               25.3%
gcc         20,000          7,871       1,181             88.2%
go          20,000          8,765       559               66.5%
ijpeg       20,000          5,812       271               13.3%
m88ksim     20,000          5,725       724               49.9%
perl        20,000          4,982       995               86.3%
vortex      20,000          7,585       579               15.9%
xlisp       20,000          8,865       1,694             48.5%
)golden");
}

TEST(PaperTablesGolden, Table2TwoBitStrategy)
{
    expectGolden(renderTable2, kAccuracyOps, R"golden(
Benchmark   BTB     2-bit BTB   512-entry target cache
---------------------------------------------------------
compress    25.3%   12.9%       36.9%
gcc         88.2%   91.3%       54.8%
go          66.5%   70.1%       81.8%
ijpeg       13.3%   8.1%        19.9%
m88ksim     49.9%   67.0%       29.1%
perl        86.3%   83.1%       44.6%
vortex      15.9%   22.5%       14.3%
xlisp       48.5%   54.1%       26.8%
)golden");
}

TEST(PaperTablesGolden, Table4TaglessPattern)
{
    expectGolden(renderTable4, kAccuracyOps, R"golden(
Benchmark   BTB     GAg(9)   GAs(8,1)   GAs(7,2)   gshare
------------------------------------------------------------
gcc         88.2%   56.2%    60.0%      68.1%      54.8%
perl        86.3%   23.7%    46.5%      62.6%      44.6%
)golden");
}

TEST(PaperTablesGolden, Table5PathAddrBits)
{
    expectGolden(renderTable5, kTimingOps, R"golden(
[gcc]
addr bit         Per-addr   Branch   Control   Ind jmp   Call/ret
--------------------------------------------------------------------
bit 2 (lowest)   8.12%      2.37%    4.56%     9.66%     -0.12%
bit 4            8.79%      9.71%    7.39%     9.93%     0.06%
bit 6            8.40%      9.27%    9.10%     10.38%    0.02%
bit 8            8.91%      8.74%    6.14%     10.65%    0.00%
bit 10           8.31%      5.70%    5.29%     10.10%    -0.03%

[perl]
addr bit         Per-addr   Branch   Control   Ind jmp   Call/ret
--------------------------------------------------------------------
bit 2 (lowest)   10.41%     5.32%    1.23%     7.70%     10.16%
bit 4            11.50%     11.93%   5.15%     10.98%    9.81%
bit 6            12.16%     9.28%    8.72%     12.67%    12.15%
bit 8            10.79%     8.83%    5.56%     12.60%    12.60%
bit 10           5.44%      6.83%    3.21%     8.70%     9.25%

)golden");
}

TEST(PaperTablesGolden, Table6PathBitsPerTarget)
{
    expectGolden(renderTable6, kTimingOps, R"golden(
[gcc]
bits per addr   Per-addr   Branch   Control   Ind jmp   Call/ret
-------------------------------------------------------------------
1               8.12%      2.37%    4.56%     9.66%     -0.12%
2               10.19%     2.90%    1.12%     11.38%    -0.82%
3               9.76%      3.41%    -0.11%    10.21%    -0.05%
4               9.99%      2.42%    0.55%     10.61%    -0.20%

[perl]
bits per addr   Per-addr   Branch   Control   Ind jmp   Call/ret
-------------------------------------------------------------------
1               10.41%     5.32%    1.23%     7.70%     10.16%
2               10.51%     4.26%    1.70%     6.23%     11.42%
3               11.87%     2.33%    1.32%     9.07%     7.56%
4               9.61%      3.64%    1.39%     9.99%     7.95%

)golden");
}

TEST(PaperTablesGolden, Table7TaggedIndexing)
{
    expectGolden(renderTable7, kTimingOps, R"golden(
[gcc]
set-assoc.   Addr    History Conc   History Xor
--------------------------------------------------
1            0.00%   7.36%          7.36%
2            0.03%   7.75%          8.08%
4            1.39%   7.49%          8.09%
8            1.39%   7.97%          8.74%
16           1.49%   8.74%          8.74%

[perl]
set-assoc.   Addr    History Conc   History Xor
--------------------------------------------------
1            0.00%   5.81%          3.96%
2            0.00%   6.88%          4.28%
4            0.85%   8.39%          4.36%
8            0.85%   10.75%         5.71%
16           0.00%   10.75%         5.71%

)golden");
}

TEST(PaperTablesGolden, Table8TaggedPath)
{
    expectGolden(renderTable8, kTimingOps, R"golden(
[gcc]
set-assoc.   Per-addr   Branch   Control   Ind jmp   Call/ret
----------------------------------------------------------------
1            8.13%      2.59%    3.38%     9.21%     0.00%
2            9.07%      2.78%    3.87%     10.28%    0.00%
4            9.07%      2.97%    5.05%     10.62%    0.00%
8            9.07%      2.97%    5.05%     10.62%    0.00%
16           9.07%      2.97%    5.05%     10.62%    0.00%

[perl]
set-assoc.   Per-addr   Branch   Control   Ind jmp   Call/ret
----------------------------------------------------------------
1            10.23%     5.42%    0.73%     6.17%     7.33%
2            10.48%     5.15%    1.37%     5.55%     10.30%
4            10.48%     5.42%    0.82%     7.83%     10.30%
8            10.48%     5.42%    1.29%     7.83%     10.30%
16           10.48%     5.42%    1.29%     7.83%     10.30%

)golden");
}

TEST(PaperTablesGolden, Table9HistoryLength)
{
    expectGolden(renderTable9, kTimingOps, R"golden(
[gcc]
set-assoc.   9 bits   16 bits
--------------------------------
1            7.36%    6.98%
2            8.08%    8.92%
4            8.09%    9.90%
8            8.74%    11.13%
16           8.74%    11.78%

[perl]
set-assoc.   9 bits   16 bits
--------------------------------
1            3.96%    4.53%
2            4.28%    4.93%
4            4.36%    8.05%
8            5.71%    10.39%
16           5.71%    8.22%

)golden");
}

TEST(PaperTablesGolden, Fig1213TaglessVsTagged)
{
    expectGolden(renderFig1213, kTimingOps, R"golden(
[gcc]
set-assoc.   w/ tags (256-entry)   w/o tags (512-entry)
----------------------------------------------------------
1            7.36%                 7.89%
2            8.08%                 7.89%
4            8.09%                 7.89%
8            8.74%                 7.89%
16           8.74%                 7.89%

[perl]
set-assoc.   w/ tags (256-entry)   w/o tags (512-entry)
----------------------------------------------------------
1            3.96%                 5.64%
2            4.28%                 5.64%
4            4.36%                 5.64%
8            5.71%                 5.64%
16           5.71%                 5.64%

)golden");
}

TEST(PaperTablesGolden, BtbPressureGrid)
{
    expectGolden(renderBtbPressure, kTimingOps, R"golden(
Benchmark         BTB hierarchy   BTB hits   BTB ind.miss   tagless   tagged   BTB-stall cyc/1K
--------------------------------------------------------------------------------------------------
gcc               1-level 1K      92.1%      89.4%          46.6%     46.3%    0.0
                  1-level 64      78.3%      89.9%          48.2%     48.4%    0.0
                  2-level 64+8K   92.1%      89.4%          46.6%     46.3%    69.6
--------------------------------------------------------------------------------------------------
perl              1-level 1K      96.7%      84.1%          52.1%     59.6%    0.0
                  1-level 64      74.5%      84.1%          52.1%     59.6%    0.0
                  2-level 64+8K   96.7%      84.1%          52.1%     59.6%    86.4
--------------------------------------------------------------------------------------------------
cpp-virtual       1-level 1K      97.0%      67.6%          81.5%     70.3%    0.0
                  1-level 64      84.3%      72.3%          84.1%     74.9%    0.0
                  2-level 64+8K   97.0%      67.6%          81.5%     70.3%    65.0
--------------------------------------------------------------------------------------------------
server-dispatch   1-level 1K      72.9%      85.2%          98.9%     86.7%    0.0
                  1-level 64      27.2%      96.9%          99.8%     97.2%    0.0
                  2-level 64+8K   74.7%      84.9%          98.9%     86.4%    119.8
--------------------------------------------------------------------------------------------------
server-jit        1-level 1K      97.0%      49.7%          49.7%     49.7%    0.0
                  1-level 64      95.2%      49.7%          49.7%     49.7%    0.0
                  2-level 64+8K   97.0%      49.7%          49.7%     49.7%    9.0
)golden");
}

} // namespace
} // namespace tpred
