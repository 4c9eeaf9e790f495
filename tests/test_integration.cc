/**
 * @file
 * End-to-end tests over the full stack: every paper bug is detected,
 * overheads are ordered the way Table 3 reports, pruning works, and
 * the two watch backends behave consistently.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workloads/driver.h"

namespace safemem {
namespace {

RunParams
paramsFor(const std::string &app, bool buggy)
{
    RunParams params;
    params.requests = defaultRequests(app);
    params.buggy = buggy;
    params.seed = 42;
    return params;
}

TEST(IntegrationDetect, SafeMemDetectsYpserv1ALeak)
{
    RunResult r = runWorkload("ypserv1", ToolKind::SafeMemBoth,
                              paramsFor("ypserv1", true));
    EXPECT_TRUE(r.bugDetected);
    EXPECT_GE(r.leakReportsTrue, 1u);
}

TEST(IntegrationDetect, SafeMemDetectsYpserv2SLeak)
{
    RunResult r = runWorkload("ypserv2", ToolKind::SafeMemBoth,
                              paramsFor("ypserv2", true));
    EXPECT_TRUE(r.bugDetected);
    EXPECT_GE(r.leakReportsTrue, 1u);
}

TEST(IntegrationDetect, SafeMemDetectsProftpdLeak)
{
    RunResult r = runWorkload("proftpd", ToolKind::SafeMemBoth,
                              paramsFor("proftpd", true));
    EXPECT_TRUE(r.bugDetected);
}

TEST(IntegrationDetect, SafeMemDetectsSquid1Leak)
{
    RunResult r = runWorkload("squid1", ToolKind::SafeMemBoth,
                              paramsFor("squid1", true));
    EXPECT_TRUE(r.bugDetected);
}

TEST(IntegrationDetect, SafeMemDetectsGzipOverflow)
{
    RunResult r = runWorkload("gzip", ToolKind::SafeMemBoth,
                              paramsFor("gzip", true));
    EXPECT_TRUE(r.bugDetected);
    EXPECT_GE(r.corruptionTrue, 1u);
}

TEST(IntegrationDetect, SafeMemDetectsTarOverflow)
{
    RunResult r = runWorkload("tar", ToolKind::SafeMemBoth,
                              paramsFor("tar", true));
    EXPECT_TRUE(r.bugDetected);
    EXPECT_GE(r.corruptionTrue, 1u);
}

TEST(IntegrationDetect, SafeMemDetectsSquid2UseAfterFree)
{
    RunResult r = runWorkload("squid2", ToolKind::SafeMemBoth,
                              paramsFor("squid2", true));
    EXPECT_TRUE(r.bugDetected);
    EXPECT_GE(r.corruptionTrue, 1u);
}

TEST(IntegrationDetect, NoCorruptionFalsePositives)
{
    // Paper §6.4: "SafeMem does not have any false positives in memory
    // corruption detection." Swept as a parallel matrix so the
    // multi-machine execution path is exercised in tier-1 ctest.
    std::vector<RunSpec> specs;
    for (const std::string &app : appNames())
        specs.push_back({app, ToolKind::SafeMemBoth,
                         paramsFor(app, false)});
    for (const MatrixCell &cell : runMatrix(specs, 2)) {
        ASSERT_TRUE(cell.ok()) << cell.spec.app << ": " << cell.error;
        EXPECT_EQ(cell.result.corruptionTrue, 0u) << cell.spec.app;
        EXPECT_EQ(cell.result.corruptionFalse, 0u) << cell.spec.app;
    }
}

TEST(IntegrationDetect, NormalRunsReportNoLeakAtBugSite)
{
    std::vector<RunSpec> specs;
    for (const std::string &app : appNames())
        specs.push_back({app, ToolKind::SafeMemBoth,
                         paramsFor(app, false)});
    for (const MatrixCell &cell : runMatrix(specs, 2)) {
        ASSERT_TRUE(cell.ok()) << cell.spec.app << ": " << cell.error;
        EXPECT_EQ(cell.result.leakReportsTrue, 0u) << cell.spec.app;
    }
}

TEST(IntegrationOverhead, SafeMemIsCheapPurifyIsNot)
{
    // Table 3's shape: SafeMem single-digit-ish percent, Purify a
    // multiple of the baseline, with orders of magnitude between them.
    std::vector<RunSpec> specs;
    for (const std::string &app : {std::string("ypserv1"),
                                   std::string("gzip")}) {
        RunParams params = paramsFor(app, false);
        specs.push_back({app, ToolKind::None, params});
        specs.push_back({app, ToolKind::SafeMemBoth, params});
        specs.push_back({app, ToolKind::Purify, params});
    }
    std::vector<MatrixCell> cells = runMatrix(specs, 2);
    for (std::size_t i = 0; i < cells.size(); i += 3) {
        const std::string &app = cells[i].spec.app;
        ASSERT_TRUE(cells[i].ok() && cells[i + 1].ok() &&
                    cells[i + 2].ok())
            << app;
        const RunResult &base = cells[i].result;
        double sm_overhead = overheadPercent(cells[i + 1].result, base);
        double purify_overhead =
            overheadPercent(cells[i + 2].result, base);

        EXPECT_GT(sm_overhead, 0.0) << app;
        EXPECT_LT(sm_overhead, 25.0) << app;
        EXPECT_GT(purify_overhead, 300.0) << app;
        EXPECT_GT(purify_overhead / sm_overhead, 20.0) << app;
    }
}

TEST(IntegrationOverhead, MlOnlyIsCheaperThanMcOnly)
{
    RunParams params = paramsFor("ypserv1", false);
    RunResult base = runWorkload("ypserv1", ToolKind::None, params);
    RunResult ml = runWorkload("ypserv1", ToolKind::SafeMemML, params);
    RunResult mc = runWorkload("ypserv1", ToolKind::SafeMemMC, params);
    EXPECT_LT(overheadPercent(ml, base), overheadPercent(mc, base));
}

TEST(IntegrationSpace, EccWastesFarLessThanPageProtection)
{
    // Table 4's shape: page protection wastes ~64-74x more memory.
    RunParams params = paramsFor("ypserv1", false);
    RunResult ecc = runWorkload("ypserv1", ToolKind::SafeMemBoth, params);
    RunResult page =
        runWorkload("ypserv1", ToolKind::PageProtBoth, params);

    ASSERT_GT(ecc.userBytes, 0u);
    ASSERT_GT(page.userBytes, 0u);
    double ratio = page.wastePercent() / ecc.wastePercent();
    EXPECT_GT(ratio, 20.0);
}

TEST(IntegrationPruning, EccPruningRemovesFalsePositives)
{
    // Table 5's shape: several suspected groups, almost all pruned.
    RunResult r = runWorkload("ypserv1", ToolKind::SafeMemBoth,
                              paramsFor("ypserv1", true));
    EXPECT_GE(r.suspectedFalse, 2u);
    EXPECT_LE(r.leakReportsFalse, 1u);
    EXPECT_GT(r.prunedSuspects, 0u);
}

TEST(IntegrationPurify, PurifyAlsoDetectsCorruptionBugs)
{
    std::vector<RunSpec> specs;
    for (const std::string &app : {std::string("gzip"),
                                   std::string("tar"),
                                   std::string("squid2")})
        specs.push_back({app, ToolKind::Purify, paramsFor(app, true)});
    for (const MatrixCell &cell : runMatrix(specs, 3)) {
        ASSERT_TRUE(cell.ok()) << cell.spec.app << ": " << cell.error;
        EXPECT_GE(cell.result.corruptionTrue, 1u) << cell.spec.app;
    }
}

TEST(IntegrationPurify, PurifyFindsLeakedBlocks)
{
    RunResult r = runWorkload("ypserv1", ToolKind::Purify,
                              paramsFor("ypserv1", true));
    EXPECT_GE(r.leakReportsTrue, 1u);
}

} // namespace
} // namespace safemem
