/**
 * @file
 * Tests for the parallel run-matrix harness: parallelFor, per-run log
 * routing, and the bit-identical-regardless-of-workers contract that
 * makes whole simulator runs safe to fan out across cores.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

// ---------------------------------------------------------- parallelFor

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kJobs = 37;
    for (unsigned workers : {0u, 1u, 2u, unsigned(kJobs) + 3}) {
        std::vector<std::atomic<int>> runs(kJobs);
        parallelFor(kJobs, workers,
                    [&runs](std::size_t i) { runs[i].fetch_add(1); });
        for (std::size_t i = 0; i < kJobs; ++i)
            EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", "
                                         << workers << " workers";
    }
}

TEST(ParallelFor, OneWorkerRunsOnTheCallingThread)
{
    std::vector<std::thread::id> ran_on;
    parallelFor(5, 1, [&ran_on](std::size_t) {
        ran_on.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(ran_on, std::vector<std::thread::id>(
                          5, std::this_thread::get_id()));
}

TEST(ParallelFor, ClampWorkersSemantics)
{
    EXPECT_EQ(clampWorkers(4, 100), 4u);
    EXPECT_EQ(clampWorkers(8, 3), 3u);   // never more than jobs
    EXPECT_EQ(clampWorkers(5, 0), 5u);   // no jobs: keep request
    EXPECT_GE(clampWorkers(0, 100), 1u); // 0 = hardware, min 1
    EXPECT_EQ(clampWorkers(0, 1), 1u);
}

// ------------------------------------------------------------- logging

TEST(LogRouting, SinkReceivesMessages)
{
    std::vector<std::string> seen;
    Log log([&seen](LogLevel level, const std::string &msg) {
        seen.push_back(std::string(logLevelTag(level)) + msg);
    });
    LogScope scope(log);
    warn("w1");
    inform("i1");
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], std::string(logLevelTag(LogLevel::Warn)) + "w1");
    EXPECT_EQ(seen[1], std::string(logLevelTag(LogLevel::Inform)) + "i1");
}

TEST(LogRouting, QuietLogSuppresses)
{
    // No crash, no sink call; nothing observable but the absence of
    // stderr noise under the scope.
    Log quiet = Log::quiet();
    LogScope scope(quiet);
    warn("suppressed");
    inform("suppressed");
}

TEST(LogRouting, ScopesNestAndRestore)
{
    std::vector<std::string> outer_seen;
    std::vector<std::string> inner_seen;
    Log outer([&outer_seen](LogLevel, const std::string &msg) {
        outer_seen.push_back(msg);
    });
    Log inner([&inner_seen](LogLevel, const std::string &msg) {
        inner_seen.push_back(msg);
    });

    LogScope outer_scope(outer);
    warn("a");
    {
        LogScope inner_scope(inner);
        warn("b");
    }
    warn("c");
    EXPECT_EQ(outer_seen, (std::vector<std::string>{"a", "c"}));
    EXPECT_EQ(inner_seen, (std::vector<std::string>{"b"}));
}

TEST(LogRouting, ThreadsKeepIndependentSinks)
{
    std::vector<std::string> seen1;
    std::vector<std::string> seen2;
    auto run = [](std::vector<std::string> &seen, const char *tag) {
        Log log([&seen](LogLevel, const std::string &msg) {
            seen.push_back(msg);
        });
        LogScope scope(log);
        for (int i = 0; i < 100; ++i)
            warn(tag, i);
    };
    std::thread t1(run, std::ref(seen1), "one");
    std::thread t2(run, std::ref(seen2), "two");
    t1.join();
    t2.join();
    ASSERT_EQ(seen1.size(), 100u);
    ASSERT_EQ(seen2.size(), 100u);
    EXPECT_EQ(seen1[99], "one99");
    EXPECT_EQ(seen2[99], "two99");
}

// ------------------------------------------------------------- matrix

RunParams
smallParams(const std::string &app, bool buggy)
{
    RunParams params;
    params.requests = 300;
    params.seed = 42;
    params.buggy = buggy;
    (void)app;
    return params;
}

std::vector<RunSpec>
sampleSpecs(const Log &quiet)
{
    std::vector<RunSpec> specs;
    for (const std::string &app :
         {std::string("ypserv1"), std::string("gzip"),
          std::string("squid2"), std::string("proftpd")}) {
        for (ToolKind tool :
             {ToolKind::SafeMemBoth, ToolKind::None, ToolKind::Purify}) {
            RunSpec spec{app, tool, smallParams(app, app == "ypserv1")};
            spec.params.log = &quiet;
            specs.push_back(spec);
        }
    }
    return specs;
}

TEST(RunMatrix, ParallelIsBitIdenticalToSerial)
{
    const Log quiet = Log::quiet();
    std::vector<RunSpec> specs = sampleSpecs(quiet);

    std::vector<MatrixCell> serial = runMatrix(specs, 1);
    std::vector<MatrixCell> parallel = runMatrix(specs, 4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(serial[i].ok()) << serial[i].error;
        ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
        // operator== is the field-for-field default: cycle counts, every
        // detector verdict, the full stats map and the stability CDF all
        // have to match bit for bit.
        EXPECT_TRUE(serial[i].result == parallel[i].result)
            << specs[i].app << "/" << toolKindName(specs[i].tool);
        EXPECT_EQ(serial[i].result.stats, parallel[i].result.stats);
        EXPECT_EQ(serial[i].result.stabilityWarmups,
                  parallel[i].result.stabilityWarmups);
    }
}

TEST(RunMatrix, SameSeedSameResultAcrossRepeats)
{
    const Log quiet = Log::quiet();
    RunSpec spec{"squid1", ToolKind::SafeMemBoth,
                 smallParams("squid1", true)};
    spec.params.log = &quiet;

    std::vector<MatrixCell> first = runMatrix({spec, spec}, 2);
    std::vector<MatrixCell> second = runMatrix({spec, spec}, 1);
    ASSERT_TRUE(first[0].ok() && first[1].ok() && second[0].ok());
    EXPECT_TRUE(first[0].result == first[1].result);
    EXPECT_TRUE(first[0].result == second[0].result);
}

TEST(RunMatrix, ResultsStayInSpecOrder)
{
    const Log quiet = Log::quiet();
    std::vector<RunSpec> specs;
    for (const std::string &app :
         {std::string("gzip"), std::string("tar"),
          std::string("ypserv1")}) {
        RunSpec spec{app, ToolKind::None, smallParams(app, false)};
        spec.params.log = &quiet;
        specs.push_back(spec);
    }
    std::vector<MatrixCell> cells = runMatrix(specs, 3);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].result.app, "gzip");
    EXPECT_EQ(cells[1].result.app, "tar");
    EXPECT_EQ(cells[2].result.app, "ypserv1");
}

TEST(RunMatrix, FailedCellDoesNotPoisonTheBatch)
{
    const Log quiet = Log::quiet();
    RunSpec good{"gzip", ToolKind::None, smallParams("gzip", false)};
    good.params.log = &quiet;
    RunSpec bad{"no-such-app", ToolKind::None,
                smallParams("gzip", false)};
    bad.params.log = &quiet;

    std::vector<MatrixCell> cells = runMatrix({good, bad, good}, 2);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_TRUE(cells[0].ok());
    EXPECT_FALSE(cells[1].ok());
    EXPECT_NE(cells[1].error.find("unknown application"),
              std::string::npos);
    EXPECT_TRUE(cells[2].ok());
    EXPECT_TRUE(cells[0].result == cells[2].result);
}

TEST(RunMatrix, WorkersInheritTheCallersSink)
{
    // No per-run sink: each worker must report through the caller's
    // scope. The sink is shared by two threads, so it locks.
    Mutex mutex;
    std::vector<std::string> fatals;
    Log log([&](LogLevel level, const std::string &msg) {
        MutexLock lock(mutex);
        if (level == LogLevel::Fatal)
            fatals.push_back(msg);
    });
    LogScope scope(log);

    RunSpec bad{"no-such-app", ToolKind::None, smallParams("gzip", false)};
    ASSERT_EQ(bad.params.log, nullptr);
    std::vector<MatrixCell> cells = runMatrix({bad, bad}, 2);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_FALSE(cells[0].ok());
    EXPECT_FALSE(cells[1].ok());

    MutexLock lock(mutex);
    ASSERT_EQ(fatals.size(), 2u);
    for (const std::string &msg : fatals)
        EXPECT_NE(msg.find("unknown application 'no-such-app'"),
                  std::string::npos)
            << msg;
}

TEST(RunMatrix, EmptyMatrixIsFine)
{
    EXPECT_TRUE(runMatrix({}, 4).empty());
}

TEST(RunMatrix, TwoMachinesOnTwoThreadsMatchSequentialReference)
{
    // The rawest form of the instance-safety claim: two full machines
    // driven concurrently from plain std::threads behave exactly like
    // the same runs performed back to back.
    const Log quiet = Log::quiet();
    RunParams params = smallParams("squid2", true);
    params.log = &quiet;

    RunResult ref_a = runWorkload("squid2", ToolKind::SafeMemBoth, params);
    RunResult ref_b = runWorkload("tar", ToolKind::Purify, params);

    RunResult got_a;
    RunResult got_b;
    std::thread t1([&] {
        got_a = runWorkload("squid2", ToolKind::SafeMemBoth, params);
    });
    std::thread t2(
        [&] { got_b = runWorkload("tar", ToolKind::Purify, params); });
    t1.join();
    t2.join();

    EXPECT_TRUE(got_a == ref_a);
    EXPECT_TRUE(got_b == ref_b);
}

TEST(RunMatrix, PaperParamsMatchTheEvaluationSetup)
{
    RunParams params = paperParams("gzip", false);
    EXPECT_EQ(params.requests, defaultRequests("gzip"));
    EXPECT_EQ(params.seed, 42u);
    EXPECT_FALSE(params.buggy);
    EXPECT_TRUE(paperParams("ypserv1", true).buggy);
    EXPECT_EQ(paperParams("ypserv1", true).requests,
              defaultRequests("ypserv1"));
}

} // namespace
} // namespace safemem
