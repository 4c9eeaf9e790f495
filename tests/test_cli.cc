/**
 * @file
 * Tests for the CLI parsing/reporting layer behind safemem_run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"
#include "workloads/cli.h"
#include "workloads/report_writer.h"

namespace safemem {
namespace {

TEST(Cli, NoArgumentsShowsUsage)
{
    CliParse parse = parseCliArguments({});
    EXPECT_FALSE(parse.options.has_value());
    EXPECT_NE(parse.message.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownAppRejected)
{
    CliParse parse = parseCliArguments({"notepad"});
    EXPECT_FALSE(parse.options.has_value());
    EXPECT_NE(parse.message.find("unknown application"),
              std::string::npos);
}

TEST(Cli, DefaultsApplied)
{
    CliParse parse = parseCliArguments({"gzip"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->app, "gzip");
    EXPECT_EQ(parse.options->tool, ToolKind::SafeMemBoth);
    EXPECT_FALSE(parse.options->params.buggy);
    EXPECT_EQ(parse.options->params.requests, defaultRequests("gzip"));
    EXPECT_EQ(parse.options->params.seed, 42u);
}

TEST(Cli, AllFlagsParsed)
{
    CliParse parse = parseCliArguments(
        {"squid1", "--tool", "purify", "--buggy", "--requests", "123",
         "--seed", "9", "--overhead", "--stats=leak"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->tool, ToolKind::Purify);
    EXPECT_TRUE(parse.options->params.buggy);
    EXPECT_EQ(parse.options->params.requests, 123u);
    EXPECT_EQ(parse.options->params.seed, 9u);
    EXPECT_TRUE(parse.options->compareBaseline);
    EXPECT_TRUE(parse.options->dumpStats);
    EXPECT_EQ(parse.options->statsPrefix, "leak");
}

TEST(Cli, AllSweepParsed)
{
    CliParse parse = parseCliArguments({"all", "--workers", "3"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_TRUE(parse.options->allApps);
    EXPECT_EQ(parse.options->workers, 3u);
    // Each swept app resolves its own default request count later.
    EXPECT_EQ(parse.options->params.requests, 0u);
}

TEST(Cli, PaperParsed)
{
    CliParse parse = parseCliArguments({"paper"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_TRUE(parse.options->paper);
}

TEST(Cli, PaperRejectsAnyOption)
{
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"paper", "--workers", "2"},
          std::vector<std::string>{"paper", "extra"}}) {
        CliParse bad = parseCliArguments(args);
        EXPECT_FALSE(bad.options.has_value()) << args[1];
        EXPECT_NE(bad.message.find("usage:"), std::string::npos) << args[1];
    }
}

TEST(Cli, WorkersDefaultsToSequential)
{
    CliParse parse = parseCliArguments({"gzip"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_FALSE(parse.options->allApps);
    EXPECT_EQ(parse.options->workers, 1u);
}

TEST(Cli, ProcsFlagParsed)
{
    CliParse parse = parseCliArguments({"ypserv1", "--procs", "3"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->procs, 3u);

    CliParse zero = parseCliArguments({"ypserv1", "--procs", "0"});
    EXPECT_FALSE(zero.options.has_value());
    EXPECT_NE(zero.message.find("at least 1"), std::string::npos);

    CliParse missing = parseCliArguments({"ypserv1", "--procs"});
    EXPECT_FALSE(missing.options.has_value());

    // Default stays on the classic single-process path.
    CliParse plain = parseCliArguments({"ypserv1"});
    ASSERT_TRUE(plain.options.has_value());
    EXPECT_EQ(plain.options->procs, 1u);
}

TEST(Cli, BadToolRejected)
{
    CliParse parse = parseCliArguments({"gzip", "--tool", "valgrind"});
    EXPECT_FALSE(parse.options.has_value());
    EXPECT_NE(parse.message.find("unknown tool"), std::string::npos);
}

TEST(Cli, MissingValueRejected)
{
    CliParse parse = parseCliArguments({"gzip", "--requests"});
    EXPECT_FALSE(parse.options.has_value());
}

/** @return whether @p args is rejected with the usage text attached. */
bool
rejectedWithUsage(const std::vector<std::string> &args)
{
    CliParse parse = parseCliArguments(args);
    return !parse.options && parse.message.find("usage:") != std::string::npos;
}

TEST(Cli, NumericFlagsRejectMalformedValues)
{
    // Each of these once threw out of the parser or wrapped silently.
    EXPECT_TRUE(rejectedWithUsage({"gzip", "--requests", "abc"}));
    EXPECT_TRUE(rejectedWithUsage(
        {"gzip", "--requests", "99999999999999999999999"}));
    EXPECT_TRUE(rejectedWithUsage({"gzip", "--requests", "-1"}));
    EXPECT_TRUE(rejectedWithUsage({"campaign", "--samples", "-1"}));
    EXPECT_TRUE(rejectedWithUsage({"gzip", "--procs", "4294967297"}));

    // Digits only, and the whole value: no sign, space or suffix.
    for (const char *value : {"", "+5", " 5", "5 ", "5x", "0x10", "1e3"}) {
        EXPECT_TRUE(rejectedWithUsage({"gzip", "--requests", value}))
            << "'" << value << "'";
    }
    for (const char *flag : {"--requests", "--seed", "--workers",
                             "--procs"})
        EXPECT_TRUE(rejectedWithUsage({"gzip", flag, "12abc"})) << flag;
    for (const char *flag : {"--samples", "--seed", "--workers"})
        EXPECT_TRUE(rejectedWithUsage({"campaign", flag, "-3"})) << flag;
    EXPECT_TRUE(rejectedWithUsage({"all", "--workers", "4294967296"}));
    EXPECT_TRUE(rejectedWithUsage({"campaign", "--workers", "4294967296"}));
    EXPECT_TRUE(rejectedWithUsage(
        {"gzip", "--seed", "18446744073709551616"}));

    // A fraction, parsed whole: no trailing junk, space or hex form.
    for (const char *value : {"0.5abc", " 0.5", "0x0.8p0", "0", "1.5"}) {
        EXPECT_TRUE(rejectedWithUsage(
            {"gzip", "--tool", "safemem-sampled", "--sample-rate", value}))
            << "'" << value << "'";
    }
}

TEST(Cli, MalformedCodecAndGeometrySpecsRejectedWithoutThrowing)
{
    // Each once ran as a different spec (a suffix or a space skipped, a
    // codeword size wrapped to 4096) or, for a Hsiao code no column set
    // fills, panicked out of the campaign.
    const std::vector<std::vector<std::string>> cases = {
        {"campaign", "--codec", "hsiao:64/4"},
        {"campaign", "--codec", "hsiao:32abc"},
        {"campaign", "--codec", "hsiao: 16"},
        {"gzip", "--codec", "hsiao:64/4"},
        {"gzip", "--geometry", "block:4294971392"},
    };
    for (const std::vector<std::string> &args : cases) {
        CliParse parse;
        EXPECT_NO_THROW(parse = parseCliArguments(args)) << args.back();
        EXPECT_FALSE(parse.options.has_value()) << args.back();
        EXPECT_NE(parse.message.find("unknown "), std::string::npos)
            << args.back();
        EXPECT_NE(parse.message.find("usage:"), std::string::npos)
            << args.back();
    }
}

TEST(Cli, NumericFlagsAcceptTheirWholeRange)
{
    CliParse parse = parseCliArguments(
        {"gzip", "--seed", "18446744073709551615", "--requests", "007",
         "--procs", "4294967295", "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value()) << parse.message;
    EXPECT_EQ(parse.options->params.seed, ~std::uint64_t{0});
    EXPECT_EQ(parse.options->params.requests, 7u);
    EXPECT_EQ(parse.options->procs, 4294967295u);
    EXPECT_EQ(parse.options->workers, 0u);

    for (const auto &[value, rate] :
         {std::pair{"1e-3", 1e-3}, std::pair{"0.25", 0.25},
          std::pair{"1", 1.0}}) {
        CliParse sampled = parseCliArguments(
            {"gzip", "--tool", "safemem-sampled", "--sample-rate", value});
        ASSERT_TRUE(sampled.options.has_value()) << value;
        EXPECT_EQ(sampled.options->params.sampleRate, rate) << value;
    }

    CliParse campaign = parseCliArguments(
        {"campaign", "--samples", "18446744073709551615", "--seed", "0",
         "--workers", "4294967295"});
    ASSERT_TRUE(campaign.options.has_value()) << campaign.message;
    EXPECT_EQ(campaign.options->campaignConfig.samples, ~std::uint64_t{0});
    EXPECT_EQ(campaign.options->campaignConfig.seed, 0u);
    EXPECT_EQ(campaign.options->campaignConfig.workers, 4294967295u);
}

TEST(Cli, TraceFlagParsed)
{
    CliParse parse =
        parseCliArguments({"gzip", "--trace", "out.trace"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->traceFile, "out.trace");

    CliParse missing = parseCliArguments({"gzip", "--trace"});
    EXPECT_FALSE(missing.options.has_value());
}

TEST(Cli, EndToEndTraceFileHoldsOneSectionPerRun)
{
    const std::string path = "cli_trace_test.bin";
    CliParse parse = parseCliArguments({"gzip", "--requests", "20",
                                        "--overhead", "--trace", path});
    ASSERT_TRUE(parse.options.has_value());
    CliRun run = runCli(*parse.options);
    EXPECT_TRUE(run.ok);
    EXPECT_NE(run.report.find("trace: 2 run sections -> " + path),
              std::string::npos);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::vector<TraceSection> sections = readTraceSections(is);
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_EQ(sections[0].label, "gzip/safemem");
    EXPECT_EQ(sections[1].label, "gzip/none");
    if (kTraceCompiledIn) {
        // The instrumented run records plenty of watch traffic; the
        // baseline still records controller fills.
        EXPECT_GT(sections[0].emitted, 0u);
        EXPECT_GT(sections[1].emitted, 0u);
        EXPECT_FALSE(sections[0].records.empty());
    }
    std::remove(path.c_str());
}

TEST(Cli, UnknownFlagRejected)
{
    CliParse parse = parseCliArguments({"gzip", "--fast"});
    EXPECT_FALSE(parse.options.has_value());
    // The memory system has one bus: there is no bank-count flag.
    EXPECT_TRUE(rejectedWithUsage({"gzip", "--banks", "4"}));
}

TEST(Cli, ToolKindNamesRoundTrip)
{
    for (ToolKind kind : {ToolKind::None, ToolKind::SafeMemML,
                          ToolKind::SafeMemMC, ToolKind::SafeMemBoth,
                          ToolKind::PageProtBoth, ToolKind::Purify})
        EXPECT_EQ(toolKindFromName(toolKindName(kind)), kind);
    EXPECT_FALSE(toolKindFromName("gdb").has_value());
}

TEST(Cli, EndToEndBuggyRunReportsTheBug)
{
    CliParse parse = parseCliArguments(
        {"tar", "--buggy", "--requests", "120"});
    ASSERT_TRUE(parse.options.has_value());
    std::string report = runCli(*parse.options).report;
    EXPECT_NE(report.find("BUG DETECTED"), std::string::npos);
    EXPECT_NE(report.find("memory corruption"), std::string::npos);
}

TEST(Cli, EndToEndCleanRun)
{
    CliParse parse =
        parseCliArguments({"gzip", "--requests", "20", "--overhead"});
    ASSERT_TRUE(parse.options.has_value());
    CliRun run = runCli(*parse.options);
    EXPECT_TRUE(run.ok);
    EXPECT_NE(run.report.find("clean run"), std::string::npos);
    EXPECT_NE(run.report.find("overhead"), std::string::npos);
}

TEST(Cli, EndToEndAllSweepCoversEveryApp)
{
    CliParse parse = parseCliArguments(
        {"all", "--requests", "40", "--workers", "2"});
    ASSERT_TRUE(parse.options.has_value());
    std::string report = runCli(*parse.options).report;
    for (const std::string &app : appNames())
        EXPECT_NE(report.find("=== " + app + " under"),
                  std::string::npos)
            << app;
}

TEST(Cli, FailedRunIsNotOk)
{
    // Pure-SEC Hamming cannot host the scramble signature, so the
    // machine refuses to boot: with --overhead the baseline fails too.
    for (bool overhead : {false, true}) {
        std::vector<std::string> args = {"gzip", "--requests", "20",
                                          "--codec", "hamming64/8"};
        if (overhead)
            args.push_back("--overhead");
        CliParse parse = parseCliArguments(args);
        ASSERT_TRUE(parse.options.has_value());
        CliRun run = runCli(*parse.options);
        EXPECT_FALSE(run.ok) << overhead;
        EXPECT_NE(run.report.find("gzip: run failed:"), std::string::npos)
            << run.report;
    }
}

TEST(Cli, UnwritableOutputFileIsNotOk)
{
    const std::string missing_dir =
        ::testing::TempDir() + "safemem-no-such-dir/";

    CliParse traced = parseCliArguments(
        {"gzip", "--requests", "20", "--trace", missing_dir + "out.trace"});
    ASSERT_TRUE(traced.options.has_value());
    CliRun run = runCli(*traced.options);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.report.find("clean run"), std::string::npos);
    EXPECT_NE(run.report.find("cannot write trace file"), std::string::npos);

    CliParse campaign = parseCliArguments(
        {"campaign", "--samples", "50", "--codec", "hsiao", "--out",
         missing_dir + "campaign.json"});
    ASSERT_TRUE(campaign.options.has_value());
    run = runCli(*campaign.options);
    EXPECT_FALSE(run.ok);
    EXPECT_NE(run.report.find("cannot write campaign file"),
              std::string::npos);
}

TEST(ReportWriter, VerdictVariants)
{
    RunResult clean;
    clean.app = "x";
    EXPECT_NE(formatVerdict(clean).find("clean run"), std::string::npos);

    RunResult leak;
    leak.app = "x";
    leak.leakReportsTrue = 1;
    leak.bugDetected = true;
    EXPECT_NE(formatVerdict(leak).find("BUG DETECTED"),
              std::string::npos);

    RunResult fp;
    fp.app = "x";
    fp.leakReportsFalse = 2;
    EXPECT_NE(formatVerdict(fp).find("other finding"),
              std::string::npos);
}

TEST(ReportWriter, StatsFilteredByPrefix)
{
    RunResult result;
    result.stats["leak.a"] = 1;
    result.stats["cache.b"] = 2;
    std::string all = formatStats(result, "");
    EXPECT_NE(all.find("leak.a"), std::string::npos);
    EXPECT_NE(all.find("cache.b"), std::string::npos);
    std::string filtered = formatStats(result, "leak");
    EXPECT_NE(filtered.find("leak.a"), std::string::npos);
    EXPECT_EQ(filtered.find("cache.b"), std::string::npos);
}

} // namespace
} // namespace safemem
