/**
 * @file
 * Whole-sweep golden captures (tests/data/). The golden_prebank_*
 * files were captured before the simulator ever had memory banks; the
 * one-bus machine must reproduce them byte for byte.
 */

#include <gtest/gtest.h>

#include "tests/golden.h"
#include "workloads/cli.h"

namespace safemem {
namespace {

TEST(Golden, PaperSweepMatchesCapture)
{
    // The whole paper sweep (every app under safemem, full counter
    // dump): tables 2-5 and figures 1-3 all read from these runs.
    CliParse parse =
        parseCliArguments({"all", "--stats", "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_prebank_sweep.txt"));
}

TEST(Golden, ConsolidatedSweepMatchesCapture)
{
    // Same contract for the consolidated runner: the token hand-off,
    // the shared frame free list and the one scrubber may not move a
    // single byte.
    CliParse parse = parseCliArguments(
        {"all", "--stats", "--procs", "3", "--buggy", "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_prebank_procs3.txt"));
}

} // namespace
} // namespace safemem
