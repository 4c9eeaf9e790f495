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

TEST(Golden, PageProtSweepMatchesCapture)
{
    // Every app under the page-protection baseline on bug-triggering
    // inputs: the page backend's region table, its SIGSEGV triage and
    // its monitoring-space counters, pinned byte for byte.
    CliParse parse = parseCliArguments({"all", "--tool", "pageprot",
                                        "--buggy", "--stats", "--workers",
                                        "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_pageprot_sweep.txt"));
}

TEST(Golden, BlockGeometrySweepMatchesCapture)
{
    // Every app under SafeMem on bug-triggering inputs with 1 KiB ECC
    // codewords: EDC passes and misses on fills, whole-codeword
    // decodes, latent fault words, the EDC fold and read-modify-write
    // of each writeback, and the watch faults the long-code decode
    // raises, pinned byte for byte.
    CliParse parse = parseCliArguments({"all", "--tool", "safemem",
                                        "--buggy", "--stats", "--geometry",
                                        "block:1024", "--workers", "0"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(runCli(*parse.options).report,
              readGolden("golden_block1024_sweep.txt"));
}

} // namespace
} // namespace safemem
