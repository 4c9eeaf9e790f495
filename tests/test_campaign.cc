/**
 * @file
 * Tests for the fault-injection campaign engine: deterministic fan-out,
 * exhaustive-space accounting, the SEC-DED vs pure-SEC split, the JSON
 * document shape, and codec selection on real machine runs.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "os/machine.h"
#include "workloads/campaign.h"
#include "workloads/cli.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

/** A reduced campaign that still covers every mode and codec. */
CampaignConfig
smallConfig()
{
    CampaignConfig config;
    config.maxErrors = 4;
    config.samples = 500;
    config.seed = 7;
    return config;
}

TEST(Campaign, WorkerCountNeverChangesTheResults)
{
    CampaignConfig serial = smallConfig();
    serial.workers = 1;
    CampaignConfig fanned = smallConfig();
    fanned.workers = 4;
    EXPECT_TRUE(runCampaign(serial) == runCampaign(fanned));
}

TEST(Campaign, SweepShapeAndExhaustiveTrialCounts)
{
    CampaignConfig config = smallConfig();
    CampaignResult result = runCampaign(config);

    // Default zoo: hsiao, hamming64/8, hsiao:64/8 — in that order.
    ASSERT_EQ(result.codecs.size(), 3u);
    EXPECT_EQ(result.codecs[0].name, "hsiao-72-64");
    EXPECT_EQ(result.codecs[1].name, "hamming-64-8");
    EXPECT_EQ(result.codecs[2].name, "hsiao-72-64");
    EXPECT_EQ(result.codecs[2].spec.kind, EccCodecKind::Hsiao);

    for (const CodecCampaign &codec : result.codecs) {
        // none + random 1..4 + burst 1..4.
        ASSERT_EQ(codec.cells.size(), 9u);
        const int total = codec.dataBits + codec.checkBits;
        ASSERT_EQ(total, 72);

        const CampaignCell &clean = codec.cells[0];
        EXPECT_EQ(clean.mode, FailMode::None);
        EXPECT_TRUE(clean.exhaustive);
        EXPECT_EQ(clean.corrected, clean.trials);
        EXPECT_EQ(clean.detected + clean.miscorrected, 0u);

        // Exhaustive spaces: 72 singles, C(72,2) = 2556 pairs, and
        // (72 - n + 1) burst offsets, each over a fixed word sample.
        const CampaignCell &single = codec.cells[1];
        EXPECT_TRUE(single.exhaustive);
        EXPECT_EQ(single.trials % 72, 0u);
        const CampaignCell &pairs = codec.cells[2];
        EXPECT_TRUE(pairs.exhaustive);
        EXPECT_EQ(pairs.trials % 2556, 0u);
        EXPECT_EQ(pairs.trials / 2556, single.trials / 72);

        // Sampled spaces run exactly `samples` trials.
        for (int e = 3; e <= 4; ++e) {
            const CampaignCell &cell = codec.cells[static_cast<
                std::size_t>(e)];
            EXPECT_FALSE(cell.exhaustive);
            EXPECT_EQ(cell.trials, config.samples);
        }
        for (int e = 1; e <= 4; ++e) {
            const CampaignCell &burst = codec.cells[4 + static_cast<
                std::size_t>(e)];
            EXPECT_EQ(burst.mode, FailMode::RandomBurst);
            EXPECT_TRUE(burst.exhaustive);
            EXPECT_EQ(burst.trials % static_cast<std::uint64_t>(
                          total - e + 1), 0u);
        }

        // Every trial lands in exactly one bucket.
        for (const CampaignCell &cell : codec.cells)
            EXPECT_EQ(cell.corrected + cell.detected + cell.miscorrected,
                      cell.trials);
    }
}

TEST(Campaign, SecDedDetectsEveryDoubleWhereHammingMiscorrects)
{
    CampaignResult result = runCampaign(smallConfig());
    const CodecCampaign &hsiao = result.codecs[0];
    const CodecCampaign &hamming = result.codecs[1];

    // (72,64) Hsiao: all singles corrected, all doubles detected,
    // nothing ever miscorrected in either cell.
    EXPECT_EQ(hsiao.cells[1].corrected, hsiao.cells[1].trials);
    EXPECT_EQ(hsiao.cells[2].detected, hsiao.cells[2].trials);
    EXPECT_EQ(hsiao.cells[1].miscorrected + hsiao.cells[2].miscorrected,
              0u);

    // Classic Hamming corrects singles too — but doubles silently
    // corrupt: zero detected (no Uncorrectable outcome exists) and a
    // large miscorrected share. The campaign's headline split.
    EXPECT_EQ(hamming.cells[1].corrected, hamming.cells[1].trials);
    EXPECT_EQ(hamming.cells[2].detected, 0u);
    EXPECT_GT(hamming.cells[2].miscorrected, 0u);

    // Scramble verdicts follow: Hsiao hosts a signature, Hamming never.
    EXPECT_TRUE(hsiao.scrambleViable);
    EXPECT_TRUE(result.codecs[2].scrambleViable);
    EXPECT_FALSE(hamming.scrambleViable);
}

TEST(Campaign, JsonDocumentCarriesTheReportShape)
{
    CampaignConfig config = smallConfig();
    config.codecs = {{EccCodecKind::Hsiao, 64, 0},
                     {EccCodecKind::Hamming64_8, 64, 0}};
    std::string json = campaignJson(runCampaign(config));

    for (const char *needle :
         {"\"bench\": \"ecc_campaign\"", "\"seed\": 7",
          "\"samples\": 500", "\"max_errors\": 4",
          "\"name\": \"hsiao-72-64\"", "\"name\": \"hamming-64-8\"",
          "\"scramble_viable\": true", "\"scramble_viable\": false",
          "\"mode\": \"random-burst\"", "\"cdf\"", "\"miscorrected\""})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

TEST(Campaign, MachineBootRejectsAScramblelessCodec)
{
    // Satellite of the optional-returning search: the panic moved from
    // the search to the consumer that genuinely cannot proceed — a
    // machine booting a codec with no scramble signature would build a
    // WatchMemory that never faults.
    auto hamming = makeCodec({EccCodecKind::Hamming64_8, 64, 0});
    MachineConfig config;
    config.codec = hamming.get();
    EXPECT_THROW(Machine{config}, PanicError);
}

TEST(Campaign, ExplicitDefaultCodecSpecMatchesTheDefaultRun)
{
    // --codec hsiao must be a no-op: same RunResult, bit for bit, as
    // the spec-less default path (which skips codec construction).
    const Log quiet = Log::quiet();
    RunParams params;
    params.requests = 120;
    params.seed = 3;
    params.log = &quiet;
    RunResult plain = runWorkload("gzip", ToolKind::SafeMemBoth, params);
    params.codec = *parseCodecSpec("hsiao");
    RunResult explicit_spec =
        runWorkload("gzip", ToolKind::SafeMemBoth, params);
    EXPECT_TRUE(plain == explicit_spec);
}

TEST(Campaign, CliParsesCampaignMode)
{
    CliParse parse = parseCliArguments(
        {"campaign", "--codec", "hamming64/8", "--codec", "hsiao:16",
         "--samples", "100", "--seed", "9", "--workers", "2", "--out",
         "campaign.json"});
    ASSERT_TRUE(parse.options.has_value());
    const CliOptions &options = *parse.options;
    EXPECT_TRUE(options.campaign);
    ASSERT_EQ(options.campaignConfig.codecs.size(), 2u);
    EXPECT_EQ(options.campaignConfig.codecs[0].kind,
              EccCodecKind::Hamming64_8);
    EXPECT_EQ(options.campaignConfig.codecs[1].kind,
              EccCodecKind::Hsiao);
    EXPECT_EQ(options.campaignConfig.codecs[1].dataBits, 16);
    EXPECT_EQ(options.campaignConfig.samples, 100u);
    EXPECT_EQ(options.campaignConfig.seed, 9u);
    EXPECT_EQ(options.campaignConfig.workers, 2u);
    EXPECT_EQ(options.campaignOut, "campaign.json");

    EXPECT_FALSE(
        parseCliArguments({"campaign", "--codec", "crc32"}).options);
    EXPECT_FALSE(
        parseCliArguments({"campaign", "--buggy"}).options);
}

TEST(Campaign, CliParsesRunCodecFlag)
{
    CliParse parse =
        parseCliArguments({"gzip", "--codec", "hsiao:64/8"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->params.codec.kind, EccCodecKind::Hsiao);
    EXPECT_FALSE(parse.options->campaign);

    EXPECT_FALSE(parseCliArguments({"gzip", "--codec", "bogus"}).options);
}

} // namespace
} // namespace safemem
