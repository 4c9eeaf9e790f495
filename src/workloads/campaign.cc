/**
 * @file
 * ECC fault-injection campaign engine (see campaign.h).
 */

#include "workloads/campaign.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ecc/scramble.h"

namespace safemem {
namespace {

/** Data words fed to every exhaustively-enumerated error pattern. The
 *  codecs are linear, so outcome classification depends only on the
 *  error pattern — a handful of words exercises the datapath without
 *  inflating the trial count. */
constexpr int kWordsPerPattern = 4;

/** Decode one upset word and tally the outcome into @p cell. */
void
scoreTrial(const EccCodec &code, std::uint64_t data,
           const ErrorPattern &pattern, CampaignCell &cell)
{
    std::uint64_t check = code.encode(data);
    EccDecodeResult result =
        code.decode(data ^ pattern.dataMask, check ^ pattern.checkMask);
    ++cell.trials;
    if (result.status == EccDecodeStatus::Uncorrectable)
        ++cell.detected;
    else if (result.data == data)
        ++cell.corrected;
    else
        ++cell.miscorrected;
}

/** Run @p pattern against kWordsPerPattern words from @p rng. */
void
scorePattern(const EccCodec &code, const ErrorPattern &pattern, Rng &rng,
             CampaignCell &cell)
{
    for (int i = 0; i < kWordsPerPattern; ++i)
        scoreTrial(code, rng.next(), pattern, cell);
}

/** @return the pattern flipping codeword bit @p position (data bits
 *  first, then check bits). */
ErrorPattern
singleBit(const EccCodec &code, int position)
{
    ErrorPattern pattern;
    if (position < code.dataBits())
        pattern.dataMask = 1ULL << position;
    else
        pattern.checkMask = 1ULL << (position - code.dataBits());
    return pattern;
}

ErrorPattern
merge(const ErrorPattern &a, const ErrorPattern &b)
{
    return {a.dataMask ^ b.dataMask, a.checkMask ^ b.checkMask};
}

/** Run one (codec, mode, errors) cell. Deterministic: the RNG is
 *  seeded from the campaign seed and the cell's global index alone. */
CampaignCell
runCell(const EccCodec &code, FailMode mode, int errors,
        std::uint64_t samples, std::uint64_t seed, std::size_t cell_index)
{
    CampaignCell cell;
    cell.mode = mode;
    cell.errors = errors;
    Rng rng(seed + 0x9e3779b97f4a7c15ULL * (cell_index + 1));
    int total = code.dataBits() + code.checkBits();

    switch (mode) {
    case FailMode::None: {
        cell.exhaustive = true;
        ErrorPattern clean;
        for (int i = 0; i < 8 * kWordsPerPattern; ++i)
            scoreTrial(code, rng.next(), clean, cell);
        break;
    }
    case FailMode::Random: {
        if (errors == 1) {
            cell.exhaustive = true;
            for (int a = 0; a < total; ++a)
                scorePattern(code, singleBit(code, a), rng, cell);
        } else if (errors == 2) {
            cell.exhaustive = true;
            for (int a = 0; a < total; ++a)
                for (int b = a + 1; b < total; ++b)
                    scorePattern(
                        code,
                        merge(singleBit(code, a), singleBit(code, b)),
                        rng, cell);
        } else {
            // C(total, errors) explodes past 2 errors: sample instead.
            cell.exhaustive = false;
            for (std::uint64_t i = 0; i < samples; ++i) {
                // Two draws from one RNG: sequence them (pattern first)
                // instead of leaving the order to argument evaluation.
                ErrorPattern pattern = randomPattern(code, errors, rng);
                scoreTrial(code, rng.next(), pattern, cell);
            }
        }
        break;
    }
    case FailMode::RandomBurst: {
        // Every burst start fits in one sweep regardless of length.
        cell.exhaustive = true;
        for (int start = 0; start + errors <= total; ++start) {
            ErrorPattern pattern;
            for (int i = 0; i < errors; ++i)
                pattern = merge(pattern, singleBit(code, start + i));
            scorePattern(code, pattern, rng, cell);
        }
        break;
    }
    }
    return cell;
}

/** @return the full-zoo codec list used when the config names none. */
std::vector<EccCodecSpec>
defaultZoo()
{
    return {
        {EccCodecKind::Hsiao, 64, 0},
        {EccCodecKind::Hamming64_8, 64, 0},
        {EccCodecKind::Hsiao, 64, 8},
    };
}

double
rate(std::uint64_t count, std::uint64_t trials)
{
    return trials == 0 ? 0.0
                       : static_cast<double>(count) /
                             static_cast<double>(trials);
}

/** Append the sorted per-cell rates of one outcome as a JSON array. */
void
appendCdf(std::ostringstream &out, const CodecCampaign &codec,
          std::uint64_t CampaignCell::*member)
{
    std::vector<double> rates;
    rates.reserve(codec.cells.size());
    for (const CampaignCell &cell : codec.cells)
        rates.push_back(rate(cell.*member, cell.trials));
    std::sort(rates.begin(), rates.end());
    out << "[";
    for (std::size_t i = 0; i < rates.size(); ++i) {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%.6f", rates[i]);
        out << (i ? "," : "") << buffer;
    }
    out << "]";
}

} // namespace

ErrorPattern
randomPattern(const EccCodec &code, int errors, Rng &rng)
{
    // Maps positions to masks in place rather than through singleBit()
    // and merge(): this loop is the sampled cells' hot path.
    const int total = code.dataBits() + code.checkBits();
    ErrorPattern pattern;
    for (int placed = 0; placed < errors;) {
        const int position = static_cast<int>(rng.range(0, total - 1));
        const bool data = position < code.dataBits();
        std::uint64_t &mask = data ? pattern.dataMask : pattern.checkMask;
        const std::uint64_t bit = std::uint64_t{1}
                                  << (data ? position
                                           : position - code.dataBits());
        if ((mask & bit) != 0)
            continue; // duplicate position, redraw
        mask |= bit;
        ++placed;
    }
    return pattern;
}

const char *
failModeName(FailMode mode)
{
    switch (mode) {
    case FailMode::None:
        return "none";
    case FailMode::Random:
        return "random";
    case FailMode::RandomBurst:
        return "random-burst";
    }
    return "?";
}

CampaignResult
runCampaign(const CampaignConfig &config)
{
    CampaignResult result;
    result.maxErrors = config.maxErrors;
    result.samples = config.samples;
    result.seed = config.seed;

    std::vector<EccCodecSpec> specs =
        config.codecs.empty() ? defaultZoo() : config.codecs;

    // Instantiate every codec up front; decode() is const, so workers
    // share the instances freely.
    std::vector<std::unique_ptr<EccCodec>> codecs;
    result.codecs.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        codecs.push_back(makeCodec(specs[i]));
        CodecCampaign &campaign = result.codecs[i];
        campaign.spec = specs[i];
        campaign.name = codecs[i]->name();
        campaign.dataBits = codecs[i]->dataBits();
        campaign.checkBits = codecs[i]->checkBits();
        if (auto triple = findScramblePositions(*codecs[i])) {
            campaign.scrambleViable = true;
            campaign.scrambleBits = {triple->bits[0], triple->bits[1],
                                     triple->bits[2]};
        }
        campaign.cells.resize(
            1 + 2 * static_cast<std::size_t>(config.maxErrors));
    }

    // One job per cell, claimed from a shared cursor exactly like
    // runMatrix(); a cell is a pure function of (seed, global index),
    // so the worker count only moves the wall clock.
    struct Job
    {
        std::size_t codec;
        std::size_t cell;
        FailMode mode;
        int errors;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < specs.size(); ++c) {
        std::size_t slot = 0;
        jobs.push_back({c, slot++, FailMode::None, 0});
        for (int e = 1; e <= config.maxErrors; ++e)
            jobs.push_back({c, slot++, FailMode::Random, e});
        for (int e = 1; e <= config.maxErrors; ++e)
            jobs.push_back({c, slot++, FailMode::RandomBurst, e});
    }

    auto runJob = [&](std::size_t index) {
        const Job &job = jobs[index];
        result.codecs[job.codec].cells[job.cell] =
            runCell(*codecs[job.codec], job.mode, job.errors,
                    config.samples, config.seed, index);
    };

    unsigned workers = ThreadPool::clampWorkers(config.workers, jobs.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            runJob(i);
        return result;
    }

    std::atomic<std::size_t> next{0};
    ThreadPool pool(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.submit([&] {
            while (true) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= jobs.size())
                    return;
                runJob(i);
            }
        });
    }
    pool.drain();
    return result;
}

std::string
formatCampaignReport(const CampaignResult &result)
{
    std::ostringstream out;
    char line[160];
    for (const CodecCampaign &codec : result.codecs) {
        std::snprintf(line, sizeof line,
                      "codec %-14s (%d,%d)  scramble: ", codec.name.c_str(),
                      codec.dataBits + codec.checkBits, codec.dataBits);
        out << line;
        if (codec.scrambleViable) {
            std::snprintf(line, sizeof line,
                          "viable (bits %d,%d,%d)\n", codec.scrambleBits[0],
                          codec.scrambleBits[1], codec.scrambleBits[2]);
            out << line;
        } else {
            out << "NOT viable — WatchMemory impossible\n";
        }
        std::snprintf(line, sizeof line, "  %-14s %3s %10s %10s %10s %12s\n",
                      "mode", "n", "trials", "corrected", "detected",
                      "miscorrected");
        out << line;
        for (const CampaignCell &cell : codec.cells) {
            std::snprintf(
                line, sizeof line,
                "  %-14s %3d %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                " %12" PRIu64 "%s\n",
                failModeName(cell.mode), cell.errors, cell.trials,
                cell.corrected, cell.detected, cell.miscorrected,
                cell.exhaustive ? "  (exhaustive)" : "");
            out << line;
        }
        out << "\n";
    }
    return out.str();
}

std::string
campaignJson(const CampaignResult &result)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"ecc_campaign\",\n"
        << "  \"seed\": " << result.seed << ",\n"
        << "  \"samples\": " << result.samples << ",\n"
        << "  \"max_errors\": " << result.maxErrors << ",\n"
        << "  \"codecs\": [\n";
    for (std::size_t c = 0; c < result.codecs.size(); ++c) {
        const CodecCampaign &codec = result.codecs[c];
        out << "    {\n"
            << "      \"name\": \"" << codec.name << "\",\n"
            << "      \"spec\": \"" << codecSpecName(codec.spec) << "\",\n"
            << "      \"data_bits\": " << codec.dataBits << ",\n"
            << "      \"check_bits\": " << codec.checkBits << ",\n"
            << "      \"scramble_viable\": "
            << (codec.scrambleViable ? "true" : "false") << ",\n"
            << "      \"scramble_bits\": [";
        if (codec.scrambleViable)
            out << codec.scrambleBits[0] << "," << codec.scrambleBits[1]
                << "," << codec.scrambleBits[2];
        out << "],\n"
            << "      \"cells\": [\n";
        for (std::size_t i = 0; i < codec.cells.size(); ++i) {
            const CampaignCell &cell = codec.cells[i];
            out << "        {\"mode\": \"" << failModeName(cell.mode)
                << "\", \"errors\": " << cell.errors
                << ", \"exhaustive\": "
                << (cell.exhaustive ? "true" : "false")
                << ", \"trials\": " << cell.trials
                << ", \"corrected\": " << cell.corrected
                << ", \"detected\": " << cell.detected
                << ", \"miscorrected\": " << cell.miscorrected << "}"
                << (i + 1 < codec.cells.size() ? "," : "") << "\n";
        }
        out << "      ],\n"
            << "      \"cdf\": {\n"
            << "        \"corrected\": ";
        appendCdf(out, codec, &CampaignCell::corrected);
        out << ",\n        \"detected\": ";
        appendCdf(out, codec, &CampaignCell::detected);
        out << ",\n        \"miscorrected\": ";
        appendCdf(out, codec, &CampaignCell::miscorrected);
        out << "\n      }\n"
            << "    }" << (c + 1 < result.codecs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return out.str();
}

} // namespace safemem
