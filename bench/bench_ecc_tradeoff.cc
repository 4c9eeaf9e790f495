/**
 * @file
 * The protection-geometry trade-off lab: a synthetic sequential stream
 * (write a 64 KiB buffer front to back, flush, read it back) swept over
 * protection geometries x injected single-bit error rates. Per cell the
 * JSON reports the simulated cycle count and the redundancy-bandwidth
 * ledger the controller keeps: effective-bandwidth overhead (redundancy
 * bytes / data bytes) falls as codewords grow, while the EDC-miss block
 * decodes and the partial-write RMWs that pay for it are accounted
 * separately. The word cell's byte ledger is the analytic per-word
 * SEC-DED cost (one check byte per 64-bit group, both directions).
 *
 * Every cell is computed twice — serially and fanned out across worker
 * threads — and the two results must be bit-identical for any worker
 * count.
 *
 *   build/bench/bench_ecc_tradeoff                # human-readable
 *   build/bench/bench_ecc_tradeoff --json         # BENCH shape
 *   build/bench/bench_ecc_tradeoff --batches 4    # reduced (CI smoke)
 *   build/bench/bench_ecc_tradeoff --workers 8
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "alloc/heap_allocator.h"
#include "common/parallel_for.h"
#include "common/random.h"
#include "ecc/geometry.h"
#include "ecc/parse_number.h"
#include "os/machine.h"

using namespace safemem;

namespace {

constexpr std::size_t kBufferBytes = 64 * 1024;
constexpr std::size_t kChunkBytes = 1024;

struct CellSpec
{
    ProtectionGeometry geometry;
    double flipRate = 0.0; ///< per-line single-bit-flip probability/batch
};

struct CellResult
{
    Cycles cycles = 0;
    std::uint64_t lineFills = 0;
    std::uint64_t lineEvictions = 0;
    std::uint64_t edcPassed = 0;
    std::uint64_t edcFailed = 0;
    std::uint64_t blockDecodes = 0;
    std::uint64_t latentFaultWords = 0;
    std::uint64_t partialWriteRmws = 0;
    std::uint64_t openCodewordHits = 0;
    std::uint64_t edcRefreshes = 0;
    std::uint64_t singleBitCorrected = 0;
    std::uint64_t dataBytes = 0;       ///< demand bytes, both directions
    std::uint64_t redundancyBytes = 0; ///< EDC+ECC+RMW bytes, both ways
    std::uint64_t flipsInjected = 0;

    bool operator==(const CellResult &) const = default;

    double
    overhead() const
    {
        return dataBytes == 0
                   ? 0.0
                   : static_cast<double>(redundancyBytes) / dataBytes;
    }
};

/**
 * One cell: a fresh machine, sequential stream traffic with seeded
 * single-bit fault injection between the writeback flush and the
 * read-back. Fully deterministic in (spec, batches, seed).
 */
CellResult
runCell(const CellSpec &spec, std::uint64_t batches, std::uint64_t seed)
{
    MachineConfig config{32u << 20, CacheConfig{64, 4}, 1024};
    config.geometry = spec.geometry;
    Machine machine(config);
    machine.kernel().setPanicOnHardwareError(false);
    HeapAllocator allocator(machine);

    // Line-align the streamed buffer so injected flips target whole
    // stored lines.
    VirtAddr raw = allocator.allocate(kBufferBytes + kCacheLineSize);
    VirtAddr buffer = alignUp(raw, kCacheLineSize);
    const std::size_t lines = kBufferBytes / kCacheLineSize;

    Rng rng(seed * 40503 + 11);
    std::vector<std::uint8_t> chunk(kChunkBytes);
    std::vector<std::uint8_t> sink(kChunkBytes);

    CellResult out;
    for (std::uint64_t batch = 0; batch < batches; ++batch) {
        // Produce: sequential chunked writes, front to back.
        for (std::size_t off = 0; off < kBufferBytes; off += kChunkBytes) {
            auto salt = static_cast<std::uint8_t>(rng.next());
            for (std::size_t i = 0; i < kChunkBytes; ++i)
                chunk[i] = static_cast<std::uint8_t>(i + off + salt);
            machine.write(buffer + off, chunk.data(), kChunkBytes);
        }
        // Push every dirty line to DRAM so the flips below land on
        // stored data and the read-back streams fills from memory.
        machine.cache().flushAll();

        // Rain: each stored line takes at most one single-bit data
        // flip per batch, healed by the next decode that sees it.
        for (std::size_t l = 0; l < lines; ++l) {
            if (!rng.chance(spec.flipRate))
                continue;
            VirtAddr vline = buffer + l * kCacheLineSize;
            PhysAddr pline = *machine.kernel().peekTranslate(vline);
            int bit = static_cast<int>(rng.next() % 64);
            auto word = static_cast<PhysAddr>(rng.next() % 8);
            machine.physicalMemory().flipDataBit(
                pline + word * kEccGroupSize, bit);
            ++out.flipsInjected;
        }

        // Drain: sequential read-back of the whole buffer.
        for (std::size_t off = 0; off < kBufferBytes; off += kChunkBytes)
            machine.read(buffer + off, sink.data(), kChunkBytes);
    }
    machine.cache().flushAll();
    allocator.deallocate(raw);

    const StatSet &ctrl = machine.controller().stats();
    const StatSet &geom = machine.controller().geometryStats();
    out.cycles = machine.clock().now();
    out.lineFills = ctrl.get(ControllerStat::LineFills);
    out.lineEvictions = ctrl.get(ControllerStat::LineEvictions);
    out.singleBitCorrected = ctrl.get(ControllerStat::SingleBitCorrected);
    if (spec.geometry.isWord()) {
        // The word datapath moves one check byte per 64-bit group with
        // every fill and writeback: a fixed 12.5% of the data bytes.
        out.dataBytes =
            (out.lineFills + out.lineEvictions) * kCacheLineSize;
        out.redundancyBytes =
            (out.lineFills + out.lineEvictions) * kEccGroupsPerLine;
    } else {
        out.edcPassed = geom.get(GeometryStat::EdcChecksPassed);
        out.edcFailed = geom.get(GeometryStat::EdcChecksFailed);
        out.blockDecodes = geom.get(GeometryStat::BlockDecodes);
        out.latentFaultWords = geom.get(GeometryStat::LatentFaultWords);
        out.partialWriteRmws = geom.get(GeometryStat::PartialWriteRmws);
        out.openCodewordHits = geom.get(GeometryStat::OpenCodewordHits);
        out.edcRefreshes = geom.get(GeometryStat::EdcRefreshes);
        out.dataBytes = geom.get(GeometryStat::DataBytesRead) +
                        geom.get(GeometryStat::DataBytesWritten);
        out.redundancyBytes =
            geom.get(GeometryStat::RedundancyBytesRead) +
            geom.get(GeometryStat::RedundancyBytesWritten);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::uint64_t batches = 24;
    unsigned workers = 4;

    // A flag whose value is missing or not a whole number in range
    // falls through to the usage line.
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--batches" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], batches)) {
        } else if (arg == "--workers" && i + 1 < argc &&
                   parseWholeNumber(argv[++i], workers)) {
        } else {
            std::fprintf(stderr, "usage: bench_ecc_tradeoff [--json] "
                                 "[--batches <n>] [--workers <n>]\n");
            return 1;
        }
    }

    const std::uint64_t seed = 42;
    std::vector<CellSpec> specs;
    for (const char *name :
         {"word", "block:512", "block:1024", "block:4096",
          "block:1024/crc32"}) {
        for (double rate : {0.0, 0.005, 0.05}) {
            CellSpec spec;
            spec.geometry = *parseGeometry(name);
            spec.flipRate = rate;
            specs.push_back(spec);
        }
    }

    // Serial pass (timed per cell), then the same cells fanned out
    // across workers: threads must not move a single byte of any result.
    std::vector<CellResult> serial(specs.size());
    std::vector<double> seconds(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto start = std::chrono::steady_clock::now();
        serial[i] = runCell(specs[i], batches, seed);
        const auto stop = std::chrono::steady_clock::now();
        seconds[i] = std::chrono::duration<double>(stop - start).count();
    }

    std::vector<CellResult> parallel(specs.size());
    parallelFor(specs.size(), workers, [&](std::size_t i) {
        parallel[i] = runCell(specs[i], batches, seed);
    });

    bool all_identical = true;
    for (std::size_t i = 0; i < specs.size(); ++i)
        all_identical = all_identical && serial[i] == parallel[i];

    if (json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"ecc_tradeoff\",\n");
        std::printf("  \"traffic\": \"sequential stream, %zu B buffer, "
                    "%zu B chunks\",\n",
                    kBufferBytes, kChunkBytes);
        std::printf("  \"batches\": %llu,\n",
                    static_cast<unsigned long long>(batches));
        std::printf("  \"cells\": [\n");
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const CellResult &c = serial[i];
            // No wall-clock fields in the JSON: CI byte-compares the
            // documents across worker counts (timings live in the
            // table output).
            std::printf(
                "    {\"geometry\": \"%s\", \"flip_rate\": %.3f, "
                "\"cycles\": %llu, "
                "\"flips\": %llu, \"line_fills\": %llu, "
                "\"line_evictions\": %llu, \"single_bit_corrected\": "
                "%llu, \"edc_passed\": %llu, \"edc_failed\": %llu, "
                "\"block_decodes\": %llu, \"latent_fault_words\": %llu, "
                "\"partial_write_rmws\": %llu, \"open_codeword_hits\": "
                "%llu, \"edc_refreshes\": %llu, \"data_bytes\": %llu, "
                "\"redundancy_bytes\": %llu, \"overhead\": %.5f}%s\n",
                geometryName(specs[i].geometry).c_str(), specs[i].flipRate,
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.flipsInjected),
                static_cast<unsigned long long>(c.lineFills),
                static_cast<unsigned long long>(c.lineEvictions),
                static_cast<unsigned long long>(c.singleBitCorrected),
                static_cast<unsigned long long>(c.edcPassed),
                static_cast<unsigned long long>(c.edcFailed),
                static_cast<unsigned long long>(c.blockDecodes),
                static_cast<unsigned long long>(c.latentFaultWords),
                static_cast<unsigned long long>(c.partialWriteRmws),
                static_cast<unsigned long long>(c.openCodewordHits),
                static_cast<unsigned long long>(c.edcRefreshes),
                static_cast<unsigned long long>(c.dataBytes),
                static_cast<unsigned long long>(c.redundancyBytes),
                c.overhead(), i + 1 < specs.size() ? "," : "");
        }
        std::printf("  ],\n");
        std::printf("  \"identical\": %s\n",
                    all_identical ? "true" : "false");
        std::printf("}\n");
    } else {
        std::printf("protection-geometry trade-off: sequential stream, "
                    "%llu batches\n",
                    static_cast<unsigned long long>(batches));
        std::printf("  %-16s %6s %12s %9s %9s %8s %8s %7s %9s\n",
                    "geometry", "rate", "cycles", "edc_miss", "decodes",
                    "rmws", "overhead", "wall_s", "identical");
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const CellResult &c = serial[i];
            std::printf(
                "  %-16s %6.3f %12llu %9llu %9llu %8llu %7.2f%% %7.3f %9s\n",
                geometryName(specs[i].geometry).c_str(), specs[i].flipRate,
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.edcFailed),
                static_cast<unsigned long long>(c.blockDecodes),
                static_cast<unsigned long long>(c.partialWriteRmws),
                c.overhead() * 100.0, seconds[i],
                serial[i] == parallel[i] ? "yes" : "NO");
        }
        std::printf("serial vs pool results bit-identical: %s\n",
                    all_identical ? "yes" : "NO");
    }
    return all_identical ? 0 : 1;
}
