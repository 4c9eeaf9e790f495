/**
 * @file
 * Flight-recorder tests: ring semantics, the binary section format and
 * its JSON-lines export, thread-local scope routing, SimCheck context
 * attachment, and the per-run recording contract under runMatrix().
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/simcheck.h"
#include "common/logging.h"
#include "os/machine.h"
#include "trace/trace.h"
#include "workloads/driver.h"

namespace safemem {
namespace {

TEST(Trace, RingWrapKeepsNewestRecords)
{
    Trace trace(16);
    EXPECT_EQ(trace.capacity(), 16u);
    for (std::uint64_t i = 0; i < 40; ++i)
        trace.emit(TraceEvent::WatchEstablish, i, i * 10);

    EXPECT_EQ(trace.emitted(), 40u);
    EXPECT_EQ(trace.dropped(), 24u);
    EXPECT_EQ(trace.size(), 16u);

    std::vector<TraceRecord> records = trace.records();
    ASSERT_EQ(records.size(), 16u);
    // Oldest retained first: cycles 24..39.
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].cycle, 24 + i);
        EXPECT_EQ(records[i].a, (24 + i) * 10);
    }
}

TEST(Trace, PayloadWordsDefaultToZero)
{
    Trace trace(16);
    trace.emit(TraceEvent::ControllerFill, 7);
    trace.emit(TraceEvent::ControllerInterrupt, 8, 1, 2, 3);

    std::vector<TraceRecord> records = trace.records();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0],
              (TraceRecord{7, 0, 0, 0, 0, TraceEvent::ControllerFill}));
    EXPECT_EQ(records[1],
              (TraceRecord{8, 1, 2, 3, 0, TraceEvent::ControllerInterrupt}));
}

TEST(Trace, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(Trace(10).capacity(), 16u);
    EXPECT_EQ(Trace(0).capacity(), 16u);
    EXPECT_EQ(Trace(4096).capacity(), 4096u);
    EXPECT_EQ(Trace(4097).capacity(), 8192u);
}

TEST(Trace, LastRecordsReturnsNewestOldestFirst)
{
    Trace trace(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        trace.emit(TraceEvent::WatchDrop, i);

    std::vector<TraceRecord> last = trace.lastRecords(3);
    ASSERT_EQ(last.size(), 3u);
    EXPECT_EQ(last[0].cycle, 2u);
    EXPECT_EQ(last[2].cycle, 4u);
    EXPECT_EQ(trace.lastRecords(99).size(), 5u);
}

TEST(Trace, ClearForgetsEverything)
{
    Trace trace(16);
    trace.emit(TraceEvent::WatchDrop, 1);
    trace.clear();
    EXPECT_EQ(trace.emitted(), 0u);
    EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, EventNamesCoverEveryEvent)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(TraceEvent::NumEvents); ++i) {
        std::string name =
            traceEventName(static_cast<TraceEvent>(i));
        EXPECT_FALSE(name.empty());
        EXPECT_NE(name, "?");
    }
    EXPECT_STREQ(traceEventName(TraceEvent::NumEvents), "?");
}

TEST(Trace, BinarySectionsRoundTrip)
{
    Trace first(16);
    for (std::uint64_t i = 0; i < 40; ++i)
        first.emit(TraceEvent::ControllerFill, i, i, i + 1, i + 2);
    Trace second(32);
    second.emit(TraceEvent::LeakReported, 99, 0xabc, 128, 7);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, first, "gzip/safemem+buggy");
    writeTraceSection(stream, second, "hotpath");

    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 2u);

    EXPECT_EQ(sections[0].label, "gzip/safemem+buggy");
    EXPECT_EQ(sections[0].emitted, 40u);
    EXPECT_EQ(sections[0].capacity, 16u);
    EXPECT_EQ(sections[0].records, first.records());

    EXPECT_EQ(sections[1].label, "hotpath");
    EXPECT_EQ(sections[1].emitted, 1u);
    EXPECT_EQ(sections[1].records, second.records());
}

TEST(Trace, EmptyStreamYieldsNoSections)
{
    std::stringstream stream;
    EXPECT_TRUE(readTraceSections(stream).empty());
}

TEST(Trace, MalformedMagicThrows)
{
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    stream << "NOPE this is not a trace file";
    EXPECT_THROW(readTraceSections(stream), FatalError);
}

TEST(Trace, TruncatedSectionThrows)
{
    Trace first(16);
    for (std::uint64_t i = 0; i < 5; ++i)
        first.emit(TraceEvent::ControllerFill, i, i, 1);
    Trace second(16);
    second.emit(TraceEvent::LeakReported, 9, 0xabc, 128, 7);
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, first, "one");
    const std::size_t boundary = stream.str().size();
    writeTraceSection(stream, second, "two");
    const std::string bytes = stream.str();

    // Cut the file at every byte: a cut on a section boundary reads
    // back the whole sections before it, any other cut is an error.
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        std::stringstream in(bytes.substr(0, cut),
                             std::ios::in | std::ios::binary);
        if (cut != 0 && cut != boundary && cut != bytes.size()) {
            EXPECT_THROW(readTraceSections(in), FatalError)
                << "cut at byte " << cut;
            continue;
        }
        std::vector<TraceSection> sections = readTraceSections(in);
        ASSERT_EQ(sections.size(),
                  cut == 0 ? 0u : cut == boundary ? 1u : 2u);
        if (!sections.empty()) {
            EXPECT_EQ(sections[0].records, first.records());
        }
        if (sections.size() == 2) {
            EXPECT_EQ(sections[1].records, second.records());
        }
    }
}

TEST(Trace, HugeHeaderFieldsThrowInsteadOfAllocating)
{
    // A real empty section labelled "x" is 37 bytes: magic, version,
    // label length (offset 8), the label, then emitted, capacity and
    // record count (offsets 13, 21, 29).
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, Trace(16), "x");
    const std::string header = stream.str();
    ASSERT_EQ(header.size(), 37u);
    auto patch = [](std::string bytes, std::size_t offset,
                    std::uint64_t value) {
        bytes.replace(offset, sizeof(value),
                      reinterpret_cast<const char *>(&value),
                      sizeof(value));
        return bytes;
    };
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::string long_label = header;
    long_label.replace(8, 4, "\xff\xff\xff\xff", 4);
    const std::string corrupt[] = {
        long_label,
        // count = capacity = 2^40 records claimed by a 37-byte file.
        patch(patch(header, 21, huge), 29, huge),
        patch(patch(patch(header, 13, huge), 21, huge), 29, huge),
        patch(header, 29, ~std::uint64_t{0}),
        patch(header, 29, 1), // one record, but none was ever emitted
    };
    for (const std::string &bytes : corrupt) {
        std::stringstream in(bytes, std::ios::in | std::ios::binary);
        EXPECT_THROW(readTraceSections(in), FatalError);
    }
}

TEST(Trace, JsonLinesCarryAbsoluteSequenceNumbers)
{
    Trace trace(16);
    for (std::uint64_t i = 0; i < 20; ++i)
        trace.emit(TraceEvent::ControllerEvict, 100 + i, i);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "run \"x\"");
    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 1u);
    ASSERT_EQ(sections[0].records.size(), 16u);

    // 20 emitted into a 16-ring: the first retained record is emit #4.
    std::string line = traceRecordJsonLine(sections[0], 0);
    EXPECT_NE(line.find("\"run\":\"run \\\"x\\\"\""), std::string::npos);
    EXPECT_NE(line.find("\"seq\":4"), std::string::npos);
    EXPECT_NE(line.find("\"cycle\":104"), std::string::npos);
    EXPECT_NE(line.find("\"event\":\"controller_evict\""),
              std::string::npos);
    EXPECT_NE(line.find("\"a\":4"), std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Trace, SectionSummaryCountsEventsAndCycleSpan)
{
    Trace trace(16);
    trace.emit(TraceEvent::ControllerFill, 100);
    trace.emit(TraceEvent::ControllerFill, 250);
    trace.emit(TraceEvent::ControllerEvict, 900);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "summary/run");
    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 1u);

    std::string summary = traceSectionSummaryJson(sections[0]);
    EXPECT_NE(summary.find("\"run\":\"summary/run\""), std::string::npos);
    EXPECT_NE(summary.find("\"emitted\":3"), std::string::npos);
    EXPECT_NE(summary.find("\"retained\":3"), std::string::npos);
    EXPECT_NE(summary.find("\"cycle_first\":100"), std::string::npos);
    EXPECT_NE(summary.find("\"cycle_last\":900"), std::string::npos);
    EXPECT_NE(summary.find("\"controller_fill\":2"), std::string::npos);
    EXPECT_NE(summary.find("\"controller_evict\":1"), std::string::npos);
    // Events with zero occurrences are omitted, not listed as zero.
    EXPECT_EQ(summary.find("\"leak_reported\""), std::string::npos);
    EXPECT_EQ(summary.find('\n'), std::string::npos);
}

TEST(Trace, RecordsCarryTheEmittingPid)
{
    Trace trace(16);
    trace.emit(TraceEvent::ControllerFill, 10);
    trace.setPid(3);
    trace.emit(TraceEvent::ControllerFill, 20);
    ASSERT_EQ(trace.records().size(), 2u);
    EXPECT_EQ(trace.records()[0].pid, 0u);
    EXPECT_EQ(trace.records()[1].pid, 3u);

    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, trace, "pids");
    std::vector<TraceSection> sections = readTraceSections(stream);
    ASSERT_EQ(sections.size(), 1u);
    EXPECT_EQ(sections[0].records, trace.records());
    EXPECT_NE(traceRecordJsonLine(sections[0], 1).find("\"pid\":3"),
              std::string::npos);
}

TEST(Trace, ScopeRoutesAndNests)
{
    EXPECT_EQ(currentTrace(), nullptr);
    Trace outer(16);
    {
        TraceScope outer_scope(outer);
        EXPECT_EQ(currentTrace(), &outer);
        Trace inner(16);
        {
            TraceScope inner_scope(inner);
            EXPECT_EQ(currentTrace(), &inner);
        }
        EXPECT_EQ(currentTrace(), &outer);
    }
    EXPECT_EQ(currentTrace(), nullptr);
}

TEST(Trace, ContextSummaryShowsNewestEvents)
{
    EXPECT_TRUE(traceContextSummary(4).empty());

    Trace trace(16);
    TraceScope scope(trace);
    EXPECT_TRUE(traceContextSummary(4).empty()) << "empty ring";

    trace.emit(TraceEvent::WatchScrubPark, 123, 0x40, 64);
    trace.emit(TraceEvent::ControllerScrubBegin, 130, 0, 512);
    std::string summary = traceContextSummary(4);
    EXPECT_NE(summary.find("last trace events:"), std::string::npos);
    EXPECT_NE(summary.find("watch_scrub_park@123"), std::string::npos);
    EXPECT_NE(summary.find("controller_scrub_begin@130"),
              std::string::npos);
}

TEST(Trace, SimCheckViolationsCarryTraceContext)
{
    ASSERT_TRUE(SimCheck::instance().enabled());
    Trace trace(16);
    TraceScope scope(trace);
    trace.emit(TraceEvent::KernelScrubTickBegin, 555);

    try {
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "self_test_trace",
                       false, "seeded violation with trace context");
        FAIL() << "audit failure did not throw";
    } catch (const PanicError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("SimCheck violation"), std::string::npos);
        EXPECT_NE(what.find("last trace events:"), std::string::npos);
        EXPECT_NE(what.find("kernel_scrub_tick_begin@555"),
                  std::string::npos);
    }
}

TEST(Trace, MachineRecordsControllerTraffic)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "emit sites compiled out";

    Trace trace;
    MachineConfig config{4u << 20, CacheConfig{16, 2}, 64};
    config.trace = &trace;
    Machine machine(config);

    VirtAddr region = machine.kernel().mapRegion(kPageSize);
    for (int i = 0; i < 64; ++i)
        machine.store<std::uint64_t>(region + i * 64, i);
    machine.cache().flushAll();

    std::uint64_t fills = 0;
    std::uint64_t evicts = 0;
    for (const TraceRecord &record : trace.records()) {
        if (record.event == TraceEvent::ControllerFill)
            ++fills;
        if (record.event == TraceEvent::ControllerEvict)
            ++evicts;
    }
    EXPECT_GT(fills, 0u);
    EXPECT_GT(evicts, 0u);
}

TEST(Trace, MatrixCellsRecordIdenticallySerialAndParallel)
{
    if (!kTraceCompiledIn)
        GTEST_SKIP() << "emit sites compiled out";

    auto make_specs = [](std::vector<Trace> &traces) {
        RunParams params;
        params.requests = 10;
        params.seed = 42;
        std::vector<RunSpec> specs;
        specs.push_back(RunSpec{"gzip", ToolKind::SafeMemBoth, params});
        params.buggy = true;
        specs.push_back(RunSpec{"tar", ToolKind::SafeMemBoth, params});
        for (std::size_t i = 0; i < specs.size(); ++i)
            specs[i].params.trace = &traces[i];
        return specs;
    };

    std::vector<Trace> serial_traces(2);
    std::vector<MatrixCell> serial =
        runMatrix(make_specs(serial_traces), 1);
    std::vector<Trace> parallel_traces(2);
    std::vector<MatrixCell> parallel =
        runMatrix(make_specs(parallel_traces), 2);

    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(serial[i].ok());
        ASSERT_TRUE(parallel[i].ok());
        EXPECT_GT(serial_traces[i].emitted(), 0u);
        EXPECT_EQ(serial_traces[i].emitted(),
                  parallel_traces[i].emitted());
        EXPECT_EQ(serial_traces[i].records(),
                  parallel_traces[i].records());
    }
    EXPECT_NE(serial_traces[0].records(), serial_traces[1].records())
        << "distinct runs should record distinct streams";
}

} // namespace
} // namespace safemem
