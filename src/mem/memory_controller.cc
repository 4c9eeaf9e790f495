#include "mem/memory_controller.h"

#include "check/simcheck.h"
#include "common/costs.h"
#include "common/logging.h"
#include "ecc/edc.h"
#include "trace/trace.h"

namespace safemem {

namespace {

/** Stored bytes of one line's EDC fold (the lane rounds up to bytes). */
std::uint64_t
edcFoldBytes(EdcKind kind)
{
    return (edcBitsPerLine(kind) + 7) / 8;
}

} // namespace

MemoryController::MemoryController(PhysicalMemory &memory, CycleClock &clock,
                                   Trace *trace, const EccCodec &code,
                                   ProtectionGeometry geometry)
    : memory_(memory), clock_(clock), code_(code),
      encoder_(memory.newEncoderTag()), trace_(trace), geometry_(geometry)
{
    // The datapath is one 64-bit ECC group per check byte; a codec with
    // another geometry belongs to the campaign engine, not a machine.
    if (code_.dataBits() != 64)
        panic("MemoryController: codec '", code_.name(), "' protects ",
              code_.dataBits(), " data bits; the ECC group is 64");
    if (code_.checkBits() > memory_.checkBits())
        panic("MemoryController: codec '", code_.name(), "' needs ",
              code_.checkBits(), " check bits; the DIMM stores ",
              memory_.checkBits());
    // A block-geometry datapath needs the DIMM's EDC lane, organised for
    // the same codeword size and fold kind. validCodewordBytes() caps
    // codewords at one page, so a codeword never straddles a page
    // boundary.
    if (!geometry_.isWord() &&
        (!memory_.hasEdcLane() || !(memory_.geometry() == geometry_)))
        panic("MemoryController: geometry '", geometryName(geometry_),
              "' but the DIMM is organised for '",
              geometryName(memory_.geometry()), "'");
}

void
MemoryController::setInterruptHandler(EccInterruptHandler handler)
{
    interruptHandler_ = std::move(handler);
}

void
MemoryController::lockBus()
{
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "bus_lock_pairing",
                   !busLocked_, "lockBus while the bus is already locked");
    if (busLocked_)
        panic("MemoryController: bus already locked");
    busLocked_ = true;
    stats_.add(ControllerStat::BusLocks);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerBusLock, clock_.now());
}

void
MemoryController::unlockBus()
{
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "bus_lock_pairing",
                   busLocked_, "unlockBus while the bus is not locked");
    if (!busLocked_)
        panic("MemoryController: bus not locked");
    busLocked_ = false;
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerBusUnlock, clock_.now());
}

void
MemoryController::raise(EccFaultKind kind, PhysAddr word_addr,
                        std::uint64_t data)
{
    EccFaultInfo info;
    info.kind = kind;
    info.lineAddr = alignDown(word_addr, kCacheLineSize);
    info.wordIndex =
        static_cast<int>((word_addr % kCacheLineSize) / kEccGroupSize);
    info.rawData = data;
    stats_.add(ControllerStat::InterruptsRaised);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerInterrupt, clock_.now(),
                       info.lineAddr,
                       static_cast<std::uint64_t>(info.wordIndex),
                       static_cast<std::uint64_t>(info.kind));
    if (!interruptHandler_)
        panic("MemoryController: ECC interrupt with no handler wired; "
              "line=", info.lineAddr, " word=", info.wordIndex);
    interruptHandler_(info);
}

bool
MemoryController::decodeWord(PhysAddr word_addr, bool scrubbing,
                             std::uint64_t &data_out)
{
    std::uint64_t data = memory_.readWord(word_addr);
    data_out = data;

    if (mode_ == EccMode::Disabled)
        return true;

    std::uint8_t check = memory_.readCheck(word_addr);
    EccDecodeResult result = code_.decode(data, check);

    switch (result.status) {
      case EccDecodeStatus::Ok:
        return true;

      case EccDecodeStatus::CorrectedSingle:
        if (mode_ == EccMode::CheckOnly) {
            // Check-Only mode detects and reports but never corrects.
            stats_.add(ControllerStat::SingleBitReported);
            raise(EccFaultKind::UnreportedSingle, word_addr, data);
            return true;
        }
        // Correct transparently and heal the stored copy.
        heal(word_addr, result.data);
        data_out = result.data;
        return true;

      case EccDecodeStatus::Uncorrectable:
        stats_.add(ControllerStat::MultiBitDetected);
        raise(scrubbing ? EccFaultKind::ScrubMultiBit
                        : EccFaultKind::MultiBit,
              word_addr, data);
        return false;
    }
    return true;
}

void
MemoryController::heal(PhysAddr word_addr, std::uint64_t data)
{
    stats_.add(ControllerStat::SingleBitCorrected);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerSingleBitCorrected,
                       clock_.now(), word_addr);
    memory_.writeWord(word_addr, data);
    memory_.writeCheck(word_addr,
                       static_cast<std::uint8_t>(code_.encode(data)));
    // The corrected word just written back must form a clean codeword;
    // anything else means the correct/heal datapath is broken.
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "fill_reencode_clean",
                   code_.decode(memory_.readWord(word_addr),
                                memory_.readCheck(word_addr)).status ==
                       EccDecodeStatus::Ok,
                   "healed word at ", word_addr, " does not re-decode clean");
}

std::uint64_t
MemoryController::storedLineFold(PhysAddr line_addr) const
{
    return edcLineFold(geometry_.edc, peekLine(line_addr).data(),
                       kEccGroupsPerLine);
}

bool
MemoryController::edcConsistent(PhysAddr line_addr) const
{
    if (geometry_.isWord())
        return true;
    return storedLineFold(line_addr) == memory_.readEdc(line_addr);
}

bool
MemoryController::latentDecodeWord(PhysAddr word_addr)
{
    std::uint64_t data = memory_.readWord(word_addr);
    std::uint8_t check = memory_.readCheck(word_addr);
    EccDecodeResult result = code_.decode(data, check);

    switch (result.status) {
      case EccDecodeStatus::Ok:
        return true;

      case EccDecodeStatus::CorrectedSingle:
        if (mode_ == EccMode::CheckOnly)
            // Detected but, per CheckOnly, not corrected: the stored
            // word still carries the error, so its line must not get
            // an EDC refresh. Nothing is raised either — reporting is
            // for demanded reads, and nobody demanded this word.
            return false;
        heal(word_addr, result.data);
        return true;

      case EccDecodeStatus::Uncorrectable:
        // Uncorrectable, but outside the demanded line: count it
        // latent instead of raising, so a scrambled neighbour sharing
        // the codeword cannot storm the interrupt wire. It raises for
        // real the moment something actually reads its line.
        geomStats_.add(GeometryStat::LatentFaultWords);
        return false;
    }
    return true;
}

bool
MemoryController::blockDecode(PhysAddr line_addr, bool scrubbing,
                              LineWords *out)
{
    const PhysAddr cw = alignDown(line_addr, geometry_.codewordBytes);
    const std::size_t cw_lines = geometry_.codewordBytes / kCacheLineSize;
    const std::size_t cw_words = geometry_.codewordBytes / kEccGroupSize;

    geomStats_.add(GeometryStat::BlockDecodes);
    geomStats_.add(GeometryStat::BlockDecodeWords, cw_words);
    // The demanded line arrived with the burst already; the decode
    // fetches the rest of the codeword plus the long-code redundancy.
    geomStats_.add(GeometryStat::RedundancyBytesRead,
                   geometry_.codewordBytes - kCacheLineSize +
                       blockEccCheckBytes(geometry_.codewordBytes));
    Cycles cost = static_cast<Cycles>(cw_words) * kBlockDecodeWordCycles;
    if (scrubbing)
        clock_.advance(cost, CostCenter::Kernel);
    else
        clock_.advance(cost);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::EccBlockDecode, clock_.now(),
                       line_addr, cw);

    bool ok = true;
    for (std::size_t l = 0; l < cw_lines; ++l) {
        PhysAddr cur = cw + l * kCacheLineSize;
        const bool requested = cur == line_addr;
        bool clean = true;
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            PhysAddr word_addr = cur + i * kEccGroupSize;
            if (requested) {
                std::uint64_t word;
                if (!decodeWord(word_addr, scrubbing, word)) {
                    ok = false;
                    clean = false;
                }
                if (out)
                    (*out)[i] = word;
            } else if (!latentDecodeWord(word_addr)) {
                clean = false;
            }
        }
        // Refresh a stale-but-clean fold so the next read of this line
        // takes the EDC fast path. Correcting modes only: CheckOnly
        // never heals, so its "clean" can still hide the very error a
        // stale fold is flagging.
        if (clean && (mode_ == EccMode::CorrectError ||
                      mode_ == EccMode::CorrectAndScrub)) {
            std::uint64_t fold = storedLineFold(cur);
            if (fold != memory_.readEdc(cur)) {
                memory_.writeEdc(cur, fold);
                geomStats_.add(GeometryStat::EdcRefreshes);
                geomStats_.add(GeometryStat::RedundancyBytesWritten,
                               edcFoldBytes(geometry_.edc));
            }
        }
    }
    return ok;
}

bool
MemoryController::fillLine(PhysAddr line_addr, LineWords &out)
{
    if (!isAligned(line_addr, kCacheLineSize))
        panic("MemoryController: unaligned fill address ", line_addr);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "no_traffic_while_locked",
                   !busLocked_, "cache fill of line ", line_addr,
                   " while the bus is locked");
    if (busLocked_)
        panic("MemoryController: fill while memory bus is locked");

    clock_.advance(kDramLineCycles);
    stats_.add(ControllerStat::LineFills);

    bool ok = true;
    if (geometry_.isWord() || mode_ == EccMode::Disabled) {
        // Per-word SEC-DED over every group of the demanded line. (With
        // ECC Disabled the block fast path has nothing to check either,
        // so both geometries degenerate to this raw read.) A line read
        // raw, one this controller encoded itself, or one clean as a
        // whole is the fill; any other line decodes word by word, so
        // corrections, CheckOnly reports and interrupts keep their
        // order.
        LineWords words;
        std::uint8_t checks[kEccGroupsPerLine];
        if (mode_ == EccMode::Disabled) {
            memory_.readLine(line_addr, words, nullptr);
        } else if (memory_.encodedBy(line_addr, encoder_)) {
            // Every syndrome is zero by construction; SimCheck
            // recomputes them anyway.
            const bool audit = simCheckActive();
            memory_.readLine(line_addr, words, audit ? checks : nullptr);
            if (audit) {
                SIMCHECK_AUDIT(
                    AuditDomain::MemoryController, "encoded_line_clean",
                    code_.allClean(words.data(), checks, kEccGroupsPerLine),
                    "line ", line_addr,
                    " is tagged with this controller's encode but does not"
                    " decode clean");
            }
        } else {
            memory_.readLine(line_addr, words, checks);
            if (!code_.allClean(words.data(), checks, kEccGroupsPerLine)) {
                for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                    if (!decodeWord(line_addr + i * kEccGroupSize, false,
                                    words[i]))
                        ok = false;
                }
            }
        }
        // A failed fill leaves @p out alone: the handler that just ran
        // may have refilled the very cache slot it points at.
        if (ok)
            out = words;
    } else {
        // Block geometry: verify the line's EDC fold that rode in with
        // the burst; only an EDC miss pays the long-code decode.
        geomStats_.add(GeometryStat::DataBytesRead, kCacheLineSize);
        geomStats_.add(GeometryStat::RedundancyBytesRead,
                       edcFoldBytes(geometry_.edc));
        clock_.advance(kEdcCheckCycles);
        PhysAddr cw = alignDown(line_addr, geometry_.codewordBytes);
        if (storedLineFold(line_addr) == memory_.readEdc(line_addr)) {
            geomStats_.add(GeometryStat::EdcChecksPassed);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::EdcCheckPass,
                               clock_.now(), line_addr, cw);
            out = peekLine(line_addr);
        } else {
            geomStats_.add(GeometryStat::EdcChecksFailed);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::EdcCheckFail,
                               clock_.now(), line_addr, cw);
            LineWords decoded;
            ok = blockDecode(line_addr, false, &decoded);
            if (ok)
                out = decoded;
        }
    }
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerFill, clock_.now(),
                       line_addr, ok ? 1 : 0);
    return ok;
}

void
MemoryController::evictLine(PhysAddr line_addr, const LineWords &words)
{
    if (!isAligned(line_addr, kCacheLineSize))
        panic("MemoryController: unaligned eviction address ", line_addr);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "no_traffic_while_locked",
                   !busLocked_, "cache writeback of line ", line_addr,
                   " while the bus is locked");
    if (busLocked_)
        panic("MemoryController: writeback while memory bus is locked");

    clock_.advance(kDramLineCycles);
    stats_.add(ControllerStat::LineEvictions);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerEvict, clock_.now(),
                       line_addr);

    writeLineDeviceOp(line_addr, words);

    if (!geometry_.isWord() && mode_ != EccMode::Disabled) {
        // The EDC fold rides with the burst and covers exactly this
        // line, so the writeback computes it from the new data alone.
        // (With ECC Disabled it goes stale alongside the check bytes —
        // the hook the scramble trick relies on.)
        memory_.writeEdc(line_addr,
                         edcLineFold(geometry_.edc, words.data(),
                                     kEccGroupsPerLine));
        geomStats_.add(GeometryStat::DataBytesWritten, kCacheLineSize);
        geomStats_.add(GeometryStat::RedundancyBytesWritten,
                       edcFoldBytes(geometry_.edc));
        // The long-code ECC spans the whole codeword. A writeback that
        // opens a new codeword pays a full read-modify-write (fetch the
        // old line and redundancy, merge, rewrite); further writebacks
        // into the open codeword fold their update in incrementally —
        // the amortisation sequential streams are built to hit.
        PhysAddr cw = alignDown(line_addr, geometry_.codewordBytes);
        if (openCodeword_ == cw) {
            geomStats_.add(GeometryStat::OpenCodewordHits);
            clock_.advance(kEdcUpdateCycles);
        } else {
            geomStats_.add(GeometryStat::PartialWriteRmws);
            geomStats_.add(GeometryStat::RedundancyBytesRead,
                           kCacheLineSize +
                               blockEccCheckBytes(geometry_.codewordBytes));
            geomStats_.add(GeometryStat::RedundancyBytesWritten,
                           blockEccCheckBytes(geometry_.codewordBytes));
            clock_.advance(kPartialWriteRmwCycles);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::PartialWriteRmw,
                               clock_.now(), line_addr, cw);
            openCodeword_ = cw;
        }
    }

    if (simCheckActive())
        auditWritebackCoherence(line_addr, words);
}

void
MemoryController::auditWritebackCoherence(PhysAddr line_addr,
                                          const LineWords &words) const
{
    // The line the cache just wrote back must read back verbatim and (with
    // ECC on) decode clean — a mismatch means the writeback datapath lost
    // or mangled data, exactly the silent corruption SafeMem exists to
    // catch in applications.
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        PhysAddr word_addr = line_addr + i * kEccGroupSize;
        std::uint64_t stored = memory_.readWord(word_addr);
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "writeback_data_match",
                       stored == words[i],
                       "word ", i, " of line ", line_addr,
                       " differs from the written-back data");
        if (mode_ != EccMode::Disabled) {
            SIMCHECK_AUDIT(
                AuditDomain::MemoryController, "writeback_check_clean",
                code_.decode(stored, memory_.readCheck(word_addr)).status ==
                    EccDecodeStatus::Ok,
                "stored check byte stale after writeback of line ",
                line_addr);
        }
    }
    if (!geometry_.isWord() && mode_ != EccMode::Disabled) {
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "writeback_edc_clean",
                       edcConsistent(line_addr),
                       "stored EDC fold stale after writeback of line ",
                       line_addr);
    }
}

void
MemoryController::writeLineDeviceOp(PhysAddr line_addr, const LineWords &words)
{
    if (mode_ == EccMode::Disabled) {
        memory_.writeLine(line_addr, words);
        return;
    }
    std::uint8_t checks[kEccGroupsPerLine];
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        checks[i] = static_cast<std::uint8_t>(code_.encode(words[i]));
    memory_.writeEncodedLine(line_addr, words, checks, encoder_);
}

LineWords
MemoryController::peekLine(PhysAddr line_addr) const
{
    LineWords words;
    memory_.readLine(line_addr, words, nullptr);
    return words;
}

void
MemoryController::scrubRange(PhysAddr start_line, std::size_t lines)
{
    // The scrub engine is a bus agent like the cache: while the kernel
    // holds the bus for a scramble, scrub reads of half-written groups
    // would race the scramble exactly like a fill would.
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "no_traffic_while_locked",
                   !busLocked_, "scrub of ", lines, " lines at ", start_line,
                   " while the bus is locked");
    if (busLocked_)
        panic("MemoryController: scrub while memory bus is locked");

    stats_.add(ControllerStat::ScrubPasses);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerScrubBegin, clock_.now(),
                       start_line, lines);
    for (std::size_t l = 0; l < lines; ++l)
        scrubLine(start_line + l * kCacheLineSize);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerScrubEnd, clock_.now(),
                       start_line, lines);
}

void
MemoryController::scrubLine(PhysAddr line_addr)
{
    if (geometry_.isWord() || mode_ == EccMode::Disabled) {
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            clock_.advance(kScrubWordCycles, CostCenter::Kernel);
            std::uint64_t word;
            decodeWord(line_addr + i * kEccGroupSize, true, word);
        }
        return;
    }
    // Block geometry: the patrol read verifies the line's EDC fold and
    // only a miss pays the long-code decode — the same fast-check /
    // decode-on-failure split the fill path uses. Errors confined to
    // the redundancy lane stay latent until something misses EDC;
    // that blind spot is part of the trade the coarse geometry makes.
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        clock_.advance(kScrubWordCycles, CostCenter::Kernel);
    if (storedLineFold(line_addr) != memory_.readEdc(line_addr))
        blockDecode(line_addr, true, nullptr);
}

void
MemoryController::scrubAll()
{
    scrubRange(0, memory_.size() / kCacheLineSize);
}

} // namespace safemem
