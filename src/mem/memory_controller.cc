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
                                   unsigned banks, ProtectionGeometry geometry)
    : memory_(memory), clock_(clock), code_(code), trace_(trace),
      geometry_(geometry)
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
    if (banks < 1 || banks > kMaxMemoryBanks)
        panic("MemoryController: ", banks, " banks outside [1, ",
              kMaxMemoryBanks, "]");
    if (memory_.size() / kPageSize < banks)
        panic("MemoryController: ", banks, " banks but only ",
              memory_.size() / kPageSize, " pages of DRAM");
    // A block-geometry datapath needs the DIMM's EDC lane, organised for
    // the same codeword size and fold kind. validCodewordBytes() caps
    // codewords at one page, so a codeword never straddles a page — and
    // with page-granular interleaving, never a bank — boundary.
    if (!geometry_.isWord() &&
        (!memory_.hasEdcLane() || !(memory_.geometry() == geometry_)))
        panic("MemoryController: geometry '", geometryName(geometry_),
              "' but the DIMM is organised for '",
              geometryName(memory_.geometry()), "'");
    for (unsigned b = 0; b < banks; ++b)
        banks_.emplace_back(b);
}

void
MemoryController::setInterruptHandler(EccInterruptHandler handler)
{
    interruptHandler_ = std::move(handler);
}

const MemoryBank &
MemoryController::bank(unsigned id) const
{
    if (id >= banks_.size())
        panic("MemoryController: bank ", id, " of ", banks_.size());
    return banks_[id];
}

std::uint64_t
MemoryController::bankMaskForSpan(PhysAddr addr, std::size_t bytes) const
{
    if (bytes == 0)
        return 0;
    std::uint64_t mask = 0;
    PhysAddr first = alignDown(addr, kPageSize);
    PhysAddr last = alignDown(addr + bytes - 1, kPageSize);
    for (PhysAddr page = first; page <= last; page += kPageSize)
        mask |= std::uint64_t{1} << bankOf(page);
    return mask;
}

void
MemoryController::lockBank(unsigned id)
{
    MemoryBank &bank = banks_.at(id);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "bus_lock_pairing",
                   !bank.locked_, "lockBank while bank ", id,
                   " is already locked");
    if (bank.locked_)
        panic("MemoryController: bus already locked");
    bank.locked_ = true;
    stats_.add(ControllerStat::BusLocks);
    bank.stats_.add(ControllerStat::BusLocks);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerBusLock, clock_.now(),
                       id);
}

void
MemoryController::unlockBank(unsigned id)
{
    MemoryBank &bank = banks_.at(id);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "bus_lock_pairing",
                   bank.locked_, "unlockBank while bank ", id,
                   " is not locked");
    if (!bank.locked_)
        panic("MemoryController: bus not locked");
    bank.locked_ = false;
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerBusUnlock, clock_.now(),
                       id);
}

bool
MemoryController::bankLocked(unsigned id) const
{
    return banks_.at(id).locked_;
}

void
MemoryController::lockBus()
{
    for (unsigned b = 0; b < banks_.size(); ++b)
        lockBank(b);
}

void
MemoryController::unlockBus()
{
    for (unsigned b = static_cast<unsigned>(banks_.size()); b-- > 0;)
        unlockBank(b);
}

bool
MemoryController::busLocked() const
{
    for (const MemoryBank &bank : banks_)
        if (!bank.locked_)
            return false;
    return true;
}

bool
MemoryController::anyBankLocked() const
{
    for (const MemoryBank &bank : banks_)
        if (bank.locked_)
            return true;
    return false;
}

void
MemoryController::raise(const EccFaultInfo &info)
{
    stats_.add(ControllerStat::InterruptsRaised);
    banks_[info.bank].stats_.add(ControllerStat::InterruptsRaised);
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
    unsigned bank_id = bankOf(word_addr);

    switch (result.status) {
      case EccDecodeStatus::Ok:
        return true;

      case EccDecodeStatus::CorrectedSingle:
        if (mode_ == EccMode::CheckOnly) {
            // Check-Only mode detects and reports but never corrects.
            stats_.add(ControllerStat::SingleBitReported);
            banks_[bank_id].stats_.add(ControllerStat::SingleBitReported);
            EccFaultInfo info;
            info.kind = EccFaultKind::UnreportedSingle;
            info.lineAddr = alignDown(word_addr, kCacheLineSize);
            info.wordIndex = static_cast<int>(
                (word_addr % kCacheLineSize) / kEccGroupSize);
            info.rawData = data;
            info.bank = bank_id;
            if (!geometry_.isWord())
                info.codewordAddr =
                    alignDown(word_addr, geometry_.codewordBytes);
            raise(info);
            return true;
        }
        // Correct transparently and heal the stored copy.
        stats_.add(ControllerStat::SingleBitCorrected);
        banks_[bank_id].stats_.add(ControllerStat::SingleBitCorrected);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerSingleBitCorrected,
                           clock_.now(), word_addr);
        memory_.writeWord(word_addr, result.data);
        memory_.writeCheck(word_addr, static_cast<std::uint8_t>(
                                          code_.encode(result.data)));
        data_out = result.data;
        // The corrected word just written back must form a clean codeword;
        // anything else means the correct/heal datapath is broken.
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "fill_reencode_clean",
                       code_.decode(memory_.readWord(word_addr),
                                    memory_.readCheck(word_addr)).status ==
                           EccDecodeStatus::Ok,
                       "healed word at ", word_addr,
                       " does not re-decode clean");
        return true;

      case EccDecodeStatus::Uncorrectable: {
        stats_.add(ControllerStat::MultiBitDetected);
        banks_[bank_id].stats_.add(ControllerStat::MultiBitDetected);
        EccFaultInfo info;
        info.kind = scrubbing ? EccFaultKind::ScrubMultiBit
                              : EccFaultKind::MultiBit;
        info.lineAddr = alignDown(word_addr, kCacheLineSize);
        info.wordIndex = static_cast<int>(
            (word_addr % kCacheLineSize) / kEccGroupSize);
        info.rawData = data;
        info.bank = bank_id;
        if (!geometry_.isWord())
            info.codewordAddr = alignDown(word_addr, geometry_.codewordBytes);
        raise(info);
        return false;
      }
    }
    return true;
}

std::uint64_t
MemoryController::storedLineFold(PhysAddr line_addr) const
{
    std::uint64_t words[kEccGroupsPerLine];
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        words[i] = memory_.readWord(line_addr + i * kEccGroupSize);
    return edcLineFold(geometry_.edc, words, kEccGroupsPerLine);
}

bool
MemoryController::edcConsistent(PhysAddr line_addr) const
{
    if (geometry_.isWord())
        return true;
    return storedLineFold(line_addr) == memory_.readEdc(line_addr);
}

void
MemoryController::geomAdd(GeometryStat stat, unsigned bank_id,
                          std::uint64_t delta)
{
    geomStats_.add(stat, delta);
    banks_[bank_id].geomStats_.add(stat, delta);
}

bool
MemoryController::latentDecodeWord(PhysAddr word_addr)
{
    std::uint64_t data = memory_.readWord(word_addr);
    std::uint8_t check = memory_.readCheck(word_addr);
    EccDecodeResult result = code_.decode(data, check);
    unsigned bank_id = bankOf(word_addr);

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
        stats_.add(ControllerStat::SingleBitCorrected);
        banks_[bank_id].stats_.add(ControllerStat::SingleBitCorrected);
        SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerSingleBitCorrected,
                           clock_.now(), word_addr);
        memory_.writeWord(word_addr, result.data);
        memory_.writeCheck(word_addr, static_cast<std::uint8_t>(
                                          code_.encode(result.data)));
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "fill_reencode_clean",
                       code_.decode(memory_.readWord(word_addr),
                                    memory_.readCheck(word_addr)).status ==
                           EccDecodeStatus::Ok,
                       "healed word at ", word_addr,
                       " does not re-decode clean");
        return true;

      case EccDecodeStatus::Uncorrectable:
        // Uncorrectable, but outside the demanded line: count it
        // latent instead of raising, so a scrambled neighbour sharing
        // the codeword cannot storm the interrupt wire. It raises for
        // real the moment something actually reads its line.
        geomAdd(GeometryStat::LatentFaultWords, bank_id);
        return false;
    }
    return true;
}

bool
MemoryController::blockDecode(PhysAddr line_addr, bool scrubbing,
                              LineData *out)
{
    const PhysAddr cw = alignDown(line_addr, geometry_.codewordBytes);
    const unsigned bank_id = bankOf(line_addr);
    const std::size_t cw_lines = geometry_.codewordBytes / kCacheLineSize;
    const std::size_t cw_words = geometry_.codewordBytes / kEccGroupSize;

    geomAdd(GeometryStat::BlockDecodes, bank_id);
    geomAdd(GeometryStat::BlockDecodeWords, bank_id, cw_words);
    // The demanded line arrived with the burst already; the decode
    // fetches the rest of the codeword plus the long-code redundancy.
    geomAdd(GeometryStat::RedundancyBytesRead, bank_id,
            geometry_.codewordBytes - kCacheLineSize +
                blockEccCheckBytes(geometry_.codewordBytes));
    Cycles cost = static_cast<Cycles>(cw_words) * kBlockDecodeWordCycles;
    if (scrubbing)
        clock_.advance(cost, CostCenter::Kernel);
    else
        clock_.advance(cost);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::EccBlockDecode, clock_.now(),
                       line_addr, cw, bank_id);

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
                    setLineWord(*out, i, word);
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
                geomAdd(GeometryStat::EdcRefreshes, bank_id);
                geomAdd(GeometryStat::RedundancyBytesWritten, bank_id,
                        edcFoldBytes(geometry_.edc));
            }
        }
    }
    return ok;
}

bool
MemoryController::fillLine(PhysAddr line_addr, LineData &out)
{
    if (!isAligned(line_addr, kCacheLineSize))
        panic("MemoryController: unaligned fill address ", line_addr);
    unsigned bank_id = bankOf(line_addr);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "no_traffic_while_locked",
                   !banks_[bank_id].locked_, "cache fill of line ", line_addr,
                   " while bank ", bank_id, "'s bus is locked");
    if (banks_[bank_id].locked_)
        panic("MemoryController: fill while memory bus is locked");

    clock_.advance(kDramLineCycles);
    stats_.add(ControllerStat::LineFills);
    banks_[bank_id].stats_.add(ControllerStat::LineFills);

    bool ok = true;
    if (geometry_.isWord() || mode_ == EccMode::Disabled) {
        // Per-word SEC-DED over every group of the demanded line. (With
        // ECC Disabled the block fast path has nothing to check either,
        // so both geometries degenerate to this raw read.) A line read
        // raw or clean as a whole is the fill; any other line decodes
        // word by word, so corrections, CheckOnly reports and
        // interrupts keep their order.
        std::uint64_t words[kEccGroupsPerLine];
        std::uint8_t checks[kEccGroupsPerLine];
        memory_.readLine(line_addr, words, checks);
        if (mode_ == EccMode::Disabled ||
            code_.allClean(words, checks, kEccGroupsPerLine)) {
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
                setLineWord(out, i, words[i]);
        } else {
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                std::uint64_t word;
                if (!decodeWord(line_addr + i * kEccGroupSize, false, word))
                    ok = false;
                setLineWord(out, i, word);
            }
        }
    } else {
        // Block geometry: verify the line's EDC fold that rode in with
        // the burst; only an EDC miss pays the long-code decode.
        geomAdd(GeometryStat::DataBytesRead, bank_id, kCacheLineSize);
        geomAdd(GeometryStat::RedundancyBytesRead, bank_id,
                edcFoldBytes(geometry_.edc));
        clock_.advance(kEdcCheckCycles);
        PhysAddr cw = alignDown(line_addr, geometry_.codewordBytes);
        if (storedLineFold(line_addr) == memory_.readEdc(line_addr)) {
            geomAdd(GeometryStat::EdcChecksPassed, bank_id);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::EdcCheckPass,
                               clock_.now(), line_addr, cw, bank_id);
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
                setLineWord(out, i,
                            memory_.readWord(line_addr + i * kEccGroupSize));
        } else {
            geomAdd(GeometryStat::EdcChecksFailed, bank_id);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::EdcCheckFail,
                               clock_.now(), line_addr, cw, bank_id);
            ok = blockDecode(line_addr, false, &out);
        }
    }
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerFill, clock_.now(),
                       line_addr, ok ? 1 : 0, bank_id);
    return ok;
}

void
MemoryController::evictLine(PhysAddr line_addr, const LineData &data)
{
    if (!isAligned(line_addr, kCacheLineSize))
        panic("MemoryController: unaligned eviction address ", line_addr);
    unsigned bank_id = bankOf(line_addr);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "no_traffic_while_locked",
                   !banks_[bank_id].locked_, "cache writeback of line ",
                   line_addr, " while bank ", bank_id, "'s bus is locked");
    if (banks_[bank_id].locked_)
        panic("MemoryController: writeback while memory bus is locked");

    clock_.advance(kDramLineCycles);
    stats_.add(ControllerStat::LineEvictions);
    banks_[bank_id].stats_.add(ControllerStat::LineEvictions);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerEvict, clock_.now(),
                       line_addr, bank_id);

    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        PhysAddr word_addr = line_addr + i * kEccGroupSize;
        std::uint64_t word = lineWord(data, i);
        memory_.writeWord(word_addr, word);
        if (mode_ != EccMode::Disabled)
            memory_.writeCheck(word_addr, static_cast<std::uint8_t>(
                                              code_.encode(word)));
    }

    if (!geometry_.isWord() && mode_ != EccMode::Disabled) {
        // The EDC fold rides with the burst and covers exactly this
        // line, so the writeback computes it from the new data alone.
        // (With ECC Disabled it goes stale alongside the check bytes —
        // the hook the scramble trick relies on.)
        std::uint64_t words[kEccGroupsPerLine];
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
            words[i] = lineWord(data, i);
        memory_.writeEdc(line_addr,
                         edcLineFold(geometry_.edc, words,
                                     kEccGroupsPerLine));
        geomAdd(GeometryStat::DataBytesWritten, bank_id, kCacheLineSize);
        geomAdd(GeometryStat::RedundancyBytesWritten, bank_id,
                edcFoldBytes(geometry_.edc));
        // The long-code ECC spans the whole codeword. A writeback that
        // opens a new codeword pays a full read-modify-write (fetch the
        // old line and redundancy, merge, rewrite); further writebacks
        // into the open codeword fold their update in incrementally —
        // the amortisation sequential streams are built to hit.
        PhysAddr cw = alignDown(line_addr, geometry_.codewordBytes);
        MemoryBank &bank = banks_[bank_id];
        if (bank.openCodeword_ == cw) {
            geomAdd(GeometryStat::OpenCodewordHits, bank_id);
            clock_.advance(kEdcUpdateCycles);
        } else {
            geomAdd(GeometryStat::PartialWriteRmws, bank_id);
            geomAdd(GeometryStat::RedundancyBytesRead, bank_id,
                    kCacheLineSize +
                        blockEccCheckBytes(geometry_.codewordBytes));
            geomAdd(GeometryStat::RedundancyBytesWritten, bank_id,
                    blockEccCheckBytes(geometry_.codewordBytes));
            clock_.advance(kPartialWriteRmwCycles);
            SAFEMEM_TRACE_EMIT(trace_, TraceEvent::PartialWriteRmw,
                               clock_.now(), line_addr, cw, bank_id);
            bank.openCodeword_ = cw;
        }
    }

    if (simCheckActive())
        auditWritebackCoherence(line_addr, data);
}

void
MemoryController::auditWritebackCoherence(PhysAddr line_addr,
                                          const LineData &data) const
{
    // The line the cache just wrote back must read back verbatim and (with
    // ECC on) decode clean — a mismatch means the writeback datapath lost
    // or mangled data, exactly the silent corruption SafeMem exists to
    // catch in applications.
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        PhysAddr word_addr = line_addr + i * kEccGroupSize;
        std::uint64_t stored = memory_.readWord(word_addr);
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "writeback_data_match",
                       stored == lineWord(data, i),
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
MemoryController::auditBankRollup() const
{
    constexpr std::size_t slots =
        sizeof(kControllerStatNames) / sizeof(kControllerStatNames[0]);
    for (std::size_t s = 0; s < slots; ++s) {
        auto stat = static_cast<ControllerStat>(s);
        std::uint64_t sum = 0;
        for (const MemoryBank &bank : banks_)
            sum += bank.stats().get(stat);
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "bank_stat_rollup",
                       sum == stats_.get(stat),
                       "per-bank '", kControllerStatNames[s],
                       "' slots sum to ", sum, " but the machine-wide "
                       "counter reads ", stats_.get(stat));
    }
    constexpr std::size_t geom_slots =
        sizeof(kGeometryStatNames) / sizeof(kGeometryStatNames[0]);
    for (std::size_t s = 0; s < geom_slots; ++s) {
        auto stat = static_cast<GeometryStat>(s);
        std::uint64_t sum = 0;
        for (const MemoryBank &bank : banks_)
            sum += bank.geometryStats().get(stat);
        SIMCHECK_AUDIT(AuditDomain::MemoryController, "bank_stat_rollup",
                       sum == geomStats_.get(stat),
                       "per-bank '", kGeometryStatNames[s],
                       "' geometry slots sum to ", sum,
                       " but the machine-wide counter reads ",
                       geomStats_.get(stat));
    }
}

void
MemoryController::writeWordDeviceOp(PhysAddr word_addr, std::uint64_t value)
{
    memory_.writeWord(word_addr, value);
    if (mode_ != EccMode::Disabled)
        memory_.writeCheck(word_addr, static_cast<std::uint8_t>(
                                          code_.encode(value)));
}

std::uint64_t
MemoryController::peekWord(PhysAddr word_addr) const
{
    return memory_.readWord(word_addr);
}

void
MemoryController::peekLine(PhysAddr line_addr, LineData &out) const
{
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        setLineWord(out, i, memory_.readWord(line_addr + i * kEccGroupSize));
}

void
MemoryController::scrubRange(PhysAddr start_line, std::size_t lines)
{
    // The scrub engine is a bus agent like the cache: while the kernel
    // holds a bank's bus for a scramble, scrub reads of half-written
    // groups would race the scramble exactly like a fill would.
    std::uint64_t span = bankMaskForSpan(start_line, lines * kCacheLineSize);
    for (unsigned b = 0; b < banks_.size(); ++b) {
        if (!(span >> b & 1))
            continue;
        SIMCHECK_AUDIT(AuditDomain::MemoryController,
                       "no_traffic_while_locked", !banks_[b].locked_,
                       "scrub of ", lines, " lines at ", start_line,
                       " while bank ", b, "'s bus is locked");
        if (banks_[b].locked_)
            panic("MemoryController: scrub while memory bus is locked");
    }

    unsigned bank_id = bankOf(start_line);
    stats_.add(ControllerStat::ScrubPasses);
    banks_[bank_id].stats_.add(ControllerStat::ScrubPasses);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerScrubBegin, clock_.now(),
                       start_line, lines, bank_id);
    for (std::size_t l = 0; l < lines; ++l)
        scrubLine(start_line + l * kCacheLineSize);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerScrubEnd, clock_.now(),
                       start_line, lines, bank_id);
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
MemoryController::scrubBank(unsigned id)
{
    MemoryBank &bank = banks_.at(id);
    SIMCHECK_AUDIT(AuditDomain::MemoryController, "no_traffic_while_locked",
                   !bank.locked_, "scrub pass over bank ", id,
                   " while its bus is locked");
    if (bank.locked_)
        panic("MemoryController: scrub while memory bus is locked");

    const std::size_t stride =
        static_cast<std::size_t>(banks_.size()) * kPageSize;
    const PhysAddr first = static_cast<PhysAddr>(id) * kPageSize;
    std::size_t line_count = 0;
    for (PhysAddr page = first; page < memory_.size(); page += stride)
        line_count += kPageSize / kCacheLineSize;

    stats_.add(ControllerStat::ScrubPasses);
    bank.stats_.add(ControllerStat::ScrubPasses);
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerScrubBegin, clock_.now(),
                       first, line_count, id);
    for (PhysAddr page = first; page < memory_.size(); page += stride) {
        bank.scrubCursor_ = page;
        for (std::size_t l = 0; l < kPageSize / kCacheLineSize; ++l)
            scrubLine(page + l * kCacheLineSize);
    }
    bank.scrubCursor_ = first;
    SAFEMEM_TRACE_EMIT(trace_, TraceEvent::ControllerScrubEnd, clock_.now(),
                       first, line_count, id);
}

void
MemoryController::scrubAll()
{
    for (unsigned b = 0; b < banks_.size(); ++b)
        scrubBank(b);
}

} // namespace safemem
