/** @file Unit tests for the memory controller (WPQ/LPQ/ADR, LWR, ATOM). */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "faults/fault_config.hh"
#include "memctrl/mem_ctrl.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

struct McFixture
{
    explicit McFixture(LogScheme scheme = LogScheme::Proteus,
                       unsigned atom_truncation_entries = 64)
    {
        cfg = baselineConfig();
        cfg.logging.scheme = scheme;
        cfg.logging.atomTruncationEntries = atom_truncation_entries;
        mc = std::make_unique<MemCtrl>(sim, cfg, nvm);
        sim.addTicked(mc.get());
    }

    WriteRequest
    dataWrite(Addr addr, std::uint64_t value)
    {
        WriteRequest req;
        req.addr = addr;
        req.kind = WriteKind::Data;
        std::memcpy(req.data.data(), &value, 8);
        return req;
    }

    WriteRequest
    logWrite(Addr log_to, CoreId core, TxId tx, Addr from,
             std::uint64_t seq, std::uint32_t extra_flags = 0)
    {
        LogRecord rec;
        rec.fromAddr = from;
        rec.txId = tx;
        rec.seq = seq;
        rec.flags = LogRecord::flagValid | extra_flags;
        rec.magic = LogRecord::magicValue;
        WriteRequest req;
        req.addr = log_to;
        req.kind = WriteKind::Log;
        req.core = core;
        req.txId = tx;
        req.data = rec.toBytes();
        return req;
    }

    void
    runUntilEmpty(Tick max = 1000000)
    {
        ASSERT_TRUE(sim.runUntil([&]() { return mc->empty(); }, max));
    }

    Simulator sim;
    SystemConfig cfg;
    MemoryImage nvm;
    std::unique_ptr<MemCtrl> mc;
};

} // namespace

TEST(MemCtrl, ReadCompletes)
{
    McFixture f;
    bool done = false;
    f.mc->read(0x1000, [&]() { done = true; });
    f.sim.runUntil([&]() { return done; }, 10000);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->nvmReads(), 1u);
}

TEST(MemCtrl, WriteReachesNvmImage)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x2000, 0xABCD));
    f.runUntilEmpty();
    EXPECT_EQ(f.nvm.read64(0x2000), 0xABCDu);
    EXPECT_EQ(f.mc->nvmWrites(), 1u);
}

TEST(MemCtrl, WpqForwardsToReads)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x3000, 1));
    bool done = false;
    f.mc->read(0x3000, [&]() { done = true; });
    // Forwarding completes in a few cycles without a DRAM read.
    f.sim.run(20);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->nvmReads(), 0u);
}

TEST(MemCtrl, WriteCombiningMergesSameBlock)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x4000, 1));
    f.mc->write(f.dataWrite(0x4000, 2));
    f.runUntilEmpty();
    EXPECT_EQ(f.mc->nvmWrites(), 1u);
    EXPECT_EQ(f.nvm.read64(0x4000), 2u);
}

TEST(MemCtrl, LogWritesGoToLpqAndAreHeld)
{
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    // Proteus holds log entries in the LPQ: no NVM writes yet.
    f.sim.run(5000);
    EXPECT_EQ(f.mc->nvmWrites(), 0u);
    EXPECT_FALSE(f.mc->empty());
}

TEST(MemCtrl, TxEndFlashClearsLogEntries)
{
    McFixture f;
    for (unsigned i = 0; i < 4; ++i) {
        f.mc->write(f.logWrite(0x9000 + i * 64, 0, 7,
                               0x5000 + i * 32, i));
    }
    f.mc->txEnd(0, 7);
    // Three of four dropped; the last is the held tx-end marker.
    EXPECT_EQ(f.mc->droppedLogWrites(), 3u);
}

TEST(MemCtrl, MarkerDroppedBySuccessorTx)
{
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    f.mc->txEnd(0, 7);
    // First log write of tx 8 discards tx 7's held marker.
    f.mc->write(f.logWrite(0x9040, 0, 8, 0x5020, 0));
    f.mc->txEnd(0, 8);
    f.sim.run(2);
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.markersDropped"), 1.0);
    // Transaction 7 never cost an NVM write at all.
    EXPECT_EQ(f.mc->nvmWrites(), 0u);
}

TEST(MemCtrl, NoLwrWritesAllLogEntries)
{
    McFixture f(LogScheme::ProteusNoLWR);
    for (unsigned i = 0; i < 4; ++i) {
        f.mc->write(f.logWrite(0x9000 + i * 64, 0, 7,
                               0x5000 + i * 32, i));
    }
    f.mc->txEnd(0, 7);      // no-op without log write removal
    EXPECT_EQ(f.mc->droppedLogWrites(), 0u);
    f.runUntilEmpty();
    EXPECT_EQ(f.mc->nvmWrites(), 4u);
}

TEST(MemCtrl, LogGranuleDurableTracksAcceptance)
{
    McFixture f;
    EXPECT_FALSE(f.mc->logGranuleDurable(0, 7, 0x5000));
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    EXPECT_TRUE(f.mc->logGranuleDurable(0, 7, 0x5000));
    EXPECT_TRUE(f.mc->logGranuleDurable(0, 7, 0x5010));  // same granule
    EXPECT_FALSE(f.mc->logGranuleDurable(0, 7, 0x5020));
    EXPECT_FALSE(f.mc->logGranuleDurable(1, 7, 0x5000)); // other core
}

TEST(MemCtrl, DrainWatermarkIgnoresLaterWrites)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x2000, 1));
    bool drained = false;
    f.mc->drain([&]() { drained = true; });
    // Writes arriving after the pcommit do not delay it.
    f.mc->write(f.dataWrite(0x2040, 2));
    f.sim.runUntil([&]() { return drained; }, 100000);
    EXPECT_TRUE(drained);
}

TEST(MemCtrl, BatteryDrainAppliesQueuedWrites)
{
    McFixture f;
    f.mc->write(f.dataWrite(0x6000, 0x11));
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    // Nothing has reached the NVM array yet.
    MemoryImage crash = f.nvm;
    f.mc->applyBatteryDrain(crash);
    EXPECT_EQ(crash.read64(0x6000), 0x11u);
    std::uint8_t bytes[logEntrySize];
    crash.read(0x9000, bytes, sizeof(bytes));
    EXPECT_TRUE(LogRecord::fromBytes(bytes).valid());
}

TEST(MemCtrl, AtomLogAllocatesSlotsAndAcks)
{
    McFixture f(LogScheme::ATOM);
    f.mc->bindAtomLogArea(0, 0xA0000, 0xA0000 + 64 * logEntrySize);
    LogRecord rec;
    rec.fromAddr = 0x5000;
    rec.txId = 3;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    EXPECT_TRUE(f.mc->atomLog(0, 3, rec));
    EXPECT_TRUE(f.mc->logGranuleDurable(0, 3, 0x5000));
    f.runUntilEmpty();
    // Entry written beyond the commit-record block.
    std::uint8_t bytes[logEntrySize];
    f.nvm.read(0xA0000 + logEntrySize, bytes, sizeof(bytes));
    EXPECT_TRUE(LogRecord::fromBytes(bytes).valid());
}

TEST(MemCtrl, AtomCommitRecordWritten)
{
    McFixture f(LogScheme::ATOM);
    f.mc->bindAtomLogArea(0, 0xA0000, 0xA0000 + 64 * logEntrySize);
    EXPECT_TRUE(f.mc->atomTxCommit(0, 42));
    f.runUntilEmpty();
    EXPECT_EQ(f.nvm.read64(0xA0000), 42u);
}

TEST(MemCtrl, AtomTruncationBeyondResourcesSearches)
{
    McFixture f(LogScheme::ATOM, 2);
    f.mc->bindAtomLogArea(0, 0xA0000, 0xA0000 + 64 * logEntrySize);

    LogRecord rec;
    rec.fromAddr = 0x5000;
    rec.txId = 3;
    rec.flags = LogRecord::flagValid;
    rec.magic = LogRecord::magicValue;
    for (unsigned i = 0; i < 5; ++i) {
        rec.seq = i;
        ASSERT_TRUE(f.mc->atomLog(0, 3, rec));
    }
    bool done = false;
    f.mc->atomTxEnd(0, 3, [&]() { done = true; });
    f.sim.runUntil([&]() { return done; }, 1000000);
    EXPECT_TRUE(done);
    // Three untracked entries needed a search read + invalidation.
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.atomSearchReads"), 3.0);
    EXPECT_DOUBLE_EQ(
        f.sim.statsRegistry().lookup("mc.atomInvalidationWrites"), 3.0);
}

TEST(MemCtrl, FullQueuePanicsAndCanAcceptGuards)
{
    McFixture f;
    unsigned accepted = 0;
    while (f.mc->canAcceptWrite(WriteKind::Data)) {
        f.mc->write(f.dataWrite(0x100000 + accepted * 64, accepted));
        ++accepted;
    }
    EXPECT_EQ(accepted, f.cfg.memCtrl.wpqEntries);
    EXPECT_THROW(f.mc->write(f.dataWrite(0x9990000, 1)), PanicError);
}

TEST(MemCtrl, UnalignedWritePanics)
{
    McFixture f;
    EXPECT_THROW(f.mc->write(f.dataWrite(0x1001, 1)), PanicError);
}

TEST(MemCtrl, FlushCoreLogsDrains)
{
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    bool done = false;
    f.mc->flushCoreLogs(0, [&]() { done = true; });
    f.sim.runUntil([&]() { return done; }, 1000000);
    EXPECT_TRUE(done);
    EXPECT_EQ(f.mc->nvmWrites(), 1u);   // forced to NVM
}

TEST(MemCtrl, FullReadQueuePanicsAndCanAcceptGuards)
{
    McFixture f;
    unsigned accepted = 0;
    while (f.mc->canAcceptRead()) {
        // Distinct unwritten blocks: no WPQ forwarding, all queue.
        f.mc->read(0x200000 + accepted * 64, []() {});
        ++accepted;
    }
    EXPECT_EQ(accepted, f.cfg.memCtrl.readQueueEntries);
    EXPECT_THROW(f.mc->read(0x9990000, []() {}), PanicError);
    // The queue drains normally afterwards and frees its slots.
    f.runUntilEmpty();
    EXPECT_TRUE(f.mc->canAcceptRead());
}

TEST(MemCtrl, TxEndMarkerPatchesInflightLogWrite)
{
    // Regression: tx-end arrives when (a) the transaction's last log
    // entry has already left the LPQ but its array write is still in
    // flight, and (b) the LPQ is full so no marker entry can queue. The
    // fallback must patch the in-flight payload — writing the NVM slot
    // directly would be overwritten by the stale (no tx-end) completion.
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    bool flushed = false;
    f.mc->flushCoreLogs(0, [&]() { flushed = true; });
    ASSERT_TRUE(f.sim.runUntil([&]() { return f.mc->nvmWrites() == 1; },
                               100000));
    ASSERT_FALSE(flushed);      // issued to the array, not yet persisted

    // Fill the LPQ from another core so canAcceptWrite(Log) is false.
    unsigned filled = 0;
    while (f.mc->canAcceptWrite(WriteKind::Log)) {
        f.mc->write(f.logWrite(0xA0000 + filled * 64, 1, 99,
                               0x7000 + filled * 32, filled));
        ++filled;
    }
    ASSERT_GT(filled, 0u);

    f.mc->txEnd(0, 7);
    EXPECT_DOUBLE_EQ(f.sim.statsRegistry().lookup("mc.markerWrites"),
                     1.0);

    ASSERT_TRUE(f.sim.runUntil([&]() { return flushed; }, 1000000));
    std::uint8_t bytes[logEntrySize];
    f.nvm.read(0x9000, bytes, sizeof(bytes));
    const LogRecord rec = LogRecord::fromBytes(bytes);
    ASSERT_TRUE(rec.valid());
    EXPECT_TRUE(rec.committed());   // the completion carried the marker
    EXPECT_EQ(rec.txId, 7u);
}

TEST(MemCtrl, TxEndMarkerDirectWriteWhenEntryAlreadyPersisted)
{
    // Same LPQ-full fallback, but the entry's write has fully completed:
    // with nothing in flight for the slot the marker is applied to the
    // array directly.
    McFixture f;
    f.mc->write(f.logWrite(0x9000, 0, 7, 0x5000, 0));
    bool flushed = false;
    f.mc->flushCoreLogs(0, [&]() { flushed = true; });
    ASSERT_TRUE(f.sim.runUntil([&]() { return flushed; }, 1000000));

    unsigned filled = 0;
    while (f.mc->canAcceptWrite(WriteKind::Log)) {
        f.mc->write(f.logWrite(0xA0000 + filled * 64, 1, 99,
                               0x7000 + filled * 32, filled));
        ++filled;
    }
    f.mc->txEnd(0, 7);

    std::uint8_t bytes[logEntrySize];
    f.nvm.read(0x9000, bytes, sizeof(bytes));
    const LogRecord rec = LogRecord::fromBytes(bytes);
    ASSERT_TRUE(rec.valid());
    EXPECT_TRUE(rec.committed());
    EXPECT_EQ(rec.txId, 7u);
}

TEST(MemCtrl, FlashClearWhileFaultedLogWriteInFlight)
{
    // LWR flash-clear racing a media fault: the transaction's first log
    // entry is mid-flight to the array (and will tear on completion)
    // when tx-end flash-clears the LPQ-resident rest. The torn line
    // must be poisoned, the drops counted, and the controller must
    // still drain cleanly.
    Simulator sim;
    SystemConfig cfg = baselineConfig();
    cfg.logging.scheme = LogScheme::Proteus;
    cfg.faults =
        faults::parseFaultSpec("torn=1,detect=8,correct=1,seed=3");
    MemoryImage nvm;
    MemCtrl mc(sim, cfg, nvm);
    sim.addTicked(&mc);

    auto logWrite = [](Addr to, std::uint64_t seq) {
        LogRecord rec;
        rec.fromAddr = 0x5000 + seq * logDataSize;
        rec.txId = 7;
        rec.seq = seq;
        rec.flags = LogRecord::flagValid;
        rec.magic = LogRecord::magicValue;
        WriteRequest req;
        req.addr = to;
        req.kind = WriteKind::Log;
        req.core = 0;
        req.txId = 7;
        req.data = rec.toBytes();
        return req;
    };

    mc.write(logWrite(0x9000, 0));
    bool flushed = false;
    mc.flushCoreLogs(0, [&]() { flushed = true; });
    ASSERT_TRUE(sim.runUntil([&]() { return mc.nvmWrites() == 1; },
                             100000));
    ASSERT_FALSE(flushed);      // entry 0 in flight, about to tear

    for (std::uint64_t seq = 1; seq <= 3; ++seq)
        mc.write(logWrite(0x9000 + seq * 64, seq));
    mc.txEnd(0, 7);     // drops seq 1..2, holds seq 3 as the marker
    EXPECT_EQ(mc.droppedLogWrites(), 2u);

    bool drained = false;
    mc.flushCoreLogs(0, [&]() { drained = true; });
    ASSERT_TRUE(sim.runUntil(
        [&]() { return drained && mc.empty(); }, 1000000));

    // Both array writes (entry 0, marker) tore and were ECC-detected.
    EXPECT_DOUBLE_EQ(sim.statsRegistry().lookup("faults.tornWrites"),
                     2.0);
    EXPECT_TRUE(nvm.isPoisoned(0x9000));
    EXPECT_TRUE(nvm.isPoisoned(0x90C0));
    EXPECT_EQ(mc.nvmWrites(), 2u);
}

namespace {

/** Records the tick each block's array write issued at. */
struct IssueLog : EventSubscriber
{
    void
    on(const MachineEvent &ev) override
    {
        if (ev.kind == EventKind::NvmIssue)
            at[ev.addr] = ev.at;
    }

    bool issued(Addr addr) const { return at.count(addr) > 0; }

    std::map<Addr, Tick> at;
};

/** A controller whose array issues are logged, plus helpers that place
 *  blocks on chosen banks and step the machine one tick at a time. */
struct ArbiterFixture : McFixture
{
    explicit ArbiterFixture(LogScheme scheme = LogScheme::Proteus)
        : McFixture(scheme)
    {
        events.subscribe(log);
        mc->setEventStream(&events);
    }

    /** The @p nth block (from 0) at or above @p base on @p bank. */
    Addr
    onBank(unsigned bank, unsigned nth, Addr base = 0x100000) const
    {
        const NvmTiming &dram = mc->dram();
        for (Addr a = base;; a += blockSize) {
            if (dram.bankIndex(a) == bank && nth-- == 0)
                return a;
        }
    }

    Tick
    readyAt(Addr addr) const
    {
        return mc->dram().bankReadyAt(mc->dram().locate(addr));
    }

    /** Tick until @p addr's write issues; @return its issue tick. */
    Tick
    runUntilIssued(Addr addr, Tick max = 100000)
    {
        EXPECT_TRUE(sim.runUntil([&]() { return log.issued(addr); }, max));
        return log.issued(addr) ? log.at.at(addr) : maxTick;
    }

    EventStream events;
    IssueLog log;
};

} // namespace

TEST(MemCtrlArbiter, BlockedWriteIssuesOnItsBanksReadyTick)
{
    // The first write opens bank 3's row and keeps the bank busy; the
    // second (a row hit behind it) fails every pick until the bank
    // frees, and must issue on exactly that tick, no later.
    ArbiterFixture f;
    const Addr a = f.onBank(3, 0);
    const Addr b = a + blockSize;
    ASSERT_EQ(f.mc->dram().bankIndex(b), 3u);
    f.mc->write(f.dataWrite(a, 1));
    f.mc->write(f.dataWrite(b, 2));
    f.mc->drain({});    // lets the row-miss write issue at once
    f.runUntilIssued(a);
    const Tick ready = f.readyAt(a);
    ASSERT_GT(ready, f.sim.now() + 1);
    EXPECT_EQ(f.runUntilIssued(b), ready);
}

TEST(MemCtrlArbiter, WriteToIdleBankBypassesArmedMemo)
{
    // While every queued write waits on busy bank 3 (the memo is
    // armed), a write to idle bank 5 is accepted: the push must clear
    // the memo so it issues on the very next tick.
    ArbiterFixture f;
    const Addr a = f.onBank(3, 0);
    const Addr b = a + blockSize;
    f.mc->write(f.dataWrite(a, 1));
    f.mc->write(f.dataWrite(b, 2));
    f.mc->drain({});
    f.runUntilIssued(a);
    const Tick ready = f.readyAt(a);
    f.sim.run(4);       // several failed picks: the memo is armed
    ASSERT_FALSE(f.log.issued(b));
    ASSERT_LT(f.sim.now() + 1, ready);

    const Addr c = f.onBank(5, 0);
    f.mc->drain({});    // c is a row miss too
    f.mc->write(f.dataWrite(c, 3));
    const Tick accepted = f.sim.now();
    EXPECT_EQ(f.runUntilIssued(c), accepted);
    EXPECT_EQ(f.runUntilIssued(b), ready);
}

TEST(MemCtrlArbiter, PickRescansAfterIssue)
{
    // Three row hits queue behind one busy bank. Each issue re-arms the
    // memo from the bank's new ready tick, so each write issues exactly
    // when the bank frees after its predecessor.
    ArbiterFixture f;
    const Addr a = f.onBank(3, 0);
    f.mc->write(f.dataWrite(a, 1));
    for (unsigned i = 1; i <= 3; ++i)
        f.mc->write(f.dataWrite(a + i * blockSize, i + 1));
    f.mc->drain({});
    f.runUntilIssued(a);
    for (unsigned i = 1; i <= 3; ++i) {
        const Addr prev = a + (i - 1) * blockSize;
        const Tick ready = f.readyAt(prev);
        EXPECT_EQ(f.runUntilIssued(a + i * blockSize), ready) << i;
    }
}

TEST(MemCtrlArbiter, PickRescansAfterFlashClear)
{
    // Sixty-four LPQ entries of one transaction sit on busy bank 3 and
    // fill the arbiter's scan window; entry 65 is on idle bank 5. The
    // memo is armed until bank 3 frees. Tx-end flash-clears all but
    // the marker, which moves entry 65 into the window: the next pick
    // must see it instead of trusting the memo.
    ArbiterFixture f;
    f.mc->write(f.dataWrite(f.onBank(3, 0), 1));    // opens bank 3
    for (unsigned i = 0; i < 64; ++i) {
        f.mc->write(f.logWrite(f.onBank(3, i, 0x900000), 1, 5,
                               0x5000 + i * logDataSize, i));
    }
    const Addr e = f.onBank(5, 0, 0x900000);
    f.mc->write(f.logWrite(e, 2, 9, 0x8000, 0));
    f.mc->drain({});    // pressure: the LPQ drains, conflicts allowed
    f.sim.run(3);       // bank 3 write issues, then LPQ picks fail
    const Tick ready = f.readyAt(f.onBank(3, 0));
    ASSERT_LT(f.sim.now() + 1, ready);
    ASSERT_FALSE(f.log.issued(e));

    f.mc->txEnd(1, 5);
    EXPECT_EQ(f.mc->droppedLogWrites(), 63u);
    const Tick cleared = f.sim.now();
    EXPECT_EQ(f.runUntilIssued(e), cleared);
}

TEST(MemCtrlArbiter, NextWakeWithArmedMemoMatchesScan)
{
    // Two writes wait on banks 3 and 7, each busy behind an earlier
    // write. While the memo is armed, the quiescence hint must be what
    // a scan of the queue gives: the earliest of the two ready ticks
    // (the aged-write threshold is much later).
    ArbiterFixture f;
    const Addr a = f.onBank(3, 0);
    const Addr c = f.onBank(7, 0);
    f.mc->write(f.dataWrite(a, 1));
    f.mc->write(f.dataWrite(c, 2));
    f.mc->write(f.dataWrite(a + blockSize, 3));
    f.mc->write(f.dataWrite(c + blockSize, 4));
    f.mc->drain({});
    f.runUntilIssued(a);
    f.runUntilIssued(c);

    const Tick first = std::min(f.readyAt(a), f.readyAt(c));
    f.sim.run(1);       // a failed pick arms the memo
    unsigned checked = 0;
    while (f.sim.now() < first) {
        const Tick now = f.sim.now();
        Tick scan = maxTick;
        for (Addr queued : {a + blockSize, c + blockSize}) {
            if (f.readyAt(queued) >= now)
                scan = std::min(scan, f.readyAt(queued));
        }
        ASSERT_EQ(f.mc->nextWake(now), scan) << now;
        f.sim.run(1);
        ++checked;
    }
    EXPECT_GT(checked, 10u);
}
