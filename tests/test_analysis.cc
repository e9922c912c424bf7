/**
 * @file
 * Tests for the persistency-order checker (src/analysis): the per-rule
 * detection logic against synthetic event feeds, the per-scheme arming
 * table, determinism of the full-machine verdict (byte-identical JSON
 * at any --jobs level and with cycle skipping on or off), and the
 * mutation campaign proving every armed rule catches its own injected
 * violation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/persist_checker.hh"
#include "analysis/rules.hh"
#include "harness/check_runner.hh"
#include "obs/tx_stats_io.hh"

namespace proteus {
namespace {

using analysis::PersistChecker;
using analysis::Rule;

// ---------------------------------------------------------------------
// Arming table
// ---------------------------------------------------------------------

TEST(AnalysisRules, NamesAreStableAndKebabCase)
{
    EXPECT_STREQ("log-before-data", toString(Rule::LogBeforeData));
    EXPECT_STREQ("entries-before-txend",
                 toString(Rule::EntriesBeforeTxEnd));
    EXPECT_STREQ("flashclear-after-commit",
                 toString(Rule::FlashClearAfterCommit));
    EXPECT_STREQ("fifo-per-address", toString(Rule::FifoPerAddress));
    EXPECT_STREQ("durable-by-commit", toString(Rule::DurableByCommit));
    EXPECT_STREQ("lock-discipline", toString(Rule::LockDiscipline));
}

TEST(AnalysisRules, ArmingTablePerScheme)
{
    const auto armed = [](LogScheme s, bool history) {
        return analysis::rulesForScheme(
            s, /*adr=*/s != LogScheme::PMEMPCommit, history);
    };
    const auto idx = [](Rule r) { return static_cast<unsigned>(r); };

    // Proteus arms everything (the mutation campaign relies on it).
    const auto proteus = armed(LogScheme::Proteus, true);
    for (unsigned r = 0; r < analysis::numRules; ++r)
        EXPECT_TRUE(proteus[r]) << "rule " << r;

    // Only Proteus's LWR path flash-clears the LPQ.
    EXPECT_FALSE(armed(LogScheme::ProteusNoLWR,
                       true)[idx(Rule::FlashClearAfterCommit)]);
    EXPECT_FALSE(armed(LogScheme::ATOM,
                       true)[idx(Rule::FlashClearAfterCommit)]);

    // Software schemes need the write history to classify stores.
    EXPECT_TRUE(armed(LogScheme::PMEM, true)[idx(Rule::LogBeforeData)]);
    EXPECT_FALSE(
        armed(LogScheme::PMEM, false)[idx(Rule::LogBeforeData)]);
    // No log, nothing to order against data.
    EXPECT_FALSE(
        armed(LogScheme::PMEMNoLog, true)[idx(Rule::LogBeforeData)]);
    EXPECT_FALSE(armed(LogScheme::PMEMNoLog,
                       true)[idx(Rule::EntriesBeforeTxEnd)]);

    // The MC-stream and lock rules are scheme-independent.
    for (LogScheme s :
         {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::PMEMNoLog,
          LogScheme::ATOM, LogScheme::Proteus,
          LogScheme::ProteusNoLWR}) {
        EXPECT_TRUE(armed(s, false)[idx(Rule::FifoPerAddress)]);
        EXPECT_TRUE(armed(s, false)[idx(Rule::DurableByCommit)]);
        EXPECT_TRUE(armed(s, false)[idx(Rule::LockDiscipline)]);
    }
}

// ---------------------------------------------------------------------
// Per-rule detection on synthetic event feeds
// ---------------------------------------------------------------------

/** A Proteus checker (every rule armed, ADR semantics). */
PersistChecker
makeChecker()
{
    return PersistChecker(LogScheme::Proteus, /*adr=*/true,
                          "synthetic");
}

std::uint64_t
ruleViolations(const PersistChecker &c, Rule r)
{
    return c.outcome().rules[static_cast<unsigned>(r)].violations;
}

TEST(AnalysisRules, LogBeforeDataFiresWithoutCoverage)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
          .addr = 0x1000, .seq = 7, .size = 8, .persistent = true});
    c.on({.kind = EventKind::StoreRelease, .core = 0, .tx = 1, .at = 12,
          .addr = 0x1000, .seq = 7, .size = 8});
    // A data write covering the granule is accepted at the MC while
    // the transaction is in flight and no log entry is durable.
    c.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 13,
          .addr = 0x1000, .seq = 1});
    EXPECT_EQ(1u, ruleViolations(c, Rule::LogBeforeData));
    EXPECT_FALSE(c.outcome().pass());
    EXPECT_EQ("synthetic", c.outcome().repro);
}

TEST(AnalysisRules, LogBeforeDataPassesWithDurableEntry)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
          .addr = 0x1000, .seq = 7, .size = 8, .persistent = true});
    c.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 12,
          .addr = 0x9000, .granule = logAlign(0x1000), .seq = 1, .lpq = true,
          .log = true});
    c.on({.kind = EventKind::StoreRelease, .core = 0, .tx = 1, .at = 13,
          .addr = 0x1000, .seq = 7, .size = 8});
    c.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 14,
          .addr = 0x1000, .seq = 1});
    EXPECT_EQ(0u, ruleViolations(c, Rule::LogBeforeData));
    // The rule was exercised, not vacuously skipped.
    EXPECT_GT(c.outcome()
                  .rules[static_cast<unsigned>(Rule::LogBeforeData)]
                  .checks,
              0u);
}

TEST(AnalysisRules, EntriesBeforeTxEndFiresOnMissingAck)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::LogCreate, .core = 0, .tx = 1, .at = 11});
    c.on({.kind = EventKind::LogCreate, .core = 0, .tx = 1, .at = 12});
    c.on({.kind = EventKind::LogAck, .core = 0, .tx = 1, .at = 13,
          .since = 11});
    // one record still un-acked
    c.on({.kind = EventKind::DurablePoint, .core = 0, .tx = 1, .at = 14});
    EXPECT_EQ(1u, ruleViolations(c, Rule::EntriesBeforeTxEnd));

    PersistChecker ok = makeChecker();
    ok.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    ok.on({.kind = EventKind::LogCreate, .core = 0, .tx = 1, .at = 11});
    ok.on({.kind = EventKind::LogAck, .core = 0, .tx = 1, .at = 12,
           .since = 11});
    ok.on({.kind = EventKind::DurablePoint, .core = 0, .tx = 1, .at = 13});
    EXPECT_EQ(0u, ruleViolations(ok, Rule::EntriesBeforeTxEnd));
}

TEST(AnalysisRules, FlashClearBeforeDurableCommitFires)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::FlashClear, .core = 0, .tx = 1, .at = 11,
          .count = 3});  // before the durable point
    c.on({.kind = EventKind::DurablePoint, .core = 0, .tx = 1, .at = 12});
    c.on({.kind = EventKind::FlashClear, .core = 0, .tx = 1, .at = 13,
          .count = 3});  // after: fine
    c.on({.kind = EventKind::TxEndMarker, .core = 0, .tx = 1, .at = 14,
          .op = MarkerOp::Held});
    EXPECT_EQ(1u, ruleViolations(c, Rule::FlashClearAfterCommit));
}

TEST(AnalysisRules, FifoPerAddressFiresOnReorder)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::NvmIssue, .at = 10, .addr = 0x2000, .seq = 5});
    // duplicate/reorder
    c.on({.kind = EventKind::NvmIssue, .at = 11, .addr = 0x2000, .seq = 5});
    EXPECT_EQ(1u, ruleViolations(c, Rule::FifoPerAddress));

    PersistChecker ok = makeChecker();
    ok.on({.kind = EventKind::NvmIssue, .at = 10, .addr = 0x2000, .seq = 5});
    // other block: own order
    ok.on({.kind = EventKind::NvmIssue, .at = 11, .addr = 0x2040, .seq = 3});
    ok.on({.kind = EventKind::NvmIssue, .at = 12, .addr = 0x2000, .seq = 3,
           .lpq = true});  // other queue: own order
    ok.on({.kind = EventKind::NvmIssue, .at = 13, .addr = 0x2000, .seq = 6});
    ok.on({.kind = EventKind::NvmPersist, .at = 14, .addr = 0x2000, .seq = 5});
    ok.on({.kind = EventKind::NvmPersist, .at = 15, .addr = 0x2000, .seq = 6});
    EXPECT_EQ(0u, ruleViolations(ok, Rule::FifoPerAddress));
}

TEST(AnalysisRules, DurableByCommitFiresOnMissingAcceptance)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
          .addr = 0x3000, .seq = 9, .size = 8, .persistent = true});
    // no MC acceptance of the block
    c.on({.kind = EventKind::DurablePoint, .core = 0, .tx = 1, .at = 12});
    EXPECT_EQ(1u, ruleViolations(c, Rule::DurableByCommit));

    PersistChecker ok = makeChecker();
    ok.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    ok.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
           .addr = 0x3000, .seq = 9, .size = 8, .persistent = true});
    ok.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 12,
           .addr = 0x9000, .granule = logAlign(0x3000), .seq = 1, .lpq = true,
           .log = true});
    ok.on({.kind = EventKind::StoreRelease, .core = 0, .tx = 1, .at = 13,
           .addr = 0x3000, .seq = 9, .size = 8});
    ok.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 14,
           .addr = 0x3000, .seq = 1});
    ok.on({.kind = EventKind::DurablePoint, .core = 0, .tx = 1, .at = 15});
    EXPECT_EQ(0u, ruleViolations(ok, Rule::DurableByCommit));
}

TEST(AnalysisRules, LockDisciplineFiresOnUnlockedCrossCoreWrite)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::TxBegin, .core = 1, .tx = 2, .at = 10});
    c.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
          .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    // no locks at all
    c.on({.kind = EventKind::StoreRetire, .core = 1, .tx = 2, .at = 12,
          .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    EXPECT_EQ(1u, ruleViolations(c, Rule::LockDiscipline));

    PersistChecker ok = makeChecker();
    ok.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    ok.on({.kind = EventKind::TxBegin, .core = 1, .tx = 2, .at = 10});
    ok.on({.kind = EventKind::LockGrant, .core = 0, .tx = 1, .at = 10,
           .addr = 0x8000});
    ok.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
           .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    ok.on({.kind = EventKind::LockRelease, .core = 0, .at = 12,
           .addr = 0x8000});
    ok.on({.kind = EventKind::LockGrant, .core = 1, .tx = 2, .at = 13,
           .addr = 0x8000});
    // same lock held
    ok.on({.kind = EventKind::StoreRetire, .core = 1, .tx = 2, .at = 14,
           .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    EXPECT_EQ(0u, ruleViolations(ok, Rule::LockDiscipline));
}

TEST(AnalysisRules, LockDisciplineAcceptsCommitOrderedHandoff)
{
    // Disjoint locksets are fine when the first writer's transaction
    // committed before the second began: the serialization order is
    // the happens-before edge (node freed in tx 1, re-allocated and
    // rewritten in tx 2 under a different lock).
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::LockGrant, .core = 0, .tx = 1, .at = 10,
          .addr = 0x8000});
    c.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
          .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    c.on({.kind = EventKind::LockRelease, .core = 0, .at = 12,
          .addr = 0x8000});
    c.on({.kind = EventKind::TxCommit, .core = 0, .tx = 1, .at = 13});
    c.on({.kind = EventKind::TxBegin, .core = 1, .tx = 2, .at = 20});
    c.on({.kind = EventKind::LockGrant, .core = 1, .tx = 2, .at = 20,
          .addr = 0x9000});  // different lock
    c.on({.kind = EventKind::StoreRetire, .core = 1, .tx = 2, .at = 21,
          .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    EXPECT_EQ(0u, ruleViolations(c, Rule::LockDiscipline));
    EXPECT_EQ(1u, c.outcome().rules[
        static_cast<unsigned>(Rule::LockDiscipline)].checks);

    // Overlap kills the excuse: same hand-off, but the second tx
    // began before the first committed.
    PersistChecker bad = makeChecker();
    bad.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    // overlaps tx 1
    bad.on({.kind = EventKind::TxBegin, .core = 1, .tx = 2, .at = 11});
    bad.on({.kind = EventKind::LockGrant, .core = 0, .tx = 1, .at = 10,
            .addr = 0x8000});
    bad.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 12,
            .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    bad.on({.kind = EventKind::LockRelease, .core = 0, .at = 13,
            .addr = 0x8000});
    bad.on({.kind = EventKind::TxCommit, .core = 0, .tx = 1, .at = 14});
    bad.on({.kind = EventKind::LockGrant, .core = 1, .tx = 2, .at = 15,
            .addr = 0x9000});
    bad.on({.kind = EventKind::StoreRetire, .core = 1, .tx = 2, .at = 16,
            .addr = 0x4000, .seq = 1, .size = 8, .persistent = true});
    EXPECT_EQ(1u, ruleViolations(bad, Rule::LockDiscipline));
}

TEST(AnalysisRules, CommitPrunesWriterState)
{
    PersistChecker c = makeChecker();
    c.on({.kind = EventKind::TxBegin, .core = 0, .tx = 1, .at = 10});
    c.on({.kind = EventKind::StoreRetire, .core = 0, .tx = 1, .at = 11,
          .addr = 0x5000, .seq = 1, .size = 8, .persistent = true});
    c.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 12,
          .addr = 0x9000, .granule = logAlign(0x5000), .seq = 1, .lpq = true,
          .log = true});
    c.on({.kind = EventKind::StoreRelease, .core = 0, .tx = 1, .at = 13,
          .addr = 0x5000, .seq = 1, .size = 8});
    c.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 1, .at = 14,
          .addr = 0x5000, .seq = 1});
    c.on({.kind = EventKind::DurablePoint, .core = 0, .tx = 1, .at = 15});
    c.on({.kind = EventKind::TxCommit, .core = 0, .tx = 1, .at = 16});
    // A later unrelated acceptance of the same granule must not charge
    // the committed transaction.
    c.on({.kind = EventKind::WriteAccept, .core = 0, .tx = 0, .at = 20,
          .addr = 0x5000, .seq = 2});
    EXPECT_EQ(0u, c.outcome().totalViolations);
}

TEST(AnalysisRules, ViolationReportsAreCapped)
{
    PersistChecker c = makeChecker();
    for (unsigned i = 0; i < 2 * analysis::reportCap; ++i) {
        const Addr block = 0x10000 + Addr{i} * blockSize;
        c.on({.kind = EventKind::NvmIssue, .at = 10, .addr = block, .seq = 5});
        c.on({.kind = EventKind::NvmIssue, .at = 11, .addr = block, .seq = 5});
    }
    const analysis::CheckOutcome out = c.outcome();
    EXPECT_EQ(2 * analysis::reportCap, out.totalViolations);
    EXPECT_EQ(analysis::reportCap, out.violations.size());
}

// ---------------------------------------------------------------------
// Full-machine determinism and the mutation campaign (e2e tier)
// ---------------------------------------------------------------------

BenchOptions
checkOpts()
{
    BenchOptions opts;
    opts.spec.scale = 1600;      // small but exercises every protocol path
    opts.spec.initScale = 100;
    opts.spec.threads = 2;
    opts.spec.seed = 1;
    return opts;
}

std::vector<LogScheme>
allSchemes()
{
    return {LogScheme::PMEM,      LogScheme::PMEMPCommit,
            LogScheme::PMEMNoLog, LogScheme::ATOM,
            LogScheme::Proteus,   LogScheme::ProteusNoLWR};
}

TEST(AnalysisDeterminism, CleanMachinePassesAllSchemesAndWorkloads)
{
    BenchOptions opts = checkOpts();
    const auto rows = runCheckBatch(
        allSchemes(), {WorkloadKind::Queue, WorkloadKind::HashMap},
        opts);
    ASSERT_EQ(12u, rows.size());
    for (const CheckRow &row : rows) {
        EXPECT_TRUE(row.outcome.pass())
            << formatCheckReport(row);
        EXPECT_TRUE(row.run.finished);
        EXPECT_GT(row.outcome.eventsSeen, 0u);
        // Armed rules really evaluated (not vacuously passing).
        // FifoPerAddress and LockDiscipline count only same-block
        // re-issues / cross-core rewrites, which a small run may not
        // produce — the mutation campaign proves those fire.
        for (unsigned r = 0; r < analysis::numRules; ++r) {
            if (!row.outcome.armed[r] ||
                r == static_cast<unsigned>(Rule::LockDiscipline) ||
                r == static_cast<unsigned>(Rule::FifoPerAddress))
                continue;
            EXPECT_GT(row.outcome.rules[r].checks, 0u)
                << toString(row.scheme) << " rule " << r;
        }
    }
}

TEST(AnalysisDeterminism, JsonByteIdenticalAcrossJobs)
{
    BenchOptions opts = checkOpts();
    opts.jobs = 1;
    const std::string json1 =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    opts.jobs = 4;
    const std::string json4 =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    EXPECT_EQ(json1, json4);
}

TEST(AnalysisDeterminism, JsonByteIdenticalAcrossCycleSkip)
{
    BenchOptions opts = checkOpts();
    opts.jobs = 1;
    opts.cycleSkip = true;
    const std::string skip =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    opts.cycleSkip = false;
    const std::string noskip =
        checkRowsJson(runCheckBatch(allSchemes(),
                                    {WorkloadKind::Queue}, opts));
    EXPECT_EQ(skip, noskip);
}

TEST(EventStream, SubscribersMatchTheirSoloRuns)
{
    // The tracker and the checker share one event stream; neither may
    // see (or perturb) anything the other's presence changes. One
    // workload per scheme, cycle skipping on and off.
    const std::pair<LogScheme, WorkloadKind> cells[] = {
        {LogScheme::PMEM, WorkloadKind::Queue},
        {LogScheme::PMEMPCommit, WorkloadKind::HashMap},
        {LogScheme::PMEMNoLog, WorkloadKind::StringSwap},
        {LogScheme::ATOM, WorkloadKind::AvlTree},
        {LogScheme::Proteus, WorkloadKind::BTree},
        {LogScheme::ProteusNoLWR, WorkloadKind::RbTree},
    };
    for (const bool skip : {true, false}) {
        for (const auto &[scheme, kind] : cells) {
            BenchOptions opts = checkOpts();
            opts.cycleSkip = skip;
            const RunSpec spec = opts.spec.with(scheme, kind);
            const auto txJson = [&spec](const RunResult &r) {
                std::ostringstream os;
                obs::writeTxStatsJson(os, {makeTxStatsRow(spec, r)});
                return os.str();
            };
            const auto checkJson = [&spec](const RunResult &r) {
                return checkRowsJson(
                    {CheckRow{spec.scheme, spec.kind, r, *r.check}});
            };

            opts.txTrack = true;
            const RunResult tracked = runExperiment(spec, opts);
            opts.check = true;
            const RunResult both = runExperiment(spec, opts);
            opts.txTrack = false;
            const RunResult checked = runExperiment(spec, opts);
            ASSERT_TRUE(tracked.txStats && both.txStats && both.check &&
                        checked.check);
            EXPECT_FALSE(tracked.check);
            EXPECT_FALSE(checked.txStats);
            EXPECT_GT(tracked.txStats->committedTxs, 0u);
            EXPECT_GT(checked.check->eventsSeen, 0u);

            const std::string where = std::string(toString(scheme)) +
                                      " / " + toString(kind) +
                                      (skip ? " skip" : " no-skip");
            EXPECT_EQ(txJson(tracked), txJson(both)) << where;
            EXPECT_EQ(checkJson(checked), checkJson(both)) << where;
        }
    }
}

TEST(AnalysisMutation, EveryArmedRuleFiresOnProteus)
{
    // Proteus arms all six rules, so one campaign covers the full set.
    BenchOptions opts = checkOpts();
    const auto rows = runMutationCampaign(
        opts.spec.with(LogScheme::Proteus, WorkloadKind::Queue), opts,
        /*mutate_seed=*/1);
    ASSERT_EQ(analysis::numRules, rows.size());
    for (const MutationRow &row : rows) {
        EXPECT_GT(row.mutations, 0u)
            << "mutator never perturbed an edge for "
            << toString(row.rule);
        EXPECT_TRUE(row.fired)
            << "rule " << toString(row.rule)
            << " missed its injected violation";
    }
    EXPECT_TRUE(allFired(rows));
}

TEST(AnalysisMutation, SoftwareSchemeCampaignFires)
{
    BenchOptions opts = checkOpts();
    const auto rows = runMutationCampaign(
        opts.spec.with(LogScheme::PMEM, WorkloadKind::Queue), opts,
        /*mutate_seed=*/2);
    ASSERT_EQ(4u, rows.size());     // no marker/LPQ rules under PMEM
    for (const MutationRow &row : rows)
        EXPECT_TRUE(row.fired) << toString(row.rule);
}

} // namespace
} // namespace proteus
