/**
 * @file
 * Crash-recovery demo: run the hashmap workload under Proteus, pull
 * the plug partway through, and recover the NVM image with the undo
 * log. Shows that the recovered state is exactly the committed prefix
 * of transactions.
 *
 * Usage: crash_recovery [--scale N] [--seed N]
 */

#include <iostream>

#include "harness/experiments.hh"
#include "harness/system.hh"
#include "recovery/recovery.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    RunSpec spec =
        opts.spec.with(LogScheme::Proteus, WorkloadKind::HashMap);
    spec.threads = 1;       // single thread: exact prefix comparison
    const SystemConfig cfg = opts.makeConfig(spec);
    const WorkloadParams params = spec.key().params;
    // One functional execution; both machines are wired from it.
    const auto bundle = TraceBundle::build(spec.key());

    // First, learn how long the full run takes.
    std::cout << "Measuring the full run...\n";
    FullSystem full(cfg, bundle);
    const RunResult complete = full.run();
    std::cout << "  " << complete.committedTxs << " transactions in "
              << complete.cycles << " cycles\n";

    // Now crash at 40% of it.
    const Tick crash_at = complete.cycles * 2 / 5;
    std::cout << "Re-running and crashing at cycle " << crash_at
              << "...\n";
    FullSystem sys(cfg, bundle);
    sys.runFor(crash_at);

    // The crash image: NVM + whatever the battery drains (ADR).
    MemoryImage image = sys.crashImage();
    const std::uint64_t committed = sys.core(0).committedTxs().size();
    std::cout << "  committed transactions at crash: " << committed
              << "\n";

    // Recovery: parse the per-thread log area, undo the in-flight tx.
    TraceBuilder &tb = sys.workload().builder(0);
    const RecoveryResult rec = Recovery::recoverProteus(
        image, tb.logAreaStart(), tb.logAreaEnd());
    std::cout << "  recovery: "
              << (rec.didUndo ? "rolled back one in-flight transaction"
                              : "no transaction was in flight")
              << " (" << rec.entriesApplied << " undo entries applied, "
              << rec.entriesScanned << " scanned)\n";

    // Validate: structural invariants + exact committed-prefix replay.
    const std::string err = sys.workload().checkInvariants(image);
    std::cout << "  invariants: " << (err.empty() ? "OK" : err) << "\n";

    PersistentHeap replay_heap;
    auto replay = makeWorkload(WorkloadKind::HashMap, replay_heap,
                               LogScheme::Proteus, params);
    replay->setup();
    replay->replayOps(committed);
    const bool exact =
        sys.workload().serialize(image) ==
        replay->serialize(replay_heap.volatileImage());
    std::cout << "  recovered state == committed prefix: "
              << (exact ? "YES" : "NO") << "\n";
    return err.empty() && exact ? 0 : 1;
}
