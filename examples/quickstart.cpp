/**
 * @file
 * Quickstart: build one simulated machine, run the queue workload
 * under Proteus, and print headline statistics.
 *
 * Usage: quickstart [--scale N] [--threads N] [--set key=value] ...
 */

#include <iostream>

#include "harness/experiments.hh"
#include "harness/system.hh"
#include "sim/logging.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    const RunSpec spec =
        opts.spec.with(LogScheme::Proteus, WorkloadKind::Queue);

    std::cout << "Building a " << spec.threads
              << "-core system running the QE workload under "
              << toString(spec.scheme) << "...\n";

    FullSystem system(opts.makeConfig(spec), TraceBundle::build(spec.key()));
    const RunResult r = system.run();

    std::cout << "finished:            "
              << (r.finished ? "yes" : "NO (cycle limit)") << "\n"
              << "cycles:              " << r.cycles << "\n"
              << "micro-ops retired:   " << r.retiredOps << "\n"
              << "transactions:        " << r.committedTxs << "\n"
              << "NVM writes:          " << r.nvmWrites << "\n"
              << "NVM reads:           " << r.nvmReads << "\n"
              << "log writes dropped:  " << r.logWritesDropped << "\n"
              << "LLT miss rate:       "
              << TablePrinter::fmt(100.0 * r.lltMissRate, 1) << "%\n";

    // The functional model lets us verify the data structures really
    // were maintained: check the queues in the final volatile image.
    const std::string err = system.workload().checkInvariants(
        system.heap().volatileImage());
    std::cout << "invariants:          "
              << (err.empty() ? "OK" : err) << "\n";
    return err.empty() && r.finished ? 0 : 1;
}
