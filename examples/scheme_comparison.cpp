/**
 * @file
 * Compare every logging scheme on one workload: cycles, speedup over
 * software logging, NVM writes, and front-end stalls — a one-workload
 * miniature of the paper's evaluation section.
 *
 * Usage: scheme_comparison [--scale N] [--threads N] [workload]
 */

#include <iostream>

#include "harness/experiments.hh"

using namespace proteus;

int
main(int argc, char **argv)
{
    // An optional trailing positional argument picks the workload.
    WorkloadKind kind = WorkloadKind::RbTree;
    if (argc > 1 && argv[argc - 1][0] != '-') {
        kind = parseWorkload(argv[argc - 1]);
        --argc;
    }
    BenchOptions opts = BenchOptions::parse(argc, argv);

    std::cout << "Comparing logging schemes on " << toString(kind)
              << " (scale=" << opts.spec.scale
              << ", threads=" << opts.spec.threads << ")\n\n";

    TablePrinter table({"scheme", "cycles", "speedup", "NVM writes",
                        "fe stalls", "txs"});
    table.printHeader(std::cout);

    double base = 0;
    for (LogScheme scheme :
         {LogScheme::PMEM, LogScheme::PMEMPCommit, LogScheme::ATOM,
          LogScheme::ProteusNoLWR, LogScheme::Proteus,
          LogScheme::PMEMNoLog}) {
        const RunResult r =
            runExperiment(opts.spec.with(scheme, kind), opts);
        if (scheme == LogScheme::PMEM)
            base = static_cast<double>(r.cycles);
        table.printRow(std::cout,
                       {toString(scheme), std::to_string(r.cycles),
                        TablePrinter::fmt(base / r.cycles),
                        std::to_string(r.nvmWrites),
                        std::to_string(r.frontendStallCycles),
                        std::to_string(r.committedTxs)});
    }
    std::cout << "\nExpected ordering (paper Figure 6): PMEM+nolog >= "
              << "Proteus > ATOM/PMEM > PMEM+pcommit.\n";
    return 0;
}
