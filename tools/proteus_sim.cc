/**
 * @file
 * proteus-sim: the command-line front end to the simulator.
 *
 *   proteus-sim run    <workload> [--scheme S] [--stats] [--json]
 *   proteus-sim replay <file.ptrace> [--stats] [--json]
 *   proteus-sim crash  <workload> [--scheme S] [--at PERCENT]
 *   proteus-sim matrix [--jobs N] [--json FILE]
 *   proteus-sim list
 *
 * plus the options every harness binary takes (BenchOptions): the run
 * spec flags and the observability and checking flags.
 */

#include <iostream>
#include <utility>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/check_runner.hh"
#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "harness/system.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

using namespace proteus;

namespace {

/** Spec flags run/crash/replay accept (matrix: all but --scheme). */
constexpr unsigned simFlags = specflag::Bench | specflag::Scheme;

int
usage()
{
    std::cout
        << "usage: proteus_sim <command> [args]\n\n"
        << "commands:\n"
        << "  run <workload>     simulate one workload to completion\n"
        << "  replay <file>      simulate a .ptrace trace snapshot "
        << "(proteus-trace record)\n"
        << "  crash <workload>   crash partway, recover, validate\n"
        << "  matrix             every scheme x workload, in parallel\n"
        << "  list               show workloads and schemes\n"
        << "  --list-workloads   show every workload with its extra "
        << "knobs\n\n"
        << "options (run/replay/crash):\n"
        << "  --at PERCENT       crash point as % of the full run "
        << "(crash; default 50)\n"
        << "  --stats            dump the full statistics registry "
        << "(run/replay)\n"
        << "  --json             dump statistics as JSON (run/replay; "
        << "matrix: --json FILE)\n"
        << "replay takes the workload, scheme and sizing from the file;"
        << "\na flag that sets them to other values is an error.\n"
        << "crash runs no checker or flight recorder: it rejects --check,"
        << "\n--check-mutate, --tx-stats, --stats and --json.\n\n";
    BenchOptions::printHelp(std::cout, simFlags);
    return 2;
}

/** Options the harness parser does not know about. */
struct CliExtras
{
    unsigned crashPercent = 50;
    bool stats = false;
    bool json = false;
};

/** Strip CLI-only flags, leaving argv for BenchOptions::parse. */
CliExtras
extractExtras(std::vector<char *> &args)
{
    CliExtras extras;
    for (std::size_t i = 1; i < args.size();) {
        const std::string arg = args[i];
        auto take_value = [&](unsigned count) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() +
                           static_cast<std::ptrdiff_t>(i + count));
        };
        if (arg == "--at" && i + 1 < args.size()) {
            extras.crashPercent = static_cast<unsigned>(
                Arg{arg, args[i + 1]}.number(0, 100));
            take_value(2);
        } else if (arg == "--stats") {
            extras.stats = true;
            take_value(1);
        } else if (arg == "--json") {
            extras.json = true;
            take_value(1);
        } else {
            ++i;
        }
    }
    return extras;
}

/** crash runs no checker, flight recorder or statistics dump, so the
 *  flags that ask for one are rejected by name instead of ignored. */
void
rejectIgnoredCrashFlags(const CliExtras &extras, const BenchOptions &opts)
{
    const std::pair<bool, const char *> ignored[] = {
        // --check-mutate implies --check: name it first.
        {opts.checkMutate >= 0, "--check-mutate"},
        {opts.check, "--check"},
        {!opts.txStats.empty(), "--tx-stats"},
        {extras.json, "--json"},
        {extras.stats, "--stats"},
    };
    for (const auto &[given, flag] : ignored) {
        if (given)
            fatal(flag, " is not supported by proteus-sim crash");
    }
}

void
printSummary(const RunResult &r)
{
    std::cout << "finished:           "
              << (r.finished ? "yes" : "NO (cycle limit)") << "\n"
              << "cycles:             " << r.cycles << "\n"
              << "micro-ops retired:  " << r.retiredOps << "\n"
              << "transactions:       " << r.committedTxs << "\n"
              << "NVM writes:         " << r.nvmWrites << "\n"
              << "NVM reads:          " << r.nvmReads << "\n"
              << "log writes dropped: " << r.logWritesDropped << "\n"
              << "frontend stalls:    " << r.frontendStallCycles
              << "\n"
              << "LLT miss rate:      "
              << TablePrinter::fmt(100.0 * r.lltMissRate, 1) << "%\n";
    // Printed only when injection is armed so default output stays
    // byte-identical to a faultless run.
    if (r.faultStats.enabled) {
        const auto &f = r.faultStats;
        std::cout << "media faults:       " << f.tornWrites << " torn, "
                  << f.wornWrites << " worn, " << f.readFaults
                  << " read; ECC " << f.eccCorrected << " corrected / "
                  << f.eccDetected << " detected, " << f.readRetries
                  << " retries (" << f.retriesExhausted
                  << " exhausted), " << f.poisonedLines
                  << " lines poisoned, " << f.silentFaults
                  << " silent\n";
    }
}

int
cmdList()
{
    std::cout << "workloads:\n";
    for (const WorkloadRegistration &reg : workloadRegistry())
        std::cout << "  " << reg.abbrev << " (" << reg.summary << ")\n";
    std::cout << "\nschemes (Figure 6):\n";
    for (LogScheme s : allLogSchemes())
        std::cout << "  " << toString(s) << "\n";
    return 0;
}

int
cmdListWorkloads()
{
    for (const WorkloadRegistration &reg : workloadRegistry()) {
        std::cout << reg.abbrev << " / " << reg.cliName << "\n"
                  << "    " << reg.summary << "\n"
                  << "    knobs: " << reg.knobs << "\n";
    }
    return 0;
}

/** Simulate opts.spec to completion, or @p bundle (loaded from
 *  @p path) when it is set, and print the run report. */
int
cmdRun(const std::string &path, std::shared_ptr<const TraceBundle> bundle,
       const CliExtras &extras, BenchOptions opts)
{
    if (bundle)
        opts.spec = opts.spec.forBundle(bundle->key);
    const RunSpec &spec = opts.spec;
    if (opts.checkMutate >= 0) {
        // Seeded mutation campaign: every armed rule must catch its
        // own injected violation (see tools/proteus-check).
        ProgressReporter progress(std::cerr);
        const auto rows = runMutationCampaign(
            spec, opts, static_cast<std::uint64_t>(opts.checkMutate),
            &progress);
        std::cout << formatMutationReport(spec.scheme, spec.kind, rows);
        return allFired(rows) ? 0 : 1;
    }

    SystemConfig cfg = opts.makeConfig(spec);
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = bundle ? checkReplayLine(path, spec)
                                    : checkReproLine(spec);
    }
    if (bundle) {
        std::cout << "replaying " << path << " ("
                  << bundle->key.describe() << ")...\n";
    } else {
        std::cout << "running " << toString(spec.kind) << " under "
                  << toString(spec.scheme) << " (" << spec.threads
                  << " cores)...\n";
        // Checked runs record the write history, as runExperiment's do.
        bundle = TraceBundle::build(spec.key(), /*want_history=*/opts.check);
    }
    FullSystem system(cfg, std::move(bundle));
    const RunResult r = system.run();
    printSummary(r);
    std::cout << "kernel steps:       " << system.sim().kernelSteps()
              << " (" << system.sim().skippedCycles()
              << " cycles skipped)\n";
    if (!opts.txStats.empty() && r.txStats)
        obs::writeTxStatsFile(opts.txStats, {makeTxStatsRow(spec, r)});

    bool check_ok = true;
    if (opts.check && r.check) {
        std::cout << formatCheckReport(
            CheckRow{spec.scheme, spec.kind, r, *r.check});
        check_ok = r.check->pass();
    }

    // A replayed snapshot carries no workload code, so structural
    // invariants are checked only for in-process runs; proteus-trace
    // verify covers a file's integrity instead.
    std::string err;
    if (system.hasWorkload()) {
        err = system.workload().checkInvariants(
            system.heap().volatileImage());
        std::cout << "invariants:         "
                  << (err.empty() ? "OK" : err) << "\n";
    }
    if (extras.json)
        system.sim().statsRegistry().dumpJson(std::cout);
    else if (extras.stats)
        system.sim().statsRegistry().dump(std::cout);
    return r.finished && err.empty() && check_ok ? 0 : 1;
}

int
cmdMatrix(const BenchOptions &opts)
{
    const std::vector<LogScheme> schemes = allLogSchemes();
    const auto workloads = allPaperWorkloads();
    const std::vector<SimJob> jobs =
        matrixJobs(opts.spec, schemes, workloads);

    std::cout << "running " << jobs.size() << " simulations on "
              << ParallelRunner(opts.jobs).workers()
              << " host thread(s)...\n";
    const auto results = runBatch(opts, jobs);

    std::vector<std::string> cols{"scheme"};
    for (WorkloadKind w : workloads)
        cols.push_back(toString(w));
    TablePrinter table(cols);
    std::cout << "\ncycles per (scheme, workload)\n";
    table.printHeader(std::cout);

    std::size_t i = 0;
    bool all_finished = true;
    for (LogScheme s : schemes) {
        std::vector<std::string> cells{toString(s)};
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const RunResult &r = results[i++].result;
            cells.push_back(std::to_string(r.cycles));
            all_finished = all_finished && r.finished;
        }
        table.printRow(std::cout, cells);
    }
    return all_finished ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "list")
        return cmdList();
    if (command == "--list-workloads" || command == "list-workloads")
        return cmdListWorkloads();
    if (command == "--help" || command == "-h")
        return usage();
    if (command == "matrix") {
        try {
            std::vector<char *> args;
            args.push_back(argv[0]);
            for (int i = 2; i < argc; ++i)
                args.push_back(argv[i]);
            return cmdMatrix(BenchOptions::parse(
                static_cast<int>(args.size()), args.data()));
        } catch (const FatalError &e) {
            std::cerr << e.what() << "\n";
            return 1;
        }
    }
    if (command != "run" && command != "crash" && command != "replay") {
        std::cerr << "unknown command: " << command << "\n";
        return usage();
    }
    if (argc < 3) {
        std::cerr << command << " requires a "
                  << (command == "replay" ? "trace file" : "workload")
                  << "\n";
        return usage();
    }

    try {
        std::vector<char *> args;
        args.push_back(argv[0]);
        for (int i = 3; i < argc; ++i)
            args.push_back(argv[i]);
        const CliExtras extras = extractExtras(args);
        BenchOptions opts = BenchOptions::parse(
            static_cast<int>(args.size()), args.data(), simFlags);
        if (command == "replay") {
            auto bundle = loadTraceBundle(argv[2]);
            rejectBundleConflicts(
                std::vector<std::string>(argv + 3, argv + argc),
                bundle->key, argv[2]);
            return cmdRun(argv[2], std::move(bundle), extras, opts);
        }
        opts.spec.kind = parseWorkload(argv[2]);
        if (command == "run")
            return cmdRun("", nullptr, extras, opts);
        rejectIgnoredCrashFlags(extras, opts);
        return crashAndRecover(opts.spec, opts.makeConfig(opts.spec),
                               extras.crashPercent, std::cout)
                   ? 0
                   : 1;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
