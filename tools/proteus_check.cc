/**
 * @file
 * proteus-check: the persistency-order checker front end.
 *
 *   proteus-check run <workload|all> [--scheme S|all] [options]
 *   proteus-check replay <file.ptrace> [options]
 *   proteus-check rules [--scheme S]
 *
 * `run` replays the workload through the full timing machine with the
 * online happens-before checker armed and reports every ordering
 * violation crashtest-style (guilty transaction, store ordinal, the
 * missing edge, a one-command repro line). `--check-mutate N` instead
 * runs the seeded mutation campaign: for every rule armed for the
 * scheme, one injected protocol violation that the checker must catch
 * — the CI gate proving the rules are live.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/rules.hh"
#include "harness/check_runner.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "workloads/registry.hh"

using namespace proteus;

namespace {

int
usage()
{
    std::cout
        << "usage: proteus-check <command> [args]\n\n"
        << "commands:\n"
        << "  run <workload|all>  check one workload (or every paper "
        << "workload)\n"
        << "  replay <file>       check a .ptrace trace snapshot (the "
        << "file fixes the\n"
        << "                      workload, scheme and sizing; other "
        << "values are an error)\n"
        << "  rules               print the rule set per scheme\n\n"
        << "options:\n"
        << "  --scheme S|all     pmem | pmem+pcommit | pmem+nolog | "
        << "atom |\n"
        << "                     proteus | proteus+nolwr | all "
        << "(default: all)\n"
        << "  --check-mutate N   seeded mutation campaign: inject one "
        << "violation per\n"
        << "                     armed rule (seed N) and require every "
        << "rule to fire\n"
        << "  --json FILE        deterministic JSON verdict (no "
        << "wall-clock)\n"
        << "  --jobs N           host worker threads (0 = all cores)\n"
        << "  --no-cycle-skip    tick every cycle (verdicts are "
        << "bit-identical)\n";
    RunSpec::printFlags(std::cout, checkSpecFlags, RunSpec{});
    return 2;
}

int
cmdRules(std::vector<LogScheme> schemes)
{
    if (schemes.empty())
        schemes = allLogSchemes();
    std::cout << "rules:\n";
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        const auto rule = static_cast<analysis::Rule>(r);
        std::cout << "  " << analysis::toString(rule) << ": "
                  << analysis::describe(rule) << "\n";
    }
    std::cout << "\narmed per scheme (with a recorded write history):\n";
    for (LogScheme s : schemes) {
        const auto armed =
            analysis::rulesForScheme(s, adrForScheme(s), true);
        std::cout << "  " << toString(s) << ":";
        for (unsigned r = 0; r < analysis::numRules; ++r) {
            if (armed[r]) {
                std::cout << " "
                          << analysis::toString(
                                 static_cast<analysis::Rule>(r));
            }
        }
        std::cout << "\n";
    }
    return 0;
}

int
cmdRun(const std::vector<WorkloadKind> &kinds,
       std::vector<LogScheme> schemes, const BenchOptions &opts)
{
    if (schemes.empty())
        schemes = allLogSchemes();

    if (opts.checkMutate >= 0) {
        // Mutation campaign: every (scheme, workload) pair must catch
        // every armed rule's injected violation.
        const auto seed = static_cast<std::uint64_t>(opts.checkMutate);
        bool all_ok = true;
        std::string json;
        for (LogScheme scheme : schemes) {
            for (WorkloadKind kind : kinds) {
                ProgressReporter progress(std::cerr);
                const auto rows = runMutationCampaign(
                    opts.spec.with(scheme, kind), opts, seed, &progress);
                std::cout << formatMutationReport(scheme, kind, rows);
                json += mutationRowsJson(scheme, kind, seed, rows);
                all_ok = all_ok && allFired(rows);
            }
        }
        if (!opts.jsonPath.empty())
            writeJsonFile(opts.jsonPath, json);
        return all_ok ? 0 : 1;
    }

    ProgressReporter progress(std::cerr);
    const auto rows = runCheckBatch(schemes, kinds, opts, &progress);
    for (const CheckRow &row : rows)
        std::cout << formatCheckReport(row);
    if (!opts.jsonPath.empty())
        writeJsonFile(opts.jsonPath, checkRowsJson(rows));
    return allPass(rows) ? 0 : 1;
}

int
cmdReplay(const std::string &path, const BenchOptions &opts,
          std::vector<std::string> args)
{
    auto bundle = loadTraceBundle(path);
    // `--scheme all` names every scheme, the recorded one included.
    for (auto it = args.begin(); it != args.end(); ++it) {
        if (*it == "--scheme" && it + 1 != args.end() && it[1] == "all") {
            args.erase(it, it + 2);
            break;
        }
    }
    rejectBundleConflicts(args, bundle->key, path);
    const CheckRow row = runCheckOnBundle(std::move(bundle), opts, path);
    std::cout << formatCheckReport(row);
    if (!opts.jsonPath.empty())
        writeJsonFile(opts.jsonPath, checkRowsJson({row}));
    return row.outcome.pass() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    if (command == "--help" || command == "-h")
        return usage();
    if (command != "run" && command != "replay" && command != "rules") {
        std::cerr << "unknown command: " << command << "\n";
        return usage();
    }
    const bool takes_operand = command != "rules";
    if (takes_operand && argc < 3) {
        std::cerr << command << " requires a "
                  << (command == "replay" ? "trace file" : "workload")
                  << "\n";
        return usage();
    }

    try {
        const std::vector<std::string> args(
            argv + (takes_operand ? 3 : 2), argv + argc);
        const CheckArgs parsed = parseCheckArgs(args);
        if (command == "rules")
            return cmdRules(parsed.schemes);
        if (command == "replay")
            return cmdReplay(argv[2], parsed.opts, args);
        const std::string operand = argv[2];
        const std::vector<WorkloadKind> kinds =
            operand == "all" ? allPaperWorkloads()
                             : std::vector<WorkloadKind>{
                                   parseWorkload(operand)};
        return cmdRun(kinds, parsed.schemes, parsed.opts);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
