/**
 * @file
 * proteus-crashtest: oracle-checked crash injection and recovery
 * fuzzing across the scheme x workload matrix.
 *
 *   proteus-crashtest --sweep [--sweep-points N] [--jobs J] ...
 *   proteus-crashtest --crash-stride N ...
 *   proteus-crashtest --crash-at C1,C2,... ...
 *   proteus-crashtest --fuzz N --seed S ...
 *
 * Every mode is deterministic given --seed, and the JSON output is
 * bit-identical at any --jobs level. Exit status is nonzero when any
 * crash point violates the oracle, a structural invariant, or the
 * committed-prefix replay.
 */

#include <iostream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

int
usage()
{
    std::cout
        << "usage: proteus-crashtest [mode] [options]\n\n"
        << "modes (default: --sweep):\n"
        << "  --sweep            crash every totalCycles/N cycles "
        << "(N = --sweep-points)\n"
        << "  --crash-stride N   crash every N cycles\n"
        << "  --crash-at LIST    crash at the given cycles "
        << "(comma-separated)\n"
        << "  --fuzz N           N seeded-random crash points per pair\n\n"
        << "options:\n"
        << "  --schemes LIST     comma list or 'all' (default all):\n"
        << "                     pmem | pmem+pcommit | pmem+nolog |\n"
        << "                     atom | proteus | proteus+nolwr\n"
        << "  --workloads LIST   comma list or 'all' (default all "
        << "paper workloads);\n"
        << "                     'gen' selects the generated workload\n";
    RunSpec::printFlags(std::cout, crashTestSpecFlags,
                        CrashTestOptions{}.pairSpec(LogScheme::Proteus,
                                                    WorkloadKind::Queue));
    std::cout
        << "  --sweep-points N   target points per pair for --sweep "
        << "(default 50)\n"
        << "  --jobs J           host worker threads (0 = all cores)\n"
        << "  --json FILE        write per-crash-point rows as JSON\n"
        << "  --max-violations N report at most N bytes per point "
        << "(default 8)\n"
        << "  --no-serialize     skip the committed-prefix replay check\n"
        << "  --check            arm the persistency-order checker on "
        << "each pair's\n"
        << "                     reference run (see proteus-check)\n"
        << "  --no-cycle-skip    tick every cycle instead of skipping "
        << "quiescent spans (same results, slower)\n"
        << "  --break-recovery   testing hook: skip recovery (expect "
        << "violations)\n\n"
        << "--seed also seeds --fuzz; byte-exact oracle checking needs "
        << "--threads 1.\n"
        << "With --faults, crash points with detected media loss pass "
        << "as\ndetected-unrecoverable; silent corruption always "
        << "fails.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h")
            return usage();
    }

    try {
        const CrashTestOptions opts = parseCrashTestArgs(args);
        std::cout << "crash-testing " << opts.schemes.size()
                  << " schemes x " << opts.workloads.size()
                  << " workloads (" << toString(opts.mode) << ", seed "
                  << opts.seed << ")\n";
        const CrashTestSummary summary = runCrashTests(opts, std::cout);

        std::cout << summary.crashPoints << " crash points, "
                  << summary.violations << " violations";
        if (opts.faults.enabled())
            std::cout << ", " << summary.detectedUnrecoverable
                      << " detected-unrecoverable";
        if (!opts.jsonPath.empty())
            std::cout << " -> " << opts.jsonPath;
        std::cout << "\n"
                  << (summary.ok ? "CONSISTENT" : "INCONSISTENT")
                  << "\n";
        return summary.ok ? 0 : 1;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const PanicError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
