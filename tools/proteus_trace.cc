/**
 * @file
 * proteus-trace: record, inspect, and verify .ptrace trace snapshots.
 *
 *   proteus-trace record <workload> --out FILE [--with-history]
 *                 [--scheme S] [--scale N] [--init-scale N]
 *                 [--threads N] [--seed N] [--log-area-bytes N]
 *                 [--elements-per-node N] [--wl-spec k=v,...]
 *   proteus-trace info   <file.ptrace>
 *   proteus-trace verify <file.ptrace>
 *
 * A recorded snapshot replays with proteus-sim replay (or any code
 * using loadTraceBundle) and produces bit-identical RunResults to
 * rebuilding the traces in-process — the round-trip tests assert this
 * for every scheme.
 */

#include <iostream>
#include <string>
#include <vector>

#include "harness/run_spec.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace proteus;

namespace {

/** Spec flags `record` accepts. */
constexpr unsigned recordFlags = specflag::Scheme | specflag::Sizing |
                                 specflag::WlSpec | specflag::List |
                                 specflag::LogArea;

int
usage()
{
    std::cout
        << "usage: proteus-trace <command> [args]\n\n"
        << "commands:\n"
        << "  record <workload>  execute the workload functionally and "
        << "save its traces\n"
        << "  info <file>        print a snapshot's header, sections, "
        << "and counters\n"
        << "  verify <file>      CRC-check and cross-validate a "
        << "snapshot\n\n"
        << "options (record):\n"
        << "  --out FILE         output path (required)\n"
        << "  --with-history     also record the replayable write "
        << "history (crash oracle)\n";
    RunSpec::printFlags(std::cout, recordFlags, RunSpec{});
    return 2;
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "record requires a workload\n";
        return usage();
    }
    RunSpec spec;
    spec.kind = parseWorkload(argv[2]);
    std::string out;
    bool with_history = false;

    const std::vector<std::string> args(argv + 3, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (spec.parseFlag(args, i, recordFlags))
            continue;
        if (args[i] == "--out") {
            if (i + 1 >= args.size())
                fatal("--out needs a value");
            out = args[++i];
        } else if (args[i] == "--with-history") {
            with_history = true;
        } else {
            std::cerr << "unknown option: " << args[i] << "\n";
            return usage();
        }
    }
    if (out.empty())
        fatal("record requires --out FILE");

    const TraceBundleKey key = spec.key();
    std::cout << "recording " << key.describe() << "...\n";
    const auto bundle = TraceBundle::build(key, with_history);
    saveTraceBundle(*bundle, out);

    const PtraceFileInfo info = inspectTraceFile(out);
    std::cout << "wrote " << out << " (" << info.fileBytes << " bytes, "
              << bundle->totalOps() << " micro-ops, "
              << bundle->totalTxs() << " transactions, "
              << (bundle->history ? bundle->history->events().size()
                                  : 0)
              << " history events)\n";
    return 0;
}

int
cmdInfo(const std::string &path)
{
    const PtraceFileInfo info = inspectTraceFile(path);
    std::cout << path << ": ptrace v" << info.version << ", "
              << info.fileBytes << " bytes\n"
              << "key:        " << info.key.describe() << "\n"
              << "micro-ops:  " << info.totalOps << "\n"
              << "payloads:   " << info.totalPayloads << "\n"
              << "txs:        " << info.totalTxs << "\n"
              << "vol pages:  " << info.volatilePages << "\n"
              << "nvm pages:  " << info.nvmPages << "\n"
              << "locks:      " << info.lockCount << "\n"
              << "history:    " << info.historyEvents << " events\n"
              << "sections:\n";
    bool all_ok = true;
    for (const PtraceSectionInfo &s : info.sections) {
        std::cout << "  " << s.tag << "  " << s.bytes << " bytes  crc "
                  << (s.crcOk ? "ok" : "MISMATCH") << "\n";
        all_ok = all_ok && s.crcOk;
    }
    return all_ok ? 0 : 1;
}

int
cmdVerify(const std::string &path)
{
    const std::vector<std::string> problems = verifyTraceFile(path);
    if (problems.empty()) {
        std::cout << path << ": OK\n";
        return 0;
    }
    for (const std::string &p : problems)
        std::cout << path << ": " << p << "\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "record")
            return cmdRecord(argc, argv);
        if ((command == "info" || command == "verify") && argc >= 3)
            return command == "info" ? cmdInfo(argv[2])
                                     : cmdVerify(argv[2]);
        if (command == "--help" || command == "-h")
            return usage();
        std::cerr << "unknown command: " << command << "\n";
        return usage();
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
