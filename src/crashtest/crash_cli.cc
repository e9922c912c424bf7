/** @file proteus-crashtest's argument parser (see crash_tester.hh). */

#include <climits>
#include <sstream>

#include "crash_tester.hh"
#include "sim/logging.hh"

namespace proteus {

namespace {

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<LogScheme>
parseSchemes(const std::string &arg)
{
    if (arg == "all")
        return allLogSchemes();
    std::vector<LogScheme> out;
    for (const std::string &name : splitList(arg))
        out.push_back(parseScheme(name));
    return out;
}

std::vector<WorkloadKind>
parseWorkloads(const std::string &arg)
{
    if (arg == "all") {
        // The six paper workloads plus the linked list (Table 3): crash
        // consistency must hold everywhere, not just where Figure 6
        // reports performance.
        std::vector<WorkloadKind> all = allPaperWorkloads();
        all.push_back(WorkloadKind::LinkedList);
        return all;
    }
    std::vector<WorkloadKind> out;
    for (const std::string &name : splitList(arg))
        out.push_back(parseWorkload(name));
    return out;
}

} // namespace

CrashTestOptions
parseCrashTestArgs(const std::vector<std::string> &args)
{
    CrashTestOptions opts;
    opts.schemes = parseSchemes("all");
    opts.workloads = parseWorkloads("all");
    // The spec flags land in one spec seeded with the campaign
    // defaults; the scheme and workload are placeholders.
    RunSpec spec = opts.pairSpec(LogScheme::Proteus, WorkloadKind::Queue);

    for (std::size_t i = 0; i < args.size(); ++i) {
        if (spec.parseFlag(args, i, crashTestSpecFlags))
            continue;
        const std::string &arg = args[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= args.size())
                fatal(arg + " needs a value");
            return args[++i];
        };
        auto number = [&](std::uint64_t hi = UINT64_MAX) {
            return Arg{arg, value()}.number(0, hi);
        };
        if (arg == "--sweep") {
            opts.mode = CrashMode::Stride;
            opts.stride = 0;
        } else if (arg == "--sweep-points") {
            opts.autoPoints = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--crash-stride") {
            opts.mode = CrashMode::Stride;
            opts.stride = number();
        } else if (arg == "--crash-at") {
            opts.mode = CrashMode::Points;
            opts.points.clear();
            for (const std::string &c : splitList(value()))
                opts.points.push_back(Arg{arg, c}.number());
        } else if (arg == "--fuzz") {
            opts.mode = CrashMode::Fuzz;
            opts.fuzzCount = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--schemes") {
            opts.schemes = parseSchemes(value());
        } else if (arg == "--workloads") {
            opts.workloads = parseWorkloads(value());
        } else if (arg == "--jobs") {
            opts.jobs = static_cast<unsigned>(number(UINT_MAX));
        } else if (arg == "--json") {
            opts.jsonPath = value();
        } else if (arg == "--max-violations") {
            opts.maxViolations = number();
        } else if (arg == "--no-serialize") {
            opts.checkSerialization = false;
        } else if (arg == "--check") {
            opts.check = true;
        } else if (arg == "--no-cycle-skip") {
            opts.cycleSkip = false;
        } else if (arg == "--break-recovery") {
            opts.breakRecovery = true;
        } else {
            fatal("unknown option: ", arg);
        }
    }
    opts.threads = spec.threads;
    opts.scale = spec.scale;
    opts.initScale = spec.initScale;
    opts.seed = spec.seed;
    opts.gen = spec.gen;
    opts.faults = spec.faults;
    return opts;
}

} // namespace proteus
