/**
 * @file
 * RunSpec: the one source of run identity. Covers the derived facts
 * (cores from threads, ADR from the scheme, the key's log area from
 * the config), rejection of the --set keys the spec owns, the
 * args()/parse() round trip, and that every printed repro line parses
 * back to the spec of the run that printed it.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/check_runner.hh"
#include "harness/experiments.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workloads/registry.hh"

namespace proteus {
namespace {

std::vector<std::string>
split(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> out;
    for (std::string tok; is >> tok;)
        out.push_back(tok);
    return out;
}

/** The tokens of @p line after @p prefix (which must lead it). */
std::vector<std::string>
argsAfter(const std::string &line, const std::string &prefix)
{
    EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
    return split(line.substr(prefix.size()));
}

/** The run a `proteus-check run` line reproduces, read back with
 *  proteus-check's own parser. */
RunSpec
checkLineSpec(const std::string &line)
{
    const std::vector<std::string> args =
        argsAfter(line, "proteus-check run ");
    if (args.empty())
        return {};
    const CheckArgs parsed =
        parseCheckArgs({args.begin() + 1, args.end()});
    EXPECT_EQ(parsed.schemes.size(), 1u) << line;
    if (parsed.schemes.size() != 1)
        return {};
    return parsed.opts.spec.with(parsed.schemes[0],
                                 parseWorkload(args[0]));
}

/** The FatalError text of parsing @p args ("" if it parsed). */
std::string
parseError(const std::vector<std::string> &args)
{
    try {
        RunSpec::parse(args);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(RunSpec, ConfigDerivesCoresAdrAndLogArea)
{
    for (LogScheme scheme : allLogSchemes()) {
        RunSpec spec;
        spec.scheme = scheme;
        spec.threads = 8;
        spec.overrides = {"logging.logAreaBytes=4096"};
        const SystemConfig cfg = spec.config();
        EXPECT_EQ(cfg.cores, 8u);
        EXPECT_EQ(cfg.logging.scheme, scheme);
        EXPECT_EQ(cfg.memCtrl.adr, scheme != LogScheme::PMEMPCommit);
        EXPECT_EQ(spec.key().params.logAreaBytes, 4096u);
        EXPECT_EQ(spec.key().scheme, scheme);
    }
}

TEST(RunSpec, OwnedSetKeysAreRejectedNamingTheirFlag)
{
    const std::pair<const char *, const char *> owned[] = {
        {"cores=8", "--threads"},
        {"seed=3", "--seed"},
        {"logging.scheme=atom", "--scheme"},
        {"memCtrl.adr=false", "--scheme"},
    };
    for (const auto &[set, flag] : owned) {
        const std::string err = parseError({"QE", "--set", set});
        EXPECT_NE(err.find(flag), std::string::npos) << set << ": " << err;

        const char *argv[] = {"prog", "--set", set};
        EXPECT_THROW(BenchOptions::parse(3, const_cast<char **>(argv)),
                     FatalError)
            << set;

        // A spec built in code cannot smuggle the key in either.
        RunSpec spec;
        spec.overrides = {set};
        EXPECT_THROW(spec.config(), FatalError) << set;
    }
    // Unknown keys and bad values fail at parse time, not mid-run.
    EXPECT_NE(parseError({"--set", "no.such.key=1"}), "");
    EXPECT_NE(parseError({"--set", "cpu.robEntries=lots"}), "");
}

TEST(RunSpec, SetPhysIntRegsReachesConfig)
{
    const char *argv[] = {"prog", "--set", "cpu.physIntRegs=256"};
    const BenchOptions opts =
        BenchOptions::parse(3, const_cast<char **>(argv));
    EXPECT_EQ(opts.spec.config().cpu.physIntRegs, 256u);
    EXPECT_EQ(opts.makeConfig(opts.spec).cpu.physIntRegs, 256u);
    EXPECT_EQ(RunSpec{}.config().cpu.physIntRegs, 180u);
    EXPECT_NE(parseError({"--set", "cpu.physIntRegs=lots"}), "");
}

TEST(RunSpec, FlagValuesAreRangeChecked)
{
    EXPECT_NE(parseError({"--threads", "0"}), "");
    EXPECT_NE(parseError({"--threads", "33"}), "");
    EXPECT_NE(parseError({"--scale", "0"}), "");
    EXPECT_NE(parseError({"--init-scale", "0"}), "");
    EXPECT_NE(parseError({"--seed", "abc"}), "");
    EXPECT_NE(parseError({"--scale", "-4"}), "");
    EXPECT_NE(parseError({"--scale"}), "");
    EXPECT_EQ(parseError({"--threads", "32"}), "");
}

TEST(RunSpec, ArgsRoundTripSeeded)
{
    const char *sets[] = {"logging.logQEntries=8", "memCtrl.lpqEntries=64",
                          "mem.nvmWriteTRCD=240", "cycleSkip=false",
                          "logging.logAreaBytes=2097152"};
    const char *faultSpecs[] = {"torn=0.01", "readflip=0.001,detect=4",
                                "endurance=1000,correct=2,seed=9"};
    const char *wlSpecs[] = {"dist=uniform,keyspace=512",
                             "dist=zipf,theta=0.5,ops=300",
                             "keys=4,tables=2"};
    const WorkloadKind kinds[] = {
        WorkloadKind::Queue, WorkloadKind::HashMap, WorkloadKind::BTree,
        WorkloadKind::LinkedList, WorkloadKind::Generated};

    const std::vector<LogScheme> schemes = allLogSchemes();
    Random rng(20171014);
    for (int i = 0; i < 500; ++i) {
        RunSpec spec;
        spec.kind = kinds[rng.nextBelow(std::size(kinds))];
        spec.scheme = schemes[rng.nextBelow(schemes.size())];
        spec.threads = static_cast<unsigned>(rng.nextRange(1, 32));
        spec.scale = static_cast<unsigned>(rng.nextRange(1, 5000));
        spec.initScale = static_cast<unsigned>(rng.nextRange(1, 300));
        spec.seed = rng.next();
        spec.dram = rng.nextBool(0.5);
        if (rng.nextBool(0.3))
            spec.ll.elementsPerNode =
                static_cast<unsigned>(rng.nextRange(1, 8192));
        for (unsigned n = rng.nextBelow(3); n > 0; --n)
            spec.overrides.push_back(sets[rng.nextBelow(std::size(sets))]);
        if (rng.nextBool(0.5))
            spec.faults = faults::parseFaultSpec(
                faultSpecs[rng.nextBelow(std::size(faultSpecs))]);
        if (rng.nextBool(0.3))
            spec.faults.seed = rng.next();
        if (rng.nextBool(0.5))
            spec.gen = wlgen::GenSpec::parse(
                wlSpecs[rng.nextBelow(std::size(wlSpecs))]);

        const std::vector<std::string> args = spec.args();
        EXPECT_EQ(RunSpec::parse(args), spec) << joinArgs(args);
    }
}

TEST(RunSpec, ForBundleTakesTheRecordedLogArea)
{
    RunSpec recorded;
    recorded.overrides = {"logging.logAreaBytes=2097152"};
    const TraceBundleKey key = recorded.key();

    RunSpec cli;
    cli.dram = true;
    const RunSpec replay = cli.forBundle(key);
    EXPECT_EQ(replay.key(), key);
    EXPECT_TRUE(replay.dram);
    EXPECT_EQ(replay.config().logging.logAreaBytes, 2097152u);

    cli.overrides = {"logging.logAreaBytes=4096"};
    EXPECT_THROW(cli.forBundle(key), FatalError);
}

TEST(RunSpec, FullSystemRejectsADriftedLogArea)
{
    RunSpec spec;
    spec.threads = 1;
    spec.scale = 4000;
    spec.initScale = 100;
    SystemConfig cfg = spec.config();
    cfg.logging.logAreaBytes = 4096;
    const TraceBundleKey key = spec.key();
    EXPECT_THROW(FullSystem(cfg, TraceBundle::build(key)), FatalError);
}

TEST(RunSpec, SetLogAreaReachesTheTrace)
{
    // 64 bytes cannot hold a B-tree transaction's software log: the
    // override must reach trace generation, not only the ATOM areas.
    BenchOptions opts;
    opts.spec = RunSpec::parse({"BT", "--scheme", "pmem", "--threads",
                                "1", "--scale", "2000", "--init-scale",
                                "100", "--set",
                                "logging.logAreaBytes=64"});
    // Through the trace cache and through a fresh bundle build.
    const std::function<void()> runs[] = {
        [&] { runExperiment(opts.spec, opts); },
        [&] { TraceBundle::build(opts.spec.key()); },
    };
    for (const auto &run : runs) {
        try {
            run();
            ADD_FAILURE() << "64-byte log area did not overflow";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("overflowed"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(RunSpec, EightThreadsRunOnEightCores)
{
    BenchOptions opts;
    opts.spec = RunSpec::parse({"QE", "--threads", "8", "--scale",
                                "4000", "--init-scale", "100"});
    const RunResult r = runExperiment(opts.spec, opts);
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.committedTxs, 0u);
}

TEST(RunSpec, CheckReproLinesParseBackToTheirRun)
{
    BenchOptions opts;
    opts.spec = RunSpec::parse({"--threads", "2", "--scale", "4000",
                                "--init-scale", "100", "--dram", "--set",
                                "logging.logQEntries=8", "--wl-spec",
                                "keyspace=512,ops=100"});
    // A table3-style linked list carries --elements-per-node.
    RunSpec list = opts.spec.with(LogScheme::ATOM, WorkloadKind::LinkedList);
    list.ll.elementsPerNode = 2048;
    for (const RunSpec &spec :
         {opts.spec.with(LogScheme::ATOM, WorkloadKind::Queue),
          opts.spec.with(LogScheme::ATOM, WorkloadKind::Generated), list}) {
        const CheckRow row = runCheck(spec, opts);
        EXPECT_EQ(checkLineSpec(row.outcome.repro), spec)
            << row.outcome.repro;
    }

    // Faults ride along too.
    RunSpec faulty = opts.spec.with(LogScheme::PMEM, WorkloadKind::Queue);
    faulty.faults = faults::parseFaultSpec("readflip=0.001,seed=5");
    EXPECT_EQ(checkLineSpec(checkReproLine(faulty)), faulty);

    // A replay line names the file plus the machine flags.
    const RunSpec replayed = opts.spec.forBundle(faulty.key());
    EXPECT_EQ(checkReplayLine("qe.ptrace", replayed),
              "proteus-check replay qe.ptrace --dram --set "
              "logging.logQEntries=8");
}

TEST(RunSpec, CrashtestReproLinesParseBackToTheirPair)
{
    // The checked reference run's repro line is the pair spec's.
    CrashTestOptions opts;
    opts.schemes = {LogScheme::Proteus};
    opts.workloads = {WorkloadKind::Queue};
    opts.gen = wlgen::GenSpec::parse("keyspace=512");
    opts.faults = faults::parseFaultSpec("torn=0.01");
    const RunSpec pair =
        opts.pairSpec(LogScheme::Proteus, WorkloadKind::Queue);
    EXPECT_EQ(checkLineSpec(checkReproLine(pair)), pair);

    // Replay lines: each mode, with faults and a workload spec.
    CrashPairResult result;
    result.scheme = LogScheme::Proteus;
    result.workload = WorkloadKind::Queue;
    opts.mode = CrashMode::Fuzz;
    opts.fuzzCount = 7;
    {
        const CrashTestOptions back = parseCrashTestArgs(
            argsAfter(replayCommand(opts, result), "proteus-crashtest "));
        EXPECT_EQ(back.pairSpec(LogScheme::Proteus, WorkloadKind::Queue),
                  pair);
        EXPECT_EQ(back.mode, CrashMode::Fuzz);
        EXPECT_EQ(back.fuzzCount, 7u);
        EXPECT_EQ(back.schemes, opts.schemes);
        EXPECT_EQ(back.workloads, opts.workloads);
    }

    // And a line printed by a real failing campaign.
    CrashTestOptions broken;
    broken.schemes = {LogScheme::Proteus};
    broken.workloads = {WorkloadKind::Queue};
    broken.autoPoints = 25;
    broken.breakRecovery = true;
    std::ostringstream log;
    EXPECT_FALSE(runCrashTests(broken, log).ok);
    const std::string text = log.str();
    const std::size_t at = text.find("  replay: ");
    ASSERT_NE(at, std::string::npos) << text;
    const std::string line = text.substr(
        at + 10, text.find('\n', at) - at - 10);
    const CrashTestOptions back =
        parseCrashTestArgs(argsAfter(line, "proteus-crashtest "));
    EXPECT_EQ(back.pairSpec(LogScheme::Proteus, WorkloadKind::Queue),
              broken.pairSpec(LogScheme::Proteus, WorkloadKind::Queue));
    EXPECT_TRUE(back.breakRecovery);
    EXPECT_EQ(back.mode, CrashMode::Points);
}

} // namespace proteus
