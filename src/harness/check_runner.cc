#include "check_runner.hh"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "harness/trace_cache.hh"
#include "sim/json_util.hh"
#include "sim/logging.hh"

namespace proteus {

namespace {

std::string
hex(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** Shared core of every checked run: wire @p bundle (built for
 *  @p spec) with the checker armed. @p mutations_out, when set,
 *  receives the mutator's applied-perturbation count. */
CheckRow
runChecked(const RunSpec &spec, const BenchOptions &opts,
           std::shared_ptr<const TraceBundle> bundle, std::string repro,
           int mutate_rule = -1, std::uint64_t mutate_seed = 1,
           std::uint64_t *mutations_out = nullptr)
{
    SystemConfig cfg = opts.makeConfig(spec);
    cfg.analysis.check = true;
    cfg.analysis.mutateRule = mutate_rule;
    cfg.analysis.mutateSeed = mutate_seed;
    cfg.analysis.repro = std::move(repro);
    // Checked runs never write per-run observability files: batches
    // would race on one path, and verdicts must not depend on it.
    cfg.obs.txStats.clear();
    cfg.obs.statsInterval = 0;
    cfg.obs.traceEvents.clear();

    FullSystem system(cfg, std::move(bundle));
    CheckRow row;
    row.scheme = spec.scheme;
    row.kind = spec.kind;
    row.run = system.run();
    if (row.run.check)
        row.outcome = *row.run.check;
    if (mutations_out) {
        *mutations_out =
            system.mutator() ? system.mutator()->mutations() : 0;
    }
    return row;
}

/** @p spec's bundle with the write history, which distinguishes
 *  undo-logged stores from fresh-allocation stores and so arms
 *  LogBeforeData for the software schemes. */
std::shared_ptr<const TraceBundle>
historyBundle(const RunSpec &spec)
{
    return TraceCache::global().get(spec.key(), /*want_history=*/true);
}

} // namespace

CheckArgs
parseCheckArgs(const std::vector<std::string> &args)
{
    static const char *const unsupported[] = {
        "--stats-interval", "--stats-out",  "--trace-events",
        "--trace-categories", "--tx-stats", "--tx-slowest",
    };
    CheckArgs out;
    std::vector<std::string> rest;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        for (const char *flag : unsupported) {
            if (arg == flag)
                fatal(arg, " is not supported by proteus-check (checked "
                      "runs write no per-run files; use proteus-sim run "
                      "--check)");
        }
        if (arg == "--scheme" && i + 1 < args.size()) {
            // BenchOptions takes one scheme; proteus-check also `all`.
            if (args[++i] != "all")
                out.schemes.push_back(parseScheme(args[i]));
        } else {
            rest.push_back(arg);
        }
    }
    out.opts = BenchOptions::parse(rest, checkSpecFlags);
    return out;
}

std::string
checkReproLine(const RunSpec &spec)
{
    // Cycle skipping and --jobs are result-invariant by design, so the
    // repro line omits them — and check JSON stays byte-identical
    // across both settings.
    return "proteus-check run " + joinArgs(spec.args());
}

std::string
checkReplayLine(const std::string &path, const RunSpec &spec)
{
    std::vector<std::string> args{"proteus-check", "replay", path};
    for (const std::string &a : spec.machineArgs())
        args.push_back(a);
    return joinArgs(args);
}

CheckRow
runCheck(const RunSpec &spec, const BenchOptions &opts)
{
    return runChecked(spec, opts, historyBundle(spec),
                      checkReproLine(spec));
}

CheckRow
runCheckOnBundle(std::shared_ptr<const TraceBundle> bundle,
                 const BenchOptions &opts, const std::string &path)
{
    if (!bundle)
        fatal("runCheckOnBundle: null trace bundle");
    const RunSpec spec = opts.spec.forBundle(bundle->key);
    return runChecked(spec, opts, std::move(bundle),
                      checkReplayLine(path, spec));
}

std::vector<CheckRow>
runCheckBatch(const std::vector<LogScheme> &schemes,
              const std::vector<WorkloadKind> &kinds,
              const BenchOptions &opts, ProgressReporter *progress)
{
    std::vector<std::pair<LogScheme, WorkloadKind>> jobs;
    for (LogScheme scheme : schemes) {
        for (WorkloadKind kind : kinds)
            jobs.emplace_back(scheme, kind);
    }
    std::vector<CheckRow> rows(jobs.size());
    std::vector<ParallelRunner::Task> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto [scheme, kind] = jobs[i];
        std::ostringstream label;
        label << "check " << toString(scheme) << " / "
              << toString(kind);
        tasks.push_back({label.str(), [&rows, &opts, scheme = scheme,
                                       kind = kind, i]() {
            rows[i] = runCheck(opts.spec.with(scheme, kind), opts);
        }});
    }
    ParallelRunner runner(opts.jobs);
    runner.runTasks(tasks, progress);
    return rows;
}

std::vector<MutationRow>
runMutationCampaign(const RunSpec &spec, const BenchOptions &opts,
                    std::uint64_t mutate_seed, ProgressReporter *progress)
{
    // The campaign always records the write history (historyBundle),
    // so arm the same rule set the checked run will see.
    const auto armed = analysis::rulesForScheme(
        spec.scheme, adrForScheme(spec.scheme), /*have_history=*/true);
    std::vector<unsigned> targets;
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        if (armed[r])
            targets.push_back(r);
    }

    std::vector<MutationRow> rows(targets.size());
    std::vector<ParallelRunner::Task> tasks;
    tasks.reserve(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const unsigned r = targets[i];
        std::ostringstream label;
        label << "mutate " << toString(static_cast<analysis::Rule>(r))
              << " on " << toString(spec.scheme) << " / "
              << toString(spec.kind);
        tasks.push_back({label.str(), [&rows, &opts, &spec, r,
                                       mutate_seed, i]() {
            std::uint64_t mutations = 0;
            const CheckRow run = runChecked(
                spec, opts, historyBundle(spec),
                checkReproLine(spec), static_cast<int>(r), mutate_seed,
                &mutations);
            MutationRow &row = rows[i];
            row.rule = static_cast<analysis::Rule>(r);
            row.violations = run.outcome.rules[r].violations;
            row.fired = row.violations > 0;
            row.mutations = mutations;
        }});
    }
    ParallelRunner runner(opts.jobs);
    runner.runTasks(tasks, progress);
    return rows;
}

std::string
formatCheckReport(const CheckRow &row)
{
    const analysis::CheckOutcome &o = row.outcome;
    std::ostringstream os;
    os << "persistency-order check: " << toString(row.scheme) << " / "
       << toString(row.kind) << "\n";
    if (!o.repro.empty())
        os << "  repro: " << o.repro << "\n";
    os << "  events: " << o.eventsSeen << "\n";
    os << "  " << std::left << std::setw(26) << "rule" << std::setw(8)
       << "armed" << std::setw(14) << "checks" << "violations\n";
    for (unsigned r = 0; r < analysis::numRules; ++r) {
        os << "  " << std::left << std::setw(26)
           << analysis::toString(static_cast<analysis::Rule>(r))
           << std::setw(8) << (o.armed[r] ? "yes" : "no")
           << std::setw(14) << o.rules[r].checks
           << o.rules[r].violations << "\n";
    }
    for (std::size_t i = 0; i < o.violations.size(); ++i) {
        const analysis::Violation &v = o.violations[i];
        os << "  VIOLATION #" << (i + 1) << "  rule="
           << analysis::toString(v.rule) << "  core=" << v.core
           << "  tx=" << v.tx << "\n"
           << "    addr=" << hex(v.addr) << "  store-ordinal="
           << v.ordinal << "  tick=" << v.tick << "\n"
           << "    missing edge: " << v.missingEdge << "\n";
        if (!v.detail.empty())
            os << "    detail: " << v.detail << "\n";
    }
    if (o.pass()) {
        os << "  PASS\n";
    } else {
        os << "  FAIL: " << o.totalViolations << " violation"
           << (o.totalViolations == 1 ? "" : "s") << " ("
           << o.violations.size() << " shown; cap "
           << analysis::reportCap << ")\n";
    }
    return os.str();
}

std::string
formatMutationReport(LogScheme scheme, WorkloadKind kind,
                     const std::vector<MutationRow> &rows)
{
    std::ostringstream os;
    os << "mutation campaign: " << toString(scheme) << " / "
       << toString(kind) << "\n";
    os << "  " << std::left << std::setw(26) << "rule" << std::setw(12)
       << "mutations" << std::setw(14) << "violations" << "verdict\n";
    for (const MutationRow &row : rows) {
        os << "  " << std::left << std::setw(26)
           << analysis::toString(row.rule) << std::setw(12)
           << row.mutations << std::setw(14) << row.violations
           << (row.fired ? "fired" : "MISSED") << "\n";
    }
    os << (allFired(rows)
               ? "  PASS: every armed rule caught its injected "
                 "violation\n"
               : "  FAIL: at least one armed rule missed its injected "
                 "violation\n");
    return os.str();
}

std::string
checkRowsJson(const std::vector<CheckRow> &rows)
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CheckRow &row = rows[i];
        const analysis::CheckOutcome &o = row.outcome;
        os << "  {\"scheme\": " << json::quoted(toString(row.scheme))
           << ", \"workload\": \"" << toString(row.kind)
           << "\", \"pass\": " << (o.pass() ? "true" : "false")
           << ", \"events\": " << o.eventsSeen
           << ", \"violations\": " << o.totalViolations
           << ", \"cycles\": " << row.run.cycles
           << ", \"committedTxs\": " << row.run.committedTxs
           << ", \"repro\": " << json::quoted(o.repro)
           << ", \"rules\": [";
        for (unsigned r = 0; r < analysis::numRules; ++r) {
            os << (r ? ", " : "") << "{\"name\": \""
               << analysis::toString(static_cast<analysis::Rule>(r))
               << "\", \"armed\": " << (o.armed[r] ? "true" : "false")
               << ", \"checks\": " << o.rules[r].checks
               << ", \"violations\": " << o.rules[r].violations << "}";
        }
        os << "], \"reports\": [";
        for (std::size_t v = 0; v < o.violations.size(); ++v) {
            const analysis::Violation &viol = o.violations[v];
            os << (v ? ", " : "") << "{\"rule\": \""
               << analysis::toString(viol.rule) << "\", \"core\": "
               << viol.core << ", \"tx\": " << viol.tx
               << ", \"addr\": \"" << hex(viol.addr)
               << "\", \"ordinal\": " << viol.ordinal << ", \"tick\": "
               << viol.tick << ", \"missingEdge\": "
               << json::quoted(viol.missingEdge) << ", \"detail\": "
               << json::quoted(viol.detail) << "}";
        }
        os << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

std::string
mutationRowsJson(LogScheme scheme, WorkloadKind kind,
                 std::uint64_t mutate_seed,
                 const std::vector<MutationRow> &rows)
{
    std::ostringstream os;
    os << "{\"scheme\": " << json::quoted(toString(scheme))
       << ", \"workload\": \"" << toString(kind)
       << "\", \"seed\": " << mutate_seed
       << ", \"pass\": " << (allFired(rows) ? "true" : "false")
       << ", \"rules\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const MutationRow &row = rows[i];
        os << "  {\"rule\": \"" << analysis::toString(row.rule)
           << "\", \"fired\": " << (row.fired ? "true" : "false")
           << ", \"mutations\": " << row.mutations
           << ", \"violations\": " << row.violations << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]}\n";
    return os.str();
}

void
writeJsonFile(const std::string &path, const std::string &json)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open --json output file: ", path);
    os << json;
    if (!os.flush())
        fatal("failed writing --json output file: ", path);
}

bool
allPass(const std::vector<CheckRow> &rows)
{
    for (const CheckRow &row : rows) {
        if (!row.outcome.pass())
            return false;
    }
    return true;
}

bool
allFired(const std::vector<MutationRow> &rows)
{
    for (const MutationRow &row : rows) {
        if (!row.fired)
            return false;
    }
    return true;
}

} // namespace proteus
