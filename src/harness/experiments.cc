#include "experiments.hh"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "harness/check_runner.hh"
#include "harness/trace_cache.hh"
#include "sim/logging.hh"

namespace proteus {

BenchOptions
BenchOptions::parse(int argc, char **argv, unsigned spec_flags)
{
    return parse(std::vector<std::string>(argv + 1, argv + argc),
                 spec_flags);
}

BenchOptions
BenchOptions::parse(const std::vector<std::string> &args,
                    unsigned spec_flags)
{
    BenchOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (opts.spec.parseFlag(args, i, spec_flags))
            continue;
        const std::string &arg = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size())
                fatal("missing value after ", arg);
            return args[++i];
        };
        if (arg == "--jobs") {
            opts.jobs =
                static_cast<unsigned>(Arg{arg, next()}.number(0, UINT_MAX));
        } else if (arg == "--json") {
            opts.jsonPath = next();
        } else if (arg == "--no-cycle-skip") {
            opts.cycleSkip = false;
        } else if (arg == "--stats-interval") {
            opts.statsInterval = Arg{arg, next()}.number();
        } else if (arg == "--stats-out") {
            opts.statsOut = next();
        } else if (arg == "--trace-events") {
            opts.traceEvents = next();
        } else if (arg == "--trace-categories") {
            opts.traceCategories = next();
        } else if (arg == "--tx-stats") {
            opts.txStats = next();
        } else if (arg == "--tx-slowest") {
            opts.txSlowest = Arg{arg, next()}.number();
        } else if (arg == "--check") {
            opts.check = true;
        } else if (arg == "--check-mutate") {
            opts.check = true;
            opts.checkMutate =
                static_cast<long>(Arg{arg, next()}.number(0, LONG_MAX));
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "options:\n";
            printHelp(std::cout, spec_flags);
            std::exit(0);
        } else {
            fatal("unknown argument: ", arg);
        }
    }
    return opts;
}

void
BenchOptions::printHelp(std::ostream &os, unsigned spec_flags)
{
    RunSpec::printFlags(os, spec_flags, RunSpec{});
    os << "  --jobs N           host worker threads for batch runs "
       << "(default: all cores)\n"
       << "  --json FILE        write per-run results as JSON rows\n"
       << "  --no-cycle-skip    tick every cycle instead of skipping "
       << "quiescent spans\n"
       << "                     (same results, slower)\n"
       << "  --stats-interval N sample scalar-stat deltas every N "
       << "cycles\n"
       << "  --stats-out FILE   interval time series (.json or .csv)\n"
       << "  --trace-events FILE\n"
       << "                     Chrome Trace Event JSON; open in "
       << "Perfetto (ui.perfetto.dev)\n"
       << "  --trace-categories LIST\n"
       << "                     comma list of cpu,memctrl,log,lock,all "
       << "(default all)\n"
       << "  --tx-stats FILE    transaction flight-recorder summary "
       << "(.json or .csv)\n"
       << "  --tx-slowest K     retain full timelines for the K slowest "
       << "transactions\n"
       << "                     (default 8)\n"
       << "  --check            arm the persistency-order checker; any "
       << "ordering\n"
       << "                     violation fails the run (see "
       << "proteus-check)\n"
       << "  --check-mutate N   seeded mutation campaign: every armed "
       << "rule must\n"
       << "                     catch one injected violation (implies "
       << "--check)\n";
}

SystemConfig
BenchOptions::makeConfig(const RunSpec &run) const
{
    SystemConfig cfg = run.config();
    // --set cycleSkip=false and --no-cycle-skip each turn skipping off.
    cfg.cycleSkip = cfg.cycleSkip && cycleSkip;
    if (statsInterval > 0 && statsOut.empty())
        fatal("--stats-interval requires --stats-out FILE");
    cfg.obs.statsInterval = statsInterval;
    cfg.obs.statsOut = statsOut;
    cfg.obs.traceEvents = traceEvents;
    if (!traceEvents.empty())
        cfg.obs.traceCategories =
            TraceEventSink::parseCategories(traceCategories);
    cfg.obs.txStats = txStats;
    cfg.obs.txTrack = txTrack;
    if (txSlowest)
        cfg.obs.txSlowest = *txSlowest;
    return cfg;
}

obs::TxStatsRow
makeTxStatsRow(const RunSpec &spec, const RunResult &result)
{
    obs::TxStatsRow row;
    row.scheme = toString(spec.scheme);
    row.workload = toString(spec.kind);
    row.threads = spec.threads;
    row.scale = spec.scale;
    row.initScale = spec.initScale;
    row.seed = spec.seed;
    row.cycles = result.cycles;
    // Bucket order mirrors TxSlot.
    row.cpi = {result.cpi.base,          result.cpi.robFull,
               result.cpi.iqLsqFull,     result.cpi.branchRedirect,
               result.cpi.persistStall,  result.cpi.wpqBackpressure,
               result.cpi.lockWait};
    if (result.txStats)
        row.summary = *result.txStats;
    row.faults = result.faultStats;
    return row;
}

RunResult
runExperiment(const RunSpec &spec, const BenchOptions &opts)
{
    SystemConfig cfg = opts.makeConfig(spec);
    if (opts.check) {
        cfg.analysis.check = true;
        cfg.analysis.repro = checkReproLine(spec);
    }

    // Checked runs need the write history so the software schemes arm
    // LogBeforeData too (undo-logged vs. storeInit stores).
    FullSystem system(cfg, TraceCache::global().get(
                               spec.key(), /*want_history=*/opts.check));
    const RunResult result = system.run();
    if (opts.check && result.check && !result.check->pass()) {
        std::cerr << formatCheckReport(
            CheckRow{spec.scheme, spec.kind, result, *result.check});
        fatal("persistency-order check failed under ",
              toString(spec.scheme), " / ", toString(spec.kind), ": ",
              result.check->totalViolations, " violation(s)");
    }
    // Single-run tx-stats file. Batches route through the parallel
    // runner, which swaps the path for txTrack and lets runBatch
    // combine every row into one file in submission order.
    if (!cfg.obs.txStats.empty() && result.txStats)
        obs::writeTxStatsFile(cfg.obs.txStats,
                              {makeTxStatsRow(spec, result)});
    return result;
}

void
writeJsonResults(const std::string &path,
                 const std::vector<JsonResultRow> &rows)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open --json output file: ", path);
    os << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const JsonResultRow &row = rows[i];
        const RunResult &r = row.result;
        os << "  {\"scheme\": \"" << row.scheme << "\""
           << ", \"workload\": \"" << row.workload << "\""
           << ", \"finished\": " << (r.finished ? "true" : "false")
           << ", \"cycles\": " << r.cycles
           << ", \"retiredOps\": " << r.retiredOps
           << ", \"nvmWrites\": " << r.nvmWrites
           << ", \"nvmReads\": " << r.nvmReads
           << ", \"committedTxs\": " << r.committedTxs
           << ", \"logWritesDropped\": " << r.logWritesDropped
           << ", \"cpi\": {"
           << "\"base\": " << r.cpi.base
           << ", \"robFull\": " << r.cpi.robFull
           << ", \"iqLsqFull\": " << r.cpi.iqLsqFull
           << ", \"branchRedirect\": " << r.cpi.branchRedirect
           << ", \"persistStall\": " << r.cpi.persistStall
           << ", \"wpqBackpressure\": " << r.cpi.wpqBackpressure
           << ", \"lockWait\": " << r.cpi.lockWait << "}";
        // The faults block appears only when injection ran so default
        // rows stay byte-identical to a faultless build.
        if (r.faultStats.enabled) {
            const auto &f = r.faultStats;
            os << ", \"faults\": {"
               << "\"tornWrites\": " << f.tornWrites
               << ", \"wornWrites\": " << f.wornWrites
               << ", \"readFaults\": " << f.readFaults
               << ", \"eccCorrected\": " << f.eccCorrected
               << ", \"eccDetected\": " << f.eccDetected
               << ", \"silentFaults\": " << f.silentFaults
               << ", \"readRetries\": " << f.readRetries
               << ", \"retryBackoffCycles\": " << f.retryBackoffCycles
               << ", \"retriesExhausted\": " << f.retriesExhausted
               << ", \"poisonedLines\": " << f.poisonedLines << "}";
        }
        os << ", \"wall_ms\": " << std::fixed << std::setprecision(1)
           << row.wallMs << std::defaultfloat << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "]\n";
    if (!os.flush())
        fatal("failed writing --json output file: ", path);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values) {
        if (v <= 0)
            panic("geomean of a non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : _columns(std::move(columns))
{
}

void
TablePrinter::printHeader(std::ostream &os) const
{
    for (std::size_t i = 0; i < _columns.size(); ++i)
        os << std::left << std::setw(i == 0 ? 16 : 12) << _columns[i];
    os << "\n";
    for (std::size_t i = 0; i < _columns.size(); ++i)
        os << std::left << std::setw(i == 0 ? 16 : 12)
           << std::string(std::min<std::size_t>(_columns[i].size(), 11),
                          '-');
    os << "\n";
}

void
TablePrinter::printRow(std::ostream &os,
                       const std::vector<std::string> &cells) const
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        os << std::left << std::setw(i == 0 ? 16 : 12) << cells[i];
    os << "\n";
}

std::string
TablePrinter::fmt(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

} // namespace proteus
