/**
 * @file
 * perfbench_driver: runs one benchmark workload against the simulator
 * libraries and prints one JSON document of raw facts on stdout —
 * per-pass wall times, per-cell counters, trace-cache counters, the
 * set-up repetitions, and (traced runs) the recorded spans. It judges
 * nothing: perfbench/metrics.py turns the document into the gate,
 * digests and metrics.
 *
 *   perfbench_driver --workload fig06_sweep|check_matrix|crash_sweep
 *                    --seed N --seconds S --trace 0|1
 *                    --dir DIR [--control break-recovery|mutate-rule]
 *
 * --trace 0 runs set-up (several times), then timed passes for about S
 * host seconds. --trace 1 runs set-up, one untraced pass, one
 * traced pass, and the difference pass that switches one layer off.
 * --control runs a single deliberately broken cell (negative control).
 * Cells run on min(4, host cores) worker threads.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rules.hh"
#include "crashtest/crash_tester.hh"
#include "harness/parallel_runner.hh"
#include "harness/system.hh"
#include "harness/trace_cache.hh"
#include "harness/trace_io.hh"
#include "sim/logging.hh"

using namespace proteus;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point processStart = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

// ---------------------------------------------------------------- spans

/** One timed call into a layer. */
struct Span
{
    std::string name;
    std::string pass;
    long cell = -1;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    double start = 0;
    double end = 0;
};

/** In-memory span store; spans are printed when the run ends. */
class Tracer
{
  public:
    /** Record spans under @p pass; "" switches recording off. */
    void setPass(std::string pass) { _pass = std::move(pass); }
    bool on() const { return !_pass.empty(); }

    /** RAII span around one call; a no-op while recording is off. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, long cell) : _t(t)
        {
            if (!_t.on())
                return;
            _span.name = name;
            _span.pass = _t._pass;
            _span.cell = cell;
            _span.id = ++_t._nextId;
            _span.parent = stack().empty() ? 0 : stack().back();
            stack().push_back(_span.id);
            _span.start = now();
        }
        ~Scope()
        {
            if (_span.id == 0)
                return;
            _span.end = now();
            stack().pop_back();
            const std::lock_guard<std::mutex> lock(_t._mutex);
            _t._spans.push_back(std::move(_span));
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        static std::vector<std::uint64_t> &
        stack()
        {
            thread_local std::vector<std::uint64_t> open;
            return open;
        }
        Tracer &_t;
        Span _span;
    };

    std::vector<Span> spans() const { return _spans; }

  private:
    std::string _pass;
    std::atomic<std::uint64_t> _nextId{0};
    std::mutex _mutex;
    std::vector<Span> _spans;
};

Tracer tracer;

// ---------------------------------------------------------------- JSON

class Json
{
  public:
    Json &raw(const std::string &s) { _os << s; return *this; }
    template <typename T>
    Json &
    field(const char *key, const T &v)
    {
        sep();
        _os << '"' << key << "\": " << v;
        return *this;
    }
    Json &
    str(const char *key, const std::string &v)
    {
        sep();
        _os << '"' << key << "\": \"" << v << '"';
        return *this;
    }
    Json &
    num(const char *key, double v)
    {
        sep();
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        _os << '"' << key << "\": " << buf;
        return *this;
    }
    Json &
    open(const char *key, char bracket)
    {
        sep();
        if (key)
            _os << '"' << key << "\": ";
        _os << bracket;
        _first = true;
        return *this;
    }
    Json &
    close(char bracket)
    {
        _os << bracket;
        _first = false;
        return *this;
    }
    /** Start an anonymous element of an array. */
    Json &
    item(char bracket)
    {
        return open(nullptr, bracket);
    }
    std::string text() const { return _os.str(); }

  private:
    void
    sep()
    {
        if (!_first)
            _os << ", ";
        _first = false;
    }
    std::ostringstream _os;
    bool _first = true;
};

// ---------------------------------------------------------------- plan

enum class Workload { Fig06Sweep, CheckMatrix, CrashSweep };

struct Options
{
    Workload workload = Workload::Fig06Sweep;
    std::string workloadName;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string dir;
    std::string control;    ///< "" | break-recovery | mutate-rule
};

/** Fixed sizing of each workload (see perfbench/README.md). */
struct Sizing
{
    unsigned threads;
    unsigned scale;
    unsigned initScale;
};

Sizing
sizingOf(Workload w)
{
    switch (w) {
      case Workload::CheckMatrix: return {4, 200, 100};
      case Workload::CrashSweep:  return {1, 250, 100};
      case Workload::Fig06Sweep:  break;
    }
    return {4, 600, 2};
}

constexpr unsigned crashPointsPerPair = 50;

/** Worker threads of every pass: the host's cores, at most 4. */
unsigned
hostJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** Set-ups per run; fig06_sweep's set-up is a whole pass. */
unsigned
setupRepetitions(Workload w)
{
    return w == Workload::Fig06Sweep ? 2 : 5;
}

const std::vector<LogScheme> allSchemes = {
    LogScheme::PMEM,      LogScheme::PMEMPCommit,  LogScheme::ATOM,
    LogScheme::Proteus,   LogScheme::ProteusNoLWR, LogScheme::PMEMNoLog,
};

/** One (scheme, workload) cell of the matrix. */
struct Cell
{
    LogScheme scheme;
    WorkloadKind kind;
};

/** The cells of @p w in submission order: the paper workloads whose
 *  cells take longest go first so the pool's tail stays short. */
std::vector<Cell>
planCells(const Options &opts)
{
    // Negative controls run one cell where the broken mechanism shows:
    // SS keeps in-flight Proteus state at some crash points.
    if (opts.control == "break-recovery")
        return {{LogScheme::Proteus, WorkloadKind::StringSwap}};
    if (opts.control == "mutate-rule")
        return {{LogScheme::Proteus, WorkloadKind::Queue}};
    std::vector<WorkloadKind> kinds;
    switch (opts.workload) {
      case Workload::Fig06Sweep:
        kinds = {WorkloadKind::AvlTree, WorkloadKind::BTree,
                 WorkloadKind::RbTree, WorkloadKind::StringSwap,
                 WorkloadKind::HashMap, WorkloadKind::Queue};
        break;
      case Workload::CheckMatrix:
      case Workload::CrashSweep:
        kinds = {WorkloadKind::StringSwap, WorkloadKind::Queue,
                 WorkloadKind::HashMap, WorkloadKind::AvlTree,
                 WorkloadKind::RbTree, WorkloadKind::BTree};
        break;
    }
    std::vector<Cell> cells;
    for (WorkloadKind kind : kinds) {
        for (LogScheme scheme : allSchemes)
            cells.push_back({scheme, kind});
    }
    return cells;
}

/** The switch a pass turns off, for by-difference measurements. */
enum class Variant { Normal, NoCycleSkip, NoCheck, NoSerialize };

SystemConfig
configFor(const Options &opts, LogScheme scheme, Variant variant)
{
    SystemConfig cfg = baselineConfig();
    cfg.seed = opts.seed;
    cfg.logging.scheme = scheme;
    // PMEM+pcommit models the pre-ADR persistency domain.
    cfg.memCtrl.adr = scheme != LogScheme::PMEMPCommit;
    cfg.cycleSkip = variant != Variant::NoCycleSkip;
    cfg.analysis.check = opts.workload == Workload::CheckMatrix &&
                         variant != Variant::NoCheck;
    if (opts.control == "mutate-rule") {
        const auto armed = analysis::rulesForScheme(
            scheme, cfg.memCtrl.adr, /*have_history=*/true);
        const auto first = std::find(armed.begin(), armed.end(), true);
        cfg.analysis.mutateRule =
            static_cast<int>(first - armed.begin());
    }
    return cfg;
}

TraceBundleKey
keyFor(const Options &opts, const Cell &cell, const SystemConfig &cfg)
{
    const Sizing size = sizingOf(opts.workload);
    TraceBundleKey key;
    key.kind = cell.kind;
    key.scheme = cell.scheme;
    key.params.threads = size.threads;
    key.params.scale = size.scale;
    key.params.initScale = size.initScale;
    key.params.seed = opts.seed;
    // The log area size is a config fact; derive it as runExperiment
    // does rather than trusting the WorkloadParams default.
    key.params.logAreaBytes = cfg.logging.logAreaBytes;
    return key;
}

std::string
ptracePath(const Options &opts, std::size_t cell)
{
    return opts.dir + "/cell" + std::to_string(cell) + ".ptrace";
}

// ---------------------------------------------------------------- cells

/** Everything one pass learns about one cell. */
struct CellRecord
{
    bool simulated = false;         ///< run and the counters below are set
    RunResult run;
    std::uint64_t txEndOps = 0;     ///< Op::TxEnd in the thread traces
    std::uint64_t bundleTxs = 0;    ///< InitOps+SimOps transactions
    std::uint64_t traceOps = 0;     ///< micro-ops in the thread traces
    std::vector<std::uint64_t> coreCycles;
    std::vector<std::uint64_t> coreCpi;
    std::uint64_t kernelSteps = 0;
    std::uint64_t skippedCycles = 0;
    double mcWriteAttempts = 0;
    double mcWriteNoCandidate = 0;
    double wpqOccupancy = 0;
    double lpqOccupancy = 0;
    double l3Hits = 0;
    double l3Misses = 0;
    std::uint64_t ptraceBytes = 0;
    // crash_sweep
    bool crash = false;
    CrashPairResult pair;
};

void
recordBundle(CellRecord &rec, const TraceBundle &bundle)
{
    rec.bundleTxs = bundle.totalTxs();
    rec.traceOps = bundle.totalOps();
    for (const TraceBundle::ThreadTrace &tt : bundle.threads)
        rec.txEndOps += tt.trace.countOps(Op::TxEnd);
}

/** Wire and run @p bundle, spanning the wiring and the cycle loop. */
void
simulate(CellRecord &rec, const SystemConfig &cfg,
         std::shared_ptr<const TraceBundle> bundle, long cell)
{
    std::optional<FullSystem> sys;
    {
        Tracer::Scope s(tracer, "system.wire", cell);
        sys.emplace(cfg, bundle);
    }
    {
        Tracer::Scope s(tracer, "simulate", cell);
        rec.run = sys->run();
    }
    rec.simulated = true;
    for (unsigned c = 0; c < sys->coreCount(); ++c) {
        rec.coreCycles.push_back(sys->core(c).cycles());
        rec.coreCpi.push_back(sys->core(c).cpiStack().total());
    }
    rec.kernelSteps = sys->sim().kernelSteps();
    rec.skippedCycles = sys->sim().skippedCycles();
    const stats::StatRegistry &reg = sys->sim().statsRegistry();
    rec.mcWriteAttempts = reg.lookup("mc.writeAttempts");
    rec.mcWriteNoCandidate = reg.lookup("mc.writeNoCandidate");
    rec.wpqOccupancy = reg.lookup("mc.wpqOccupancy");
    rec.lpqOccupancy = reg.lookup("mc.lpqOccupancy");
    rec.l3Hits = reg.lookup("cache.l3.hits");
    rec.l3Misses = reg.lookup("cache.l3.misses");
}

std::shared_ptr<const TraceBundle>
cachedBundle(const TraceBundleKey &key, bool history, long cell)
{
    Tracer::Scope s(tracer, "functional.build", cell);
    return TraceCache::global().get(key, history);
}

CellRecord
runCell(const Options &opts, const Cell &cell, std::size_t index,
        Variant variant, bool from_file)
{
    const long id = static_cast<long>(index);
    Tracer::Scope span(tracer, "cell", id);
    const SystemConfig cfg = configFor(opts, cell.scheme, variant);
    const TraceBundleKey key = keyFor(opts, cell, cfg);
    CellRecord rec;

    if (opts.workload == Workload::CrashSweep) {
        rec.crash = true;
        // The set-up built this bundle: this lookup and the pair's own
        // lookup of the same key are cache hits.
        recordBundle(rec, *cachedBundle(key, /*history=*/true, id));
        CrashTestOptions copts;
        copts.schemes = {cell.scheme};
        copts.workloads = {cell.kind};
        copts.threads = key.params.threads;
        copts.scale = key.params.scale;
        copts.initScale = key.params.initScale;
        copts.seed = opts.seed;
        copts.autoPoints = crashPointsPerPair;
        copts.jobs = 1;
        copts.check = true;
        copts.breakRecovery = opts.control == "break-recovery";
        copts.checkSerialization = variant != Variant::NoSerialize;
        std::ostringstream log;
        CrashTestSummary summary;
        {
            Tracer::Scope s(tracer, "crash.pair", id);
            summary = runCrashTests(copts, log);
        }
        rec.pair = summary.pairs.at(0);
        return rec;
    }

    std::shared_ptr<const TraceBundle> bundle;
    if (from_file) {
        Tracer::Scope s(tracer, "ptrace.load", id);
        bundle = loadTraceBundle(ptracePath(opts, index));
    } else {
        bundle = cachedBundle(key, cfg.analysis.check, id);
    }
    recordBundle(rec, *bundle);
    simulate(rec, cfg, std::move(bundle), id);
    return rec;
}

/** check_matrix set-up for one cell: build with history and save. */
CellRecord
prepareCell(const Options &opts, const Cell &cell, std::size_t index)
{
    const long id = static_cast<long>(index);
    Tracer::Scope span(tracer, "cell", id);
    const SystemConfig cfg = configFor(opts, cell.scheme, Variant::Normal);
    const auto bundle =
        cachedBundle(keyFor(opts, cell, cfg), /*history=*/true, id);
    const std::string path = ptracePath(opts, index);
    {
        Tracer::Scope s(tracer, "ptrace.save", id);
        saveTraceBundle(*bundle, path);
    }
    CellRecord rec;
    recordBundle(rec, *bundle);
    rec.ptraceBytes = std::filesystem::file_size(path);
    // Keep only the bundles in flight resident, as the timed passes do.
    TraceCache::global().clear();
    return rec;
}

/**
 * crash_sweep set-up for one pair: build its bundle with write history
 * into the trace cache (the timed passes reuse it) and run the checked
 * crash-free reference run that the pair's crash points are spread over.
 */
CellRecord
referenceRun(const Options &opts, const Cell &cell, std::size_t index)
{
    const long id = static_cast<long>(index);
    Tracer::Scope span(tracer, "cell", id);
    SystemConfig cfg = configFor(opts, cell.scheme, Variant::Normal);
    cfg.analysis.check = true;
    auto bundle = cachedBundle(keyFor(opts, cell, cfg), /*history=*/true, id);
    CellRecord rec;
    recordBundle(rec, *bundle);
    simulate(rec, cfg, std::move(bundle), id);
    return rec;
}

// ---------------------------------------------------------------- passes

struct Pass
{
    std::string label;
    bool traced = false;
    double wall = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::size_t cacheResident = 0;
    std::vector<CellRecord> cells;
};

template <typename Fn>
Pass
runPass(const std::vector<Cell> &cells, std::string label, bool traced,
        Fn fn)
{
    Pass pass;
    pass.label = std::move(label);
    pass.traced = traced;
    pass.cells.resize(cells.size());
    TraceCache &cache = TraceCache::global();
    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t misses0 = cache.misses();
    tracer.setPass(traced ? pass.label : "");

    std::vector<ParallelRunner::Task> tasks;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        tasks.push_back({toString(cells[i].kind), [&, i]() {
            pass.cells[i] = fn(cells[i], i);
        }});
    }
    const double t0 = now();
    ParallelRunner(hostJobs()).runTasks(tasks);
    pass.wall = now() - t0;

    tracer.setPass("");
    pass.cacheHits = cache.hits() - hits0;
    pass.cacheMisses = cache.misses() - misses0;
    pass.cacheResident = cache.size();
    return pass;
}

/**
 * A pass over the workload's cells. fig06_sweep starts from an empty
 * trace cache, except its cycle-skip-off pass: that one reruns only the
 * cycle loop, over the bundles the traced pass left in the cache.
 * crash_sweep reuses the bundles its set-up built; check_matrix loads
 * every bundle from its .ptrace file.
 */
Pass
workPass(const Options &opts, const std::vector<Cell> &cells,
         std::string label, bool traced, Variant variant = Variant::Normal)
{
    const bool from_file = opts.workload == Workload::CheckMatrix;
    if (opts.workload == Workload::Fig06Sweep &&
        variant != Variant::NoCycleSkip)
        TraceCache::global().clear();
    return runPass(cells, std::move(label), traced,
                   [&](const Cell &c, std::size_t i) {
                       return runCell(opts, c, i, variant, from_file);
                   });
}

/**
 * One set-up repetition: the workload's own work before its timed
 * passes. check_matrix builds and saves every cell's trace; crash_sweep
 * builds every pair's bundle and runs its checked reference run.
 * fig06_sweep has nothing to prepare, so its set-up is an untimed
 * warm-up pass identical to a timed one.
 */
Pass
setupPass(const Options &opts, const std::vector<Cell> &cells,
          bool traced)
{
    TraceCache::global().clear();
    switch (opts.workload) {
      case Workload::CheckMatrix:
        return runPass(cells, "setup", traced,
                       [&](const Cell &c, std::size_t i) {
                           return prepareCell(opts, c, i);
                       });
      case Workload::CrashSweep:
        return runPass(cells, "setup", traced,
                       [&](const Cell &c, std::size_t i) {
                           return referenceRun(opts, c, i);
                       });
      case Workload::Fig06Sweep:
        break;
    }
    // Untraced: the per-layer metrics come from the traced pass alone.
    return workPass(opts, cells, "setup", false);
}

// ---------------------------------------------------------------- output

void
writeCell(Json &j, const Cell &cell, const CellRecord &rec)
{
    j.item('{')
        .str("scheme", toString(cell.scheme))
        .str("workload", toString(cell.kind))
        .field("bundleTxs", rec.bundleTxs)
        .field("traceOps", rec.traceOps)
        .field("txEndOps", rec.txEndOps);
    if (rec.ptraceBytes)
        j.field("ptraceBytes", rec.ptraceBytes);
    if (rec.crash) {
        const CrashPairResult &p = rec.pair;
        std::uint64_t bad = 0;
        // FNV-1a over every point's verdict: the pair's digest input.
        std::uint64_t h = 1469598103934665603ull;
        auto mix = [&h](std::uint64_t v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 1099511628211ull;
            }
        };
        for (const CrashPointResult &pt : p.points) {
            const bool ok =
                pt.oracle.ok && pt.invariantsOk && pt.serializeOk;
            bad += ok ? 0 : 1;
            mix(pt.crashCycle);
            mix(pt.committed);
            mix(pt.replayed);
            mix(ok);
        }
        char hex[32];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(h));
        j.field("points", p.points.size())
            .field("badPoints", bad)
            .field("checkViolations", p.checkViolations)
            .field("totalCycles", p.totalCycles)
            .field("totalTxs", p.totalTxs)
            .str("pointsHash", hex);
        j.close('}');
        return;
    }
    if (!rec.simulated) {
        j.close('}');
        return;
    }
    const RunResult &r = rec.run;
    j.field("finished", r.finished ? "true" : "false")
        .field("cycles", r.cycles)
        .field("retiredOps", r.retiredOps)
        .field("nvmWrites", r.nvmWrites)
        .field("nvmReads", r.nvmReads)
        .field("committedTxs", r.committedTxs)
        .field("logWritesDropped", r.logWritesDropped)
        .field("frontendStallCycles", r.frontendStallCycles);
    j.open("cpi", '[')
        .raw(std::to_string(r.cpi.base) + ", " +
             std::to_string(r.cpi.robFull) + ", " +
             std::to_string(r.cpi.iqLsqFull) + ", " +
             std::to_string(r.cpi.branchRedirect) + ", " +
             std::to_string(r.cpi.persistStall) + ", " +
             std::to_string(r.cpi.wpqBackpressure) + ", " +
             std::to_string(r.cpi.lockWait))
        .close(']');
    auto list = [&j](const char *key, const std::vector<std::uint64_t> &v) {
        std::string s;
        for (std::size_t i = 0; i < v.size(); ++i)
            s += (i ? ", " : "") + std::to_string(v[i]);
        j.open(key, '[').raw(s).close(']');
    };
    list("coreCycles", rec.coreCycles);
    list("coreCpi", rec.coreCpi);
    j.field("kernelSteps", rec.kernelSteps)
        .field("skippedCycles", rec.skippedCycles)
        .num("mcWriteAttempts", rec.mcWriteAttempts)
        .num("mcWriteNoCandidate", rec.mcWriteNoCandidate)
        .num("wpqOccupancy", rec.wpqOccupancy)
        .num("lpqOccupancy", rec.lpqOccupancy)
        .num("l3Hits", rec.l3Hits)
        .num("l3Misses", rec.l3Misses);
    if (r.check) {
        j.open("check", '{')
            .field("pass", r.check->pass() ? "true" : "false")
            .field("events", r.check->eventsSeen)
            .field("violations", r.check->totalViolations)
            .close('}');
    }
    j.close('}');
}

void
writePass(Json &j, const std::vector<Cell> &cells, const Pass &pass)
{
    j.item('{')
        .str("label", pass.label)
        .field("traced", pass.traced ? "true" : "false")
        .num("wall_s", pass.wall)
        .field("cacheHits", pass.cacheHits)
        .field("cacheMisses", pass.cacheMisses)
        .field("cacheResident", pass.cacheResident);
    j.open("cells", '[');
    for (std::size_t i = 0; i < pass.cells.size(); ++i)
        writeCell(j, cells[i], pass.cells[i]);
    j.close(']').close('}');
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fatal("missing value after ", arg);
        const std::string v = argv[++i];
        if (arg == "--workload") {
            o.workloadName = v;
            if (v == "fig06_sweep")
                o.workload = Workload::Fig06Sweep;
            else if (v == "check_matrix")
                o.workload = Workload::CheckMatrix;
            else if (v == "crash_sweep")
                o.workload = Workload::CrashSweep;
            else
                fatal("unknown workload: ", v);
        } else if (arg == "--seed") {
            o.seed = std::stoull(v);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(v);
        } else if (arg == "--trace") {
            o.trace = v == "1";
        } else if (arg == "--dir") {
            o.dir = v;
        } else if (arg == "--control") {
            o.control = v;
            if (v != "break-recovery" && v != "mutate-rule")
                fatal("unknown control: ", v);
        } else {
            fatal("unknown argument: ", arg);
        }
    }
    if (o.workloadName.empty() || o.dir.empty())
        fatal("--workload and --dir are required");
    return o;
}

int
run(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    setVerbosity(0);
    std::filesystem::create_directories(opts.dir);
    const std::vector<Cell> cells = planCells(opts);

    std::vector<double> setups;
    std::vector<Pass> passes;
    const bool control = !opts.control.empty();
    const unsigned reps = control ? 1 : setupRepetitions(opts.workload);
    for (unsigned r = 0; r < reps; ++r) {
        Pass setup = setupPass(opts, cells, opts.trace && r + 1 == reps);
        setups.push_back(setup.wall);
        if (r + 1 == reps)
            passes.push_back(std::move(setup));
    }

    if (control) {
        passes.push_back(workPass(opts, cells, "timed", false));
    } else if (!opts.trace) {
        // Start another pass only while at least half of it fits in S,
        // so a run measures S seconds give or take half a pass.
        const double t0 = now();
        do {
            passes.push_back(workPass(opts, cells, "timed", false));
        } while (now() - t0 + passes.back().wall / 2 < opts.seconds);
    } else {
        passes.push_back(workPass(opts, cells, "plain", false));
        passes.push_back(workPass(opts, cells, "traced", true));
        switch (opts.workload) {
          case Workload::Fig06Sweep:
            passes.push_back(workPass(opts, cells, "noskip", true,
                                      Variant::NoCycleSkip));
            break;
          case Workload::CheckMatrix:
            passes.push_back(workPass(opts, cells, "noskip", true,
                                      Variant::NoCycleSkip));
            passes.push_back(workPass(opts, cells, "nocheck", true,
                                      Variant::NoCheck));
            break;
          case Workload::CrashSweep:
            passes.push_back(workPass(opts, cells, "noserialize", true,
                                      Variant::NoSerialize));
            break;
        }
    }
    TraceCache::global().clear();

    if (opts.workload == Workload::CheckMatrix) {
        // After the timed phase: each cell rebuilt in memory, as its
        // trace was before saving. Its digest must match every run of
        // the reloaded file.
        passes.push_back(runPass(cells, "reference", false,
                                 [&](const Cell &c, std::size_t i) {
            CellRecord rec = runCell(opts, c, i, Variant::Normal, false);
            TraceCache::global().clear();
            return rec;
        }));
    }

    const Sizing size = sizingOf(opts.workload);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Json j;
    j.raw("{")
        .str("workload", opts.workloadName)
        .field("seed", opts.seed)
        .field("jobs", hostJobs())
        .field("threads", size.threads)
        .field("scale", size.scale)
        .field("initScale", size.initScale)
        .str("control", opts.control)
        .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) * 1024 / 1e6);
    std::string s;
    for (std::size_t i = 0; i < setups.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.9g", setups[i]);
        s += (i ? ", " : "") + std::string(buf);
    }
    j.open("setup_s", '[').raw(s).close(']');
    j.open("passes", '[');
    for (const Pass &p : passes)
        writePass(j, cells, p);
    j.close(']');
    j.open("spans", '[');
    for (const Span &sp : tracer.spans()) {
        j.item('{')
            .str("name", sp.name)
            .str("pass", sp.pass)
            .field("cell", sp.cell)
            .field("id", sp.id)
            .field("parent", sp.parent)
            .num("start", sp.start)
            .num("end", sp.end)
            .close('}');
    }
    j.close(']').raw("}");
    std::cout << j.text() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
