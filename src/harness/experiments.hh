/**
 * @file
 * Experiment-harness helpers shared by the bench binaries: running one
 * (scheme x workload) configuration, speedup/geomean math, and the
 * fixed-width table printing used to reproduce the paper's figures.
 */

#ifndef PROTEUS_HARNESS_EXPERIMENTS_HH
#define PROTEUS_HARNESS_EXPERIMENTS_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "harness/run_spec.hh"
#include "obs/tx_stats_io.hh"
#include "system.hh"

namespace proteus {

/** Command-line options shared by every bench binary: the run spec
 *  template its jobs share, plus run control that never changes a
 *  result (host jobs, output files, cycle skipping, checking). */
struct BenchOptions
{
    /** Sizing, seed, --dram, --set, --faults and --wl-spec shared by
     *  every job; jobs choose scheme and workload (RunSpec::with). */
    RunSpec spec;
    unsigned jobs = 0;          ///< host worker threads; 0 = all cores
    std::string jsonPath;       ///< write per-run JSON rows ("" = off)
    bool cycleSkip = true;      ///< --no-cycle-skip to force per-cycle

    /// @name Observability (see ObservabilityConfig)
    /// @{
    Tick statsInterval = 0;     ///< --stats-interval N (0 = off)
    std::string statsOut;       ///< --stats-out FILE
    std::string traceEvents;    ///< --trace-events FILE
    std::string traceCategories = "all";    ///< --trace-categories spec
    std::string txStats;        ///< --tx-stats FILE (flight recorder)
    /** --tx-slowest K timelines; unset keeps obs.txSlowest (8, or
     *  --set obs.txSlowest). */
    std::optional<std::uint64_t> txSlowest;
    /** Run the flight recorder without writing txStats (batches
     *  combine every job's rows into one file). */
    bool txTrack = false;
    /// @}

    /// @name Persistency-order checking (src/analysis)
    /// @{
    bool check = false;     ///< --check: arm the online order checker
    long checkMutate = -1;  ///< --check-mutate N: campaign seed (-1 off)
    /// @}

    /** Parse argv: the spec flags in @p spec_flags (see RunSpec) plus
     *  --jobs N, --json FILE, --no-cycle-skip,
     *  --stats-interval N, --stats-out FILE, --trace-events FILE,
     *  --trace-categories LIST, --tx-stats FILE, --tx-slowest K,
     *  --check and --check-mutate N. Exits on --help. */
    static BenchOptions parse(int argc, char **argv,
                              unsigned spec_flags = specflag::Bench);
    /** The same, over the arguments after the program name. */
    static BenchOptions parse(const std::vector<std::string> &args,
                              unsigned spec_flags = specflag::Bench);

    /** The --help lines for what parse() accepts. */
    static void printHelp(std::ostream &os, unsigned spec_flags);

    /** @p run's machine with this run control applied. */
    SystemConfig makeConfig(const RunSpec &run) const;
};

/** Run @p spec to completion. When opts.txStats names a file and the
 *  run produced a flight-recorder summary, the single-run tx-stats
 *  file is written here; batches set txTrack instead and combine rows
 *  (see ParallelRunner). */
RunResult runExperiment(const RunSpec &spec, const BenchOptions &opts);

/** Bind a run's flight-recorder summary to its identity for
 *  serialization (no-op row with a default summary if the recorder
 *  did not run). */
obs::TxStatsRow makeTxStatsRow(const RunSpec &spec,
                               const RunResult &result);

/** Geometric mean of @p values (which must be positive). */
double geomean(const std::vector<double> &values);

/** One machine-readable result row for --json output. */
struct JsonResultRow
{
    std::string scheme;
    std::string workload;
    RunResult result;
    double wallMs = 0;      ///< host wall-clock of the whole run
};

/**
 * Write @p rows as a JSON array to @p path so perf trajectories can be
 * tracked across commits. Throws FatalError if the file cannot be
 * written.
 */
void writeJsonResults(const std::string &path,
                      const std::vector<JsonResultRow> &rows);

/** Fixed-width table printer. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> columns);

    void printHeader(std::ostream &os) const;
    void printRow(std::ostream &os,
                  const std::vector<std::string> &cells) const;

    /** Format a double with @p precision decimals. */
    static std::string fmt(double v, int precision = 2);

  private:
    std::vector<std::string> _columns;
};

} // namespace proteus

#endif // PROTEUS_HARNESS_EXPERIMENTS_HH
