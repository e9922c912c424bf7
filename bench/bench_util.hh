/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries: run a
 * matrix of (scheme x workload), cache baselines, and print rows in
 * the paper's layout.
 */

#ifndef PROTEUS_BENCH_BENCH_UTIL_HH
#define PROTEUS_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/experiments.hh"
#include "harness/parallel_runner.hh"
#include "sim/logging.hh"

namespace proteus {
namespace bench {

/** One scheme's speedups across the Table 2 workloads. */
struct SpeedupRow
{
    LogScheme scheme;
    std::vector<double> speedups;   ///< per workload, then geomean
};

/** Results of a full (scheme x workload) sweep. */
struct Matrix
{
    std::vector<WorkloadKind> workloads;
    std::map<LogScheme, std::vector<RunResult>> results;
    std::map<LogScheme, std::vector<double>> wallMs;

    const RunResult &
    at(LogScheme s, std::size_t w) const
    {
        return results.at(s)[w];
    }
};

/** BenchOptions::parse for a bench binary's main(): a bad flag or
 *  value prints its message and exits 1 instead of aborting. */
inline BenchOptions
parseOptions(int argc, char **argv)
{
    try {
        return BenchOptions::parse(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        std::exit(1);
    }
}

/**
 * Run every (scheme, workload) pair with shared options, opts.jobs
 * pairs concurrently. Each pair is an independent FullSystem, so the
 * matrix is identical to a sequential sweep at any job count.
 */
inline Matrix
runMatrix(const BenchOptions &opts, const std::vector<LogScheme> &schemes,
          const std::vector<WorkloadKind> &workloads)
{
    const auto outcomes =
        runBatch(opts, matrixJobs(opts.spec, schemes, workloads));

    Matrix m;
    m.workloads = workloads;
    std::size_t i = 0;
    for (LogScheme s : schemes) {
        for (std::size_t k = 0; k < workloads.size(); ++k, ++i) {
            m.results[s].push_back(outcomes[i].result);
            m.wallMs[s].push_back(outcomes[i].wallMs);
        }
    }
    return m;
}

/** Print a speedup table: rows = schemes, columns = workloads+geomean,
 *  baseline = @p baseline cycles per workload. */
inline void
printSpeedups(const Matrix &m, LogScheme baseline,
              const std::string &title)
{
    std::vector<std::string> cols{"scheme"};
    for (WorkloadKind w : m.workloads)
        cols.push_back(toString(w));
    cols.push_back("geomean");

    std::cout << "\n" << title << "\n";
    TablePrinter table(cols);
    table.printHeader(std::cout);
    for (const auto &[scheme, results] : m.results) {
        std::vector<std::string> cells{toString(scheme)};
        std::vector<double> speedups;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const double base =
                static_cast<double>(m.at(baseline, i).cycles);
            const double s = base / results[i].cycles;
            speedups.push_back(s);
            cells.push_back(TablePrinter::fmt(s));
        }
        cells.push_back(TablePrinter::fmt(geomean(speedups)));
        table.printRow(std::cout, cells);
    }
}

/** Print a per-workload metric normalized to @p baseline's metric. */
template <typename Fn>
inline void
printNormalized(const Matrix &m, LogScheme baseline, Fn metric,
                const std::string &title)
{
    std::vector<std::string> cols{"scheme"};
    for (WorkloadKind w : m.workloads)
        cols.push_back(toString(w));
    cols.push_back("mean");

    std::cout << "\n" << title << "\n";
    TablePrinter table(cols);
    table.printHeader(std::cout);
    for (const auto &[scheme, results] : m.results) {
        std::vector<std::string> cells{toString(scheme)};
        double sum = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const double base = metric(m.at(baseline, i));
            const double v =
                base > 0 ? metric(results[i]) / base : 0.0;
            sum += v;
            cells.push_back(TablePrinter::fmt(v));
        }
        cells.push_back(TablePrinter::fmt(
            sum / static_cast<double>(results.size())));
        table.printRow(std::cout, cells);
    }
}

} // namespace bench
} // namespace proteus

#endif // PROTEUS_BENCH_BENCH_UTIL_HH
