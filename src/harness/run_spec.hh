/**
 * @file
 * RunSpec: what identifies one run — workload, scheme, Table 2 sizing,
 * seed, workload options, `--dram`, `--set` overrides and media
 * faults — and the one place that derives what the paper fixes rather
 * than lets a run choose: one core per workload thread, the ADR
 * persistency domain (every scheme but PMEM+pcommit, Section 2.1) and
 * the per-thread log area (Section 4.1), which the trace bundle key
 * copies from config().
 *
 * The flags that set a spec field are parsed, range-checked and
 * documented from one table; each tool accepts a subset of it.
 * parse(args()) == *this, and every repro line is built from args().
 */

#ifndef PROTEUS_HARNESS_RUN_SPEC_HH
#define PROTEUS_HARNESS_RUN_SPEC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "faults/fault_config.hh"
#include "harness/trace_bundle.hh"

namespace proteus {

/** Groups of spec flags; a tool accepts the union it passes. */
namespace specflag {
enum : unsigned
{
    Scheme = 1u << 0,   ///< --scheme S
    Sizing = 1u << 1,   ///< --threads, --scale, --init-scale, --seed
    Dram = 1u << 2,     ///< --dram
    Set = 1u << 3,      ///< --set k=v
    Faults = 1u << 4,   ///< --faults SPEC, --fault-seed N
    WlSpec = 1u << 5,   ///< --wl-spec k=v,..., --wl-spec-file FILE
    List = 1u << 6,     ///< --elements-per-node N
    LogArea = 1u << 7,  ///< --log-area-bytes N (a --set shorthand)
    Bench = Sizing | Dram | Set | Faults | WlSpec,
    All = ~0u,
};
} // namespace specflag

/** A flag's value, with the flag's name for error messages. Every
 *  numeric command-line value is read through it. */
struct Arg
{
    const std::string &flag;
    const std::string &text;

    /** The value as an integer in [lo, hi]; FatalError naming the flag
     *  otherwise. */
    std::uint64_t number(std::uint64_t lo = 0,
                         std::uint64_t hi = UINT64_MAX) const;

    /** A positive unsigned count up to @p hi. */
    unsigned count(unsigned hi = UINT32_MAX) const
    {
        return static_cast<unsigned>(number(1, hi));
    }
};

/** @return true when @p scheme runs inside the ADR domain. */
bool adrForScheme(LogScheme scheme);

/** The identity of one run. */
struct RunSpec
{
    WorkloadKind kind = WorkloadKind::Queue;
    LogScheme scheme = LogScheme::Proteus;
    unsigned threads = 4;       ///< one simulated core each
    unsigned scale = 200;       ///< divide Table 2 SimOps
    unsigned initScale = 1;     ///< divide Table 2 InitOps
    std::uint64_t seed = 1;
    LinkedListOptions ll;       ///< LinkedList only
    wlgen::GenSpec gen;         ///< Generated only
    bool dram = false;          ///< Section 7.2 DRAM timing
    std::vector<std::string> overrides;     ///< --set k=v, in order
    faults::FaultConfig faults;

    /** Baseline or DRAM timing with the seed, scheme, ADR, cores and
     *  faults derived from the spec, then the overrides. */
    SystemConfig config() const;

    /** The trace bundle identity; the log area comes from config(). */
    TraceBundleKey key() const;

    /** This spec with another scheme and workload. */
    RunSpec with(LogScheme scheme, WorkloadKind kind) const;

    /** This spec re-anchored on a recorded bundle: workload, scheme,
     *  sizing and options from @p key, the log area from its header
     *  (a conflicting `--set logging.logAreaBytes` is rejected). */
    RunSpec forBundle(const TraceBundleKey &key) const;

    /** `<workload> --scheme S` + workloadArgs() + machineArgs(). */
    std::vector<std::string> args() const;
    /** --seed, --threads, --scale, --init-scale, and --wl-spec and
     *  --elements-per-node when not the defaults. */
    std::vector<std::string> workloadArgs() const;
    /** --dram, each --set, and --faults when not the default. */
    std::vector<std::string> machineArgs() const;
    /** An optional leading workload operand, then any spec flags. */
    static RunSpec parse(const std::vector<std::string> &args);

    /**
     * If @p args[i] is a flag in @p groups, apply it (consuming its
     * value) and return true. Throws FatalError on a bad value or a
     * `--set` of a key the spec owns (cores, seed, logging.scheme,
     * memCtrl.adr), naming the flag to use instead.
     */
    bool parseFlag(const std::vector<std::string> &args, std::size_t &i,
                   unsigned groups);

    /** --help lines for the flags in @p groups. */
    static void printFlags(std::ostream &os, unsigned groups,
                           const RunSpec &defaults);

    bool operator==(const RunSpec &) const = default;
};

/**
 * Fatal if @p args set --scheme, a sizing flag, --wl-spec[-file] or
 * --elements-per-node to a value other than the one the .ptrace file
 * @p path records in @p key: a replay takes those from the file, so
 * the flag would be ignored. Equal values pass. The error names the
 * flag and the file's value.
 */
void rejectBundleConflicts(const std::vector<std::string> &args,
                           const TraceBundleKey &key,
                           const std::string &path);

/** @p args joined by single spaces (repro lines). */
std::string joinArgs(const std::vector<std::string> &args);

} // namespace proteus

#endif // PROTEUS_HARNESS_RUN_SPEC_HH
