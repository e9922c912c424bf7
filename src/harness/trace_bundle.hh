/**
 * @file
 * Prebuilt, immutable trace state shared across FullSystem instances.
 *
 * Building a FullSystem used to re-execute the functional workload —
 * InitOps population plus SimOps recording — on every construction,
 * even though the result (per-thread micro-op traces, the initial heap
 * image, log-area bounds, and the oracle's write history) depends only
 * on (workload kind, params, scheme, linked-list options) and never on
 * the timing configuration. A TraceBundle captures exactly that
 * scheme-and-workload-determined state once; any number of FullSystems
 * can then be wired from the same bundle, concurrently, each with its
 * own private copy of the mutable heap images.
 *
 * Every built bundle forks a WorkloadSnapshot — the post-setup() state,
 * which is the same for every scheme — and records only the SimOps.
 *
 * Bundles come from three places:
 *  - TraceBundle::build() builds one for a single caller (a one-off run
 *    or a crash demo that wires two machines from it),
 *  - TraceCache::get() builds one per key and shares it process-wide,
 *    forking the cache's one snapshot per scheme-free key,
 *  - loadTraceBundle() deserializes one from a .ptrace file recorded
 *    by tools/proteus-trace (such bundles carry no Workload object, so
 *    they can run and be measured but not invariant-checked).
 */

#ifndef PROTEUS_HARNESS_TRACE_BUNDLE_HH
#define PROTEUS_HARNESS_TRACE_BUNDLE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "heap/persistent_heap.hh"
#include "isa/trace.hh"
#include "sim/config.hh"
#include "trace/write_history.hh"
#include "workloads/snapshot.hh"

namespace proteus {

/** Everything trace generation depends on; the cache/file identity. */
struct TraceBundleKey
{
    WorkloadKind kind = WorkloadKind::Queue;
    LogScheme scheme = LogScheme::Proteus;
    WorkloadParams params{};
    LinkedListOptions llOpts{};
    wlgen::GenSpec gen{};

    WorkloadExtras extras() const { return {llOpts, gen}; }

    /**
     * The identity of the post-setup() state this bundle forks (see
     * WorkloadSnapshot): this key with the scheme fixed, because
     * setup() never reads it.
     */
    TraceBundleKey snapshotKey() const;

    bool operator==(const TraceBundleKey &o) const;
    std::size_t hash() const;

    /** e.g. "QE/Proteus t4 scale20 init1 seed1" (labels, stats). */
    std::string describe() const;
};

/** Immutable product of one functional workload execution. */
class TraceBundle
{
  public:
    /** One simulated thread's share of the bundle. */
    struct ThreadTrace
    {
        Trace trace;
        Addr logStart = invalidAddr;    ///< circular log area bounds
        Addr logEnd = invalidAddr;
        Addr logFlag = invalidAddr;     ///< software logFlag word
        std::uint64_t txCount = 0;      ///< transactions recorded
    };

    TraceBundleKey key;

    /**
     * Functional heap state at the point timing would start: the NVM
     * image is the post-setup (fast-forwarded) durable state, the
     * volatile image the post-recording final state, and the allocator
     * frontiers are live so wiring can still carve ATOM log areas.
     * FullSystems copy this heap; they never mutate it in place.
     */
    std::shared_ptr<PersistentHeap> heap;

    /**
     * The workload that produced the traces (null for bundles loaded
     * from a .ptrace file). Shared FullSystems use it only through
     * const-safe entry points: serialize/checkInvariants against an
     * explicit image, and the per-thread log-area accessors.
     */
    std::shared_ptr<Workload> workload;

    std::vector<ThreadTrace> threads;

    /**
     * The recorded observer stream (null unless requested at build or
     * present in the loaded file). Replaying it into a fresh
     * CommitOracle is equivalent to attaching the oracle during trace
     * generation.
     */
    std::shared_ptr<const WriteHistory> history;

    /** Lock address -> LockAcquire count, derived from the traces
     *  (the .ptrace lock-map section; also a cheap integrity check). */
    std::map<Addr, std::uint64_t> lockMap;

    /**
     * Fork @p snapshot (the post-setup state of key.snapshotKey()) under
     * key.scheme and record the SimOps; @p want_history also records
     * the replayable WriteHistory. Without a snapshot, build a private
     * one first.
     */
    static std::shared_ptr<TraceBundle>
    build(const TraceBundleKey &key, bool want_history = false,
          const WorkloadSnapshot *snapshot = nullptr);

    /** Recompute lockMap from the traces (build and load both use it). */
    void computeLockMap();

    /// @name Aggregates (info output, tests)
    /// @{
    std::uint64_t totalOps() const;
    std::uint64_t totalTxs() const;
    std::uint64_t totalPayloads() const;
    /// @}
};

} // namespace proteus

#endif // PROTEUS_HARNESS_TRACE_BUNDLE_HH
