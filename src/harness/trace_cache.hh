/**
 * @file
 * Process-wide cache of TraceBundles keyed by TraceBundleKey.
 *
 * A crashtest sweep (hundreds of crash points per scheme) or a
 * bench::runMatrix batch constructs many FullSystems whose traces are
 * identical; the cache builds each distinct bundle exactly once —
 * including under concurrent lookups from the parallel runner's worker
 * threads, where the first requester builds while the others block on a
 * shared future — and hands out shared immutable references.
 *
 * Bundles of one workload under different schemes share their InitOps
 * population: the cache also holds one WorkloadSnapshot per scheme-free
 * key (TraceBundleKey::snapshotKey), built once the same way, and every
 * bundle build forks it. setup() therefore runs once per snapshot key
 * per cache lifetime.
 *
 * A cached bundle gives the same results as a fresh TraceBundle::build
 * of its key: both fork the same post-setup state, and every machine
 * wired from a bundle copies its heap.
 */

#ifndef PROTEUS_HARNESS_TRACE_CACHE_HH
#define PROTEUS_HARNESS_TRACE_CACHE_HH

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "trace_bundle.hh"

namespace proteus {

/** Build-once, share-everywhere store of immutable trace bundles. */
class TraceCache
{
  public:
    /**
     * The bundle for @p key, building it on first request.
     * @p want_history: the caller needs the replayable WriteHistory
     * (crash testing); a cached bundle without one is rebuilt once
     * with history and replaces the old entry. Thread-safe.
     */
    std::shared_ptr<const TraceBundle> get(const TraceBundleKey &key,
                                           bool want_history = false);

    /** The post-setup() snapshot of key.snapshotKey(), building it on
     *  first request (any scheme's key names the same one).
     *  Thread-safe. */
    std::shared_ptr<const WorkloadSnapshot>
    snapshot(const TraceBundleKey &key);

    /** Drop every cached bundle and snapshot (tests, memory pressure). */
    void clear();

    /// @name Statistics
    /// @{
    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    /** Bundles resident (snapshots are not counted). */
    std::size_t size() const;
    /// @}

    /** The process-wide instance used by the harness entry points. */
    static TraceCache &global();

  private:
    struct KeyHash
    {
        std::size_t operator()(const TraceBundleKey &k) const
        {
            return k.hash();
        }
    };

    template <typename T>
    using Entries = std::unordered_map<
        TraceBundleKey, std::shared_future<std::shared_ptr<const T>>,
        KeyHash>;

    /** The entry for @p key in @p entries, running @p build outside the
     *  lock if this caller is the first to ask; @p built reports that,
     *  and @p misses (if set) counts it. */
    template <typename T, typename Build>
    std::shared_ptr<const T> once(Entries<T> &entries,
                                  const TraceBundleKey &key,
                                  const Build &build, bool &built,
                                  std::uint64_t *misses);

    mutable std::mutex _mutex;
    Entries<TraceBundle> _entries;
    Entries<WorkloadSnapshot> _snapshots;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace proteus

#endif // PROTEUS_HARNESS_TRACE_CACHE_HH
