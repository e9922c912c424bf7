#include "trace_cache.hh"

namespace proteus {

template <typename T, typename Build>
std::shared_ptr<const T>
TraceCache::once(Entries<T> &entries, const TraceBundleKey &key,
                 const Build &build, bool &built, std::uint64_t *misses)
{
    std::shared_future<std::shared_ptr<const T>> future;
    std::promise<std::shared_ptr<const T>> promise;
    built = false;
    {
        const std::lock_guard<std::mutex> lock(_mutex);
        auto it = entries.find(key);
        if (it == entries.end()) {
            built = true;
            if (misses)
                ++*misses;
            future = promise.get_future().share();
            entries.emplace(key, future);
        } else {
            future = it->second;
        }
    }
    if (!built)
        return future.get();

    // Build outside the lock so concurrent lookups of other keys
    // proceed; same-key lookups block on the future.
    try {
        promise.set_value(build());
    } catch (...) {
        promise.set_exception(std::current_exception());
        const std::lock_guard<std::mutex> lock(_mutex);
        entries.erase(key);
        throw;
    }
    return future.get();
}

std::shared_ptr<const WorkloadSnapshot>
TraceCache::snapshot(const TraceBundleKey &key)
{
    const TraceBundleKey skey = key.snapshotKey();
    bool built = false;
    return once(
        _snapshots, skey,
        [&] {
            return WorkloadSnapshot::build(skey.kind, skey.params,
                                           skey.extras());
        },
        built, nullptr);
}

std::shared_ptr<const TraceBundle>
TraceCache::get(const TraceBundleKey &key, bool want_history)
{
    bool built = false;
    std::shared_ptr<const TraceBundle> bundle = once(
        _entries, key,
        [&] {
            return TraceBundle::build(key, want_history,
                                      snapshot(key).get());
        },
        built, &_misses);
    if (built)
        return bundle;

    if (want_history && !bundle->history) {
        // Rare upgrade: a plain bundle exists but the caller needs
        // the write history. Rebuild with history and replace.
        auto upgraded = TraceBundle::build(key, true, snapshot(key).get());
        const std::lock_guard<std::mutex> lock(_mutex);
        std::promise<std::shared_ptr<const TraceBundle>> done;
        done.set_value(upgraded);
        _entries[key] = done.get_future().share();
        ++_misses;
        return upgraded;
    }
    const std::lock_guard<std::mutex> lock(_mutex);
    ++_hits;
    return bundle;
}

void
TraceCache::clear()
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
    _snapshots.clear();
}

std::size_t
TraceCache::size() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    return _entries.size();
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

} // namespace proteus
