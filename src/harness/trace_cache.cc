#include "trace_cache.hh"

namespace proteus {

std::shared_ptr<const TraceBundle>
TraceCache::get(const TraceBundleKey &key, bool want_history)
{
    {
        Future future;
        std::promise<std::shared_ptr<const TraceBundle>> promise;
        bool builder = false;
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            auto it = _entries.find(key);
            if (it == _entries.end()) {
                builder = true;
                ++_misses;
                future = promise.get_future().share();
                _entries.emplace(key, future);
            } else {
                future = it->second;
            }
        }

        if (builder) {
            // Build outside the lock so concurrent lookups of other
            // keys proceed; same-key lookups block on the future.
            try {
                promise.set_value(
                    TraceBundle::build(key, want_history));
            } catch (...) {
                promise.set_exception(std::current_exception());
                const std::lock_guard<std::mutex> lock(_mutex);
                _entries.erase(key);
                throw;
            }
            return future.get();
        }

        std::shared_ptr<const TraceBundle> bundle = future.get();
        if (want_history && !bundle->history) {
            // Rare upgrade: a plain bundle exists but the caller needs
            // the write history. Rebuild with history and replace.
            auto upgraded = TraceBundle::build(key, true);
            const std::lock_guard<std::mutex> lock(_mutex);
            std::promise<std::shared_ptr<const TraceBundle>> done;
            done.set_value(upgraded);
            _entries[key] = done.get_future().share();
            ++_misses;
            return upgraded;
        }
        {
            const std::lock_guard<std::mutex> lock(_mutex);
            ++_hits;
        }
        return bundle;
    }
}

void
TraceCache::clear()
{
    const std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
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
