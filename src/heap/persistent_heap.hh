/**
 * @file
 * The simulated persistent heap.
 *
 * Programs (the workloads) allocate and manipulate data here through
 * typed reads and writes against the volatile image. The NVM image is
 * only updated by the timing simulation when a write actually becomes
 * durable; crash injection snapshots the NVM image plus whatever the
 * battery-backed queues would drain (Section 2.1, ADR).
 *
 * Address map:
 *   [volatileBase, persistentBase)  - volatile allocations (locks, misc)
 *   [persistentBase, logBase)       - persistent data allocations
 *   [logBase, ...)                  - per-thread log areas (Section 4.1)
 */

#ifndef PROTEUS_HEAP_PERSISTENT_HEAP_HH
#define PROTEUS_HEAP_PERSISTENT_HEAP_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "memory_image.hh"
#include "sim/types.hh"

namespace proteus {

/** Simple exact-fit free-list allocator over a bump region. */
class RegionAllocator
{
  public:
    RegionAllocator(Addr base, Addr limit);

    /** Allocate @p bytes aligned to @p align (power of two). */
    Addr allocate(std::size_t bytes, std::size_t align = 8);

    /** Return a block to the exact-size free list. */
    void release(Addr addr, std::size_t bytes);

    Addr base() const { return _base; }
    Addr frontier() const { return _next; }
    std::uint64_t liveBytes() const { return _liveBytes; }

    /** Complete mutable state, for heap snapshot serialization. */
    struct State
    {
        Addr next = 0;
        std::uint64_t liveBytes = 0;
        /** (size, addresses) free bins, sorted by size for stable
         *  serialization. */
        std::vector<std::pair<std::size_t, std::vector<Addr>>> freeBins;

        bool operator==(const State &) const = default;
    };

    State state() const;
    void restore(const State &s);

  private:
    Addr _base;
    Addr _limit;
    Addr _next;
    std::uint64_t _liveBytes = 0;
    std::map<std::size_t, std::vector<Addr>> _freeBins;
};

/** The byte-addressable persistent main memory seen by workloads. */
class PersistentHeap
{
  public:
    static constexpr Addr volatileBase = 0x0000'0000'0001'0000ull;
    static constexpr Addr persistentBase = 0x0000'0000'4000'0000ull;
    static constexpr Addr logBase = 0x0000'0001'4000'0000ull;
    static constexpr Addr logLimit = 0x0000'0001'8000'0000ull;

    PersistentHeap();

    /** Allocate persistent memory (node storage etc.). */
    Addr alloc(std::size_t bytes, std::size_t align = 8);
    void free(Addr addr, std::size_t bytes);

    /** Allocate volatile memory (locks, scratch). */
    Addr allocVolatile(std::size_t bytes, std::size_t align = 8);

    /** Carve out one per-thread circular log area (Section 4.1). */
    Addr allocLogArea(std::size_t bytes);

    /**
     * A shared read-only arena, larger than the last-level cache, used
     * to model the cold NVM reads real operations perform. Created on
     * first use.
     */
    Addr chaseArena();
    static constexpr std::size_t chaseArenaBytes = 64ull << 20;

    /** @return true if @p addr lies in the persistent data region. */
    static bool
    isPersistent(Addr addr)
    {
        return addr >= persistentBase;
    }

    /** @return true if @p addr lies inside a log area. */
    static bool
    isLogArea(Addr addr)
    {
        return addr >= logBase && addr < logLimit;
    }

    /** Typed access to the volatile (program-visible) image. */
    template <typename T>
    T
    read(Addr addr) const
    {
        T v{};
        _volatileImage.read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        _volatileImage.write(addr, &value, sizeof(T));
    }

    void readBytes(Addr addr, void *out, std::size_t n) const
    {
        _volatileImage.read(addr, out, n);
    }
    void writeBytes(Addr addr, const void *src, std::size_t n)
    {
        _volatileImage.write(addr, src, n);
    }

    MemoryImage &volatileImage() { return _volatileImage; }
    const MemoryImage &volatileImage() const { return _volatileImage; }
    MemoryImage &nvmImage() { return _nvmImage; }
    const MemoryImage &nvmImage() const { return _nvmImage; }

    /**
     * Fast-forward: declare the current volatile contents durable. Used
     * after functional warmup (the paper's InitOps) before timing starts.
     */
    void syncNvmToVolatile() { _nvmImage = _volatileImage; }

    /**
     * Allocator-side mutable state (images excluded), captured for the
     * .ptrace heap section so a deserialized heap can keep allocating —
     * in particular the ATOM per-core log areas FullSystem carves at
     * wiring time must land at the same addresses as in the recording
     * process.
     */
    struct AllocState
    {
        RegionAllocator::State volatileAlloc;
        RegionAllocator::State persistentAlloc;
        Addr nextLogArea = logBase;
        Addr chaseArena = invalidAddr;

        bool operator==(const AllocState &) const = default;
    };

    AllocState allocState() const;
    void restoreAllocState(const AllocState &s);

  private:
    MemoryImage _volatileImage;
    MemoryImage _nvmImage;
    RegionAllocator _volatileAlloc;
    RegionAllocator _persistentAlloc;
    Addr _nextLogArea;
    Addr _chaseArena = invalidAddr;
};

} // namespace proteus

#endif // PROTEUS_HEAP_PERSISTENT_HEAP_HH
