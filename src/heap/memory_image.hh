/**
 * @file
 * A sparse byte-addressable memory image backing the simulated address
 * space. Two images exist per system: the volatile image (what the
 * program sees through the cache hierarchy) and the NVM image (what has
 * actually persisted). Pages materialize on first touch and read as
 * zero before that.
 *
 * Pages are shared copy-on-write: copying an image copies page
 * pointers, and the first write to a page that another image still
 * holds clones it. Copies of a large image (a post-setup snapshot, a
 * bundle's heap, a crash image) therefore cost one pointer per page and
 * share every page neither side writes. A page is only ever written
 * through an image that holds it alone, so images sharing pages may be
 * read and copied from any number of threads.
 */

#ifndef PROTEUS_HEAP_MEMORY_IMAGE_HH
#define PROTEUS_HEAP_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/types.hh"

namespace proteus {

/** Sparse paged storage for a 64-bit simulated address space. */
class MemoryImage
{
  public:
    static constexpr unsigned pageBits = 12;
    static constexpr std::size_t pageBytes = std::size_t{1} << pageBits;

    MemoryImage() = default;
    MemoryImage(const MemoryImage &) = default;
    MemoryImage &operator=(const MemoryImage &) = default;
    MemoryImage(MemoryImage &&) = default;
    MemoryImage &operator=(MemoryImage &&) = default;

    /** Copy @p n bytes at @p addr into @p out (zero for untouched). */
    void read(Addr addr, void *out, std::size_t n) const;

    /** Write @p n bytes from @p src at @p addr. */
    void write(Addr addr, const void *src, std::size_t n);

    /** Little-endian fixed-width helpers. */
    std::uint64_t read64(Addr addr) const;
    void write64(Addr addr, std::uint64_t value);

    /** One differing 8-byte word between two images. */
    struct DiffEntry
    {
        Addr addr = invalidAddr;    ///< 8-byte aligned
        std::uint64_t lhs = 0;      ///< this image's word
        std::uint64_t rhs = 0;      ///< the other image's word
    };

    /**
     * Compare against @p other at 8-byte word granularity over the
     * union of both images' materialized pages (untouched pages read
     * as zero). Entries come back sorted by address; at most
     * @p max_entries are collected, so a hit of exactly that many may
     * mean the comparison was cut short.
     */
    std::vector<DiffEntry> diff(const MemoryImage &other,
                                std::size_t max_entries = SIZE_MAX)
        const;

    /** Render up to @p max_lines entries as "addr: lhs != rhs" lines,
     *  with a trailing elision note when entries were held back. */
    static std::string formatDiff(const std::vector<DiffEntry> &entries,
                                  std::size_t max_lines = 16);

    /** @return number of materialized pages (tests, footprint stats). */
    std::size_t pageCount() const { return _pages.size(); }

    /**
     * Materialized page indices (addr >> pageBits), sorted ascending so
     * serialization is deterministic regardless of hash-map order.
     */
    std::vector<Addr> pageIndices() const;

    /** Raw bytes of a materialized page; null if never touched. */
    const std::uint8_t *pageData(Addr page_index) const;

    /** @return true if both images hold identical contents (untouched
     *  pages read as zero, so an all-zero page equals a missing one). */
    bool identical(const MemoryImage &other) const
    {
        return diff(other, 1).empty();
    }

    /** Drop all contents. */
    void clear() { _pages.clear(); _poison.clear(); }

    /// @name Media-fault poison tracking (64B line granularity)
    /// @{
    /**
     * Mark the cache line containing @p addr as detected-uncorrectable
     * (failed media ECC). Poison is metadata carried alongside the
     * bytes: it travels through copies (crash images) and is cleared
     * when write() fully overwrites the line, modeling a clean rewrite
     * re-establishing valid ECC.
     */
    void markPoisoned(Addr addr) { _poison.insert(blockAlign(addr)); }

    /** @return true if @p addr's line is marked poisoned. */
    bool
    isPoisoned(Addr addr) const
    {
        return !_poison.empty() && _poison.count(blockAlign(addr)) > 0;
    }

    /** @return number of currently poisoned lines. */
    std::uint64_t poisonedCount() const { return _poison.size(); }

    /** Poisoned line addresses, sorted for deterministic reporting. */
    std::vector<Addr> poisonedLines() const;
    /// @}

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    static Addr pageBase(Addr a) { return a >> pageBits; }
    static std::size_t pageOffset(Addr a)
    {
        return static_cast<std::size_t>(a & (pageBytes - 1));
    }

    /** The page at @p page_index, materialized and unshared, for a
     *  write. */
    Page &touch(Addr page_index);
    const Page *peek(Addr page_index) const;

    std::unordered_map<Addr, std::shared_ptr<Page>> _pages;
    /** Lines flagged detected-uncorrectable by the media fault model;
     *  empty (and cost-free) unless fault injection is active. */
    std::unordered_set<Addr> _poison;
};

} // namespace proteus

#endif // PROTEUS_HEAP_MEMORY_IMAGE_HH
