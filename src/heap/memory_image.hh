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
 *
 * Pages live in an open-addressing table (DESIGN.md §5.14). An aligned
 * 8-byte access inside one page, nearly every access the workloads
 * make, is inline: one probe and a fixed-size copy.
 */

#ifndef PROTEUS_HEAP_MEMORY_IMAGE_HH
#define PROTEUS_HEAP_MEMORY_IMAGE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
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
    /** A moved-from image is empty. */
    MemoryImage(MemoryImage &&other) noexcept { *this = std::move(other); }
    MemoryImage &
    operator=(MemoryImage &&other) noexcept
    {
        _slots = std::exchange(other._slots, {});
        _used = std::exchange(other._used, 0);
        _shift = other._shift;
        _poison = std::exchange(other._poison, {});
        return *this;
    }

    /** Copy @p n bytes at @p addr into @p out (zero for untouched). */
    void
    read(Addr addr, void *out, std::size_t n) const
    {
        const std::size_t off = pageOffset(addr);
        if (n != 8 || off > pageBytes - 8) {
            readSlow(addr, out, n);
        } else if (const Page *page = peek(pageBase(addr))) {
            std::memcpy(out, page->data() + off, 8);
        } else {
            std::memset(out, 0, 8);
        }
    }

    /** Write @p n bytes from @p src at @p addr. */
    void
    write(Addr addr, const void *src, std::size_t n)
    {
        // Eight bytes never cover a whole line, so the inline path
        // never clears a poison mark.
        const std::size_t off = pageOffset(addr);
        if (n != 8 || off > pageBytes - 8)
            writeSlow(addr, src, n);
        else
            std::memcpy(touch(pageBase(addr)).data() + off, src, 8);
    }

    /** Little-endian fixed-width helpers. */
    std::uint64_t
    read64(Addr addr) const
    {
        std::uint64_t v = 0;
        read(addr, &v, sizeof(v));
        return v;
    }
    void
    write64(Addr addr, std::uint64_t value)
    {
        write(addr, &value, sizeof(value));
    }

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
    std::size_t pageCount() const { return _used; }

    /**
     * Materialized page indices (addr >> pageBits), sorted ascending so
     * serialization is deterministic regardless of table order.
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
    void clear() { _slots.clear(); _used = 0; _poison.clear(); }

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

    /** A page-table slot. Pages are only dropped all at once (clear()),
     *  so a slot never empties again and probing needs no tombstones;
     *  a free slot holds noPage and a null page. */
    struct Slot
    {
        Addr index = noPage;
        std::shared_ptr<Page> page;
    };

    /** No page index (addr >> pageBits) has all bits set. */
    static constexpr Addr noPage = ~Addr{0};
    static constexpr std::size_t minSlots = 16;

    static Addr pageBase(Addr a) { return a >> pageBits; }
    static std::size_t pageOffset(Addr a)
    {
        return static_cast<std::size_t>(a & (pageBytes - 1));
    }

    /**
     * The slot holding @p page_index, or the free slot that ends its
     * probe run. The table must not be empty; it is at most half full,
     * so the run always ends.
     */
    std::size_t
    find(Addr page_index) const
    {
        const std::size_t mask = _slots.size() - 1;
        // Multiplicative (Fibonacci) hashing: the product's top bits.
        std::size_t i = static_cast<std::size_t>(
            (page_index * 0x9e3779b97f4a7c15ull) >> _shift);
        while (_slots[i].index != page_index && _slots[i].index != noPage)
            i = (i + 1) & mask;
        return i;
    }

    const Page *
    peek(Addr page_index) const
    {
        return _slots.empty() ? nullptr
                              : _slots[find(page_index)].page.get();
    }

    /** The page at @p page_index, materialized and unshared, for a
     *  write. */
    Page &
    touch(Addr page_index)
    {
        if (!_slots.empty()) {
            const std::shared_ptr<Page> &page =
                _slots[find(page_index)].page;
            if (page.use_count() == 1) {
                // Sole holder. Order this write after every access the
                // other holders made before they released the page
                // (use_count reads the count relaxed; the release
                // decrement pairs with this).
                std::atomic_thread_fence(std::memory_order_acquire);
                return *page;
            }
        }
        return touchSlow(page_index);
    }

    /** touch() for a page that is missing or still shared. */
    Page &touchSlow(Addr page_index);
    /** Move every page into a table of @p slots (a power of two). */
    void rehash(std::size_t slots);

    /** The byte loops behind read()/write(): any size, any span. */
    void readSlow(Addr addr, void *out, std::size_t n) const;
    void writeSlow(Addr addr, const void *src, std::size_t n);

    std::vector<Slot> _slots;       ///< power-of-two size, or empty
    std::size_t _used = 0;          ///< materialized pages
    unsigned _shift = 64;           ///< 64 - log2(_slots.size())
    /** Lines flagged detected-uncorrectable by the media fault model;
     *  empty (and cost-free) unless fault injection is active. */
    std::unordered_set<Addr> _poison;
};

} // namespace proteus

#endif // PROTEUS_HEAP_MEMORY_IMAGE_HH
