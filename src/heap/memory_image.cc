#include "memory_image.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace proteus {

MemoryImage::Page &
MemoryImage::touchSlow(Addr page_index)
{
    if (!_slots.empty()) {
        std::shared_ptr<Page> &page = _slots[find(page_index)].page;
        if (page) {
            // Another image still holds this page: write a private
            // clone.
            page = std::make_shared<Page>(*page);
            return *page;
        }
    }
    if (2 * (_used + 1) > _slots.size())
        rehash(std::max(minSlots, 2 * _slots.size()));
    Slot &slot = _slots[find(page_index)];
    slot.index = page_index;
    slot.page = std::make_shared<Page>();
    ++_used;
    return *slot.page;
}

void
MemoryImage::rehash(std::size_t slots)
{
    std::vector<Slot> old(slots);
    old.swap(_slots);
    _shift = 64 - static_cast<unsigned>(std::countr_zero(slots));
    for (Slot &slot : old) {
        if (slot.page)
            _slots[find(slot.index)] = std::move(slot);
    }
}

void
MemoryImage::readSlow(Addr addr, void *out, std::size_t n) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (n > 0) {
        const Addr page_index = pageBase(addr);
        const std::size_t off = pageOffset(addr);
        const std::size_t chunk = std::min(n, pageBytes - off);
        if (const Page *page = peek(page_index))
            std::memcpy(dst, page->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
MemoryImage::writeSlow(Addr addr, const void *src, std::size_t n)
{
    // A write covering a whole poisoned line re-establishes valid ECC.
    if (!_poison.empty()) {
        for (Addr line = blockAlign(addr); line + blockSize <= addr + n;
             line += blockSize) {
            if (line >= addr)
                _poison.erase(line);
        }
    }
    const auto *from = static_cast<const std::uint8_t *>(src);
    while (n > 0) {
        const Addr page_index = pageBase(addr);
        const std::size_t off = pageOffset(addr);
        const std::size_t chunk = std::min(n, pageBytes - off);
        std::memcpy(touch(page_index).data() + off, from, chunk);
        from += chunk;
        addr += chunk;
        n -= chunk;
    }
}

std::vector<Addr>
MemoryImage::poisonedLines() const
{
    std::vector<Addr> lines(_poison.begin(), _poison.end());
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::vector<Addr>
MemoryImage::pageIndices() const
{
    std::vector<Addr> indices;
    indices.reserve(_used);
    for (const Slot &slot : _slots) {
        if (slot.page)
            indices.push_back(slot.index);
    }
    std::sort(indices.begin(), indices.end());
    return indices;
}

const std::uint8_t *
MemoryImage::pageData(Addr page_index) const
{
    const Page *page = peek(page_index);
    return page ? page->data() : nullptr;
}

std::vector<MemoryImage::DiffEntry>
MemoryImage::diff(const MemoryImage &other,
                  std::size_t max_entries) const
{
    // The page tables are unordered; walk the sorted union of page
    // indices so the result is deterministic and address-ordered.
    std::vector<Addr> indices;
    indices.reserve(_used + other._used);
    for (const Slot &slot : _slots) {
        if (slot.page)
            indices.push_back(slot.index);
    }
    for (const Slot &slot : other._slots) {
        if (slot.page && peek(slot.index) == nullptr)
            indices.push_back(slot.index);
    }
    std::sort(indices.begin(), indices.end());

    std::vector<DiffEntry> entries;
    static const Page zeroPage{};
    for (const Addr index : indices) {
        const Page *lhs = peek(index);
        const Page *rhs = other.peek(index);
        if (lhs == nullptr)
            lhs = &zeroPage;
        if (rhs == nullptr)
            rhs = &zeroPage;
        if (lhs == rhs ||
            std::memcmp(lhs->data(), rhs->data(), pageBytes) == 0) {
            continue;
        }
        for (std::size_t off = 0; off < pageBytes; off += 8) {
            std::uint64_t l, r;
            std::memcpy(&l, lhs->data() + off, 8);
            std::memcpy(&r, rhs->data() + off, 8);
            if (l == r)
                continue;
            if (entries.size() >= max_entries)
                return entries;
            entries.push_back(DiffEntry{(index << pageBits) + off,
                                        l, r});
        }
    }
    return entries;
}

std::string
MemoryImage::formatDiff(const std::vector<DiffEntry> &entries,
                        std::size_t max_lines)
{
    std::string out;
    const std::size_t shown = std::min(entries.size(), max_lines);
    for (std::size_t i = 0; i < shown; ++i) {
        char line[96];
        std::snprintf(line, sizeof(line),
                      "  0x%012llx: 0x%016llx != 0x%016llx\n",
                      static_cast<unsigned long long>(entries[i].addr),
                      static_cast<unsigned long long>(entries[i].lhs),
                      static_cast<unsigned long long>(entries[i].rhs));
        out += line;
    }
    if (entries.size() > shown) {
        out += "  ... " + std::to_string(entries.size() - shown) +
               " more differing words\n";
    }
    return out;
}

} // namespace proteus
