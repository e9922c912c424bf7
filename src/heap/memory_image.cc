#include "memory_image.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace proteus {

MemoryImage::Page &
MemoryImage::touch(Addr page_index)
{
    auto it = _pages.find(page_index);
    if (it == _pages.end()) {
        it = _pages.emplace(page_index, std::make_shared<Page>()).first;
    } else if (it->second.use_count() > 1) {
        // Another image still holds this page: write a private clone.
        it->second = std::make_shared<Page>(*it->second);
    } else {
        // Sole holder. Order this write after every access the other
        // holders made before they released the page (use_count reads
        // the count relaxed; the release decrement pairs with this).
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    return *it->second;
}

const MemoryImage::Page *
MemoryImage::peek(Addr page_index) const
{
    auto it = _pages.find(page_index);
    return it == _pages.end() ? nullptr : it->second.get();
}

void
MemoryImage::read(Addr addr, void *out, std::size_t n) const
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
MemoryImage::write(Addr addr, const void *src, std::size_t n)
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
    indices.reserve(_pages.size());
    for (const auto &[index, page] : _pages)
        indices.push_back(index);
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
    // The page maps are unordered; walk the sorted union of page
    // indices so the result is deterministic and address-ordered.
    std::vector<Addr> indices;
    indices.reserve(_pages.size() + other._pages.size());
    for (const auto &[index, page] : _pages)
        indices.push_back(index);
    for (const auto &[index, page] : other._pages) {
        if (_pages.find(index) == _pages.end())
            indices.push_back(index);
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

std::uint64_t
MemoryImage::read64(Addr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
MemoryImage::write64(Addr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

} // namespace proteus
