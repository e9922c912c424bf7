/** @file Unit tests for the sparse memory image. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "heap/memory_image.hh"

using namespace proteus;

TEST(MemoryImage, ZeroBeforeTouch)
{
    MemoryImage img;
    EXPECT_EQ(img.read64(0x1234), 0u);
    EXPECT_EQ(img.pageCount(), 0u);
}

TEST(MemoryImage, ReadBackWritten)
{
    MemoryImage img;
    img.write64(0x1000, 0xdeadbeefcafef00dull);
    EXPECT_EQ(img.read64(0x1000), 0xdeadbeefcafef00dull);
    EXPECT_EQ(img.pageCount(), 1u);
}

TEST(MemoryImage, CrossPageAccess)
{
    MemoryImage img;
    const Addr addr = MemoryImage::pageBytes - 3;
    const std::uint64_t v = 0x0102030405060708ull;
    img.write(addr, &v, 8);
    std::uint64_t out = 0;
    img.read(addr, &out, 8);
    EXPECT_EQ(out, v);
    EXPECT_EQ(img.pageCount(), 2u);
}

TEST(MemoryImage, PartialWritesMerge)
{
    MemoryImage img;
    img.write64(0x40, 0);
    const std::uint8_t b = 0xAB;
    img.write(0x42, &b, 1);
    const std::uint64_t v = img.read64(0x40);
    EXPECT_EQ((v >> 16) & 0xFF, 0xABu);
    EXPECT_EQ(v & 0xFFFF, 0u);
}

TEST(MemoryImage, DeepCopyIsIndependent)
{
    MemoryImage a;
    a.write64(0x100, 1);
    MemoryImage b = a;
    b.write64(0x100, 2);
    EXPECT_EQ(a.read64(0x100), 1u);
    EXPECT_EQ(b.read64(0x100), 2u);

    MemoryImage c;
    c = a;
    a.write64(0x100, 3);
    EXPECT_EQ(c.read64(0x100), 1u);

    // Pages are shared copy-on-write: a page three images hold changes
    // only in the image that writes it.
    {
        MemoryImage d = c;
        MemoryImage e = d;
        e.write64(0x108, 4);
        EXPECT_EQ(d.read64(0x108), 0u);
        EXPECT_EQ(c.read64(0x108), 0u);
        EXPECT_TRUE(c.identical(d));
    }
    c.write64(0x100, 5);
    EXPECT_EQ(c.read64(0x100), 5u);
    EXPECT_EQ(a.read64(0x100), 3u);
}

TEST(MemoryImage, ClearDropsPages)
{
    MemoryImage img;
    img.write64(0x10, 9);
    img.clear();
    EXPECT_EQ(img.pageCount(), 0u);
    EXPECT_EQ(img.read64(0x10), 0u);
}

TEST(MemoryImage, LargeSpanRoundTrip)
{
    MemoryImage img;
    std::vector<std::uint8_t> data(3 * MemoryImage::pageBytes + 17);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31 + 7);
    img.write(12345, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    img.read(12345, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(MemoryImage, DiffFindsDifferingWords)
{
    MemoryImage a;
    MemoryImage b;
    a.write64(0x100, 1);
    b.write64(0x100, 2);
    a.write64(0x2000, 7);       // only in a
    b.write64(0x5008, 9);       // only in b (different page)
    a.write64(0x400, 5);        // identical in both
    b.write64(0x400, 5);

    const auto entries = a.diff(b);
    ASSERT_EQ(entries.size(), 3u);
    // Sorted by address, regardless of page-map iteration order.
    EXPECT_EQ(entries[0].addr, 0x100u);
    EXPECT_EQ(entries[0].lhs, 1u);
    EXPECT_EQ(entries[0].rhs, 2u);
    EXPECT_EQ(entries[1].addr, 0x2000u);
    EXPECT_EQ(entries[1].lhs, 7u);
    EXPECT_EQ(entries[1].rhs, 0u);
    EXPECT_EQ(entries[2].addr, 0x5008u);
    EXPECT_EQ(entries[2].lhs, 0u);
    EXPECT_EQ(entries[2].rhs, 9u);
}

TEST(MemoryImage, DiffOfIdenticalImagesIsEmpty)
{
    MemoryImage a;
    a.write64(0x100, 42);
    MemoryImage b = a;
    EXPECT_TRUE(a.diff(b).empty());
    EXPECT_TRUE(a.diff(a).empty());
}

TEST(MemoryImage, DiffHonorsMaxEntries)
{
    MemoryImage a;
    MemoryImage b;
    for (unsigned i = 0; i < 32; ++i)
        a.write64(0x1000 + i * 8, i + 1);
    const auto entries = a.diff(b, 5);
    EXPECT_EQ(entries.size(), 5u);
}

TEST(MemoryImage, FormatDiffIsBoundedAndMentionsElision)
{
    MemoryImage a;
    MemoryImage b;
    for (unsigned i = 0; i < 12; ++i)
        a.write64(0x1000 + i * 8, i + 1);
    const auto entries = a.diff(b);
    const std::string text = MemoryImage::formatDiff(entries, 4);
    EXPECT_NE(text.find("0x000000001000"), std::string::npos);
    EXPECT_NE(text.find("more differing words"), std::string::npos);
    // Exactly 4 value lines plus the elision line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
}

namespace {

/** A byte-wise reference model: absent bytes read as zero. */
struct ByteRef
{
    std::map<Addr, std::uint8_t> bytes;

    void
    write(Addr addr, const void *src, std::size_t n)
    {
        const auto *from = static_cast<const std::uint8_t *>(src);
        for (std::size_t i = 0; i < n; ++i)
            bytes[addr + i] = from[i];
    }

    std::uint8_t
    at(Addr addr) const
    {
        auto it = bytes.find(addr);
        return it == bytes.end() ? 0 : it->second;
    }
};

/** Every byte of [lo, hi) and every 8-byte word starting there reads
 *  the same through @p img as through @p ref. */
void
expectMatches(const MemoryImage &img, const ByteRef &ref, Addr lo, Addr hi)
{
    for (Addr a = lo; a < hi; ++a) {
        std::uint8_t b = 0xFF;
        img.read(a, &b, 1);
        ASSERT_EQ(b, ref.at(a)) << "byte at 0x" << std::hex << a;
        std::uint64_t word = 0;
        for (unsigned i = 0; i < 8; ++i)
            word |= std::uint64_t{ref.at(a + i)} << (8 * i);
        ASSERT_EQ(img.read64(a), word) << "word at 0x" << std::hex << a;
    }
}

} // namespace

TEST(MemoryImage, EightByteAccessAtAndAcrossThePageEnd)
{
    constexpr Addr page = MemoryImage::pageBytes;
    MemoryImage img;
    ByteRef ref;
    std::uint64_t v = 0x1122334455667788ull;
    // 4088 ends exactly at the page end (inline path); 4092 and the
    // unaligned offsets past it cross into the next page (byte loop).
    for (Addr off : {Addr{4088}, Addr{4092}, Addr{4089}, Addr{4095},
                     Addr{1}, Addr{4083}, Addr{2 * page - 3}}) {
        const Addr addr = page + off;
        img.write64(addr, v);
        ref.write(addr, &v, 8);
        v = v * 0x9e3779b97f4a7c15ull + 1;
        img.write(addr + 2 * page, &v, 8);
        ref.write(addr + 2 * page, &v, 8);
        v = v * 0x9e3779b97f4a7c15ull + 1;
    }
    expectMatches(img, ref, page - 16, 6 * page + 16);
    EXPECT_EQ(img.pageCount(), 5u);     // pages 1 through 5

    std::uint64_t out = 0;
    img.read(page + 4092, &out, 8);
    EXPECT_EQ(out, img.read64(page + 4092));
}

TEST(MemoryImage, TableGrowsThroughCollidingPageIndices)
{
    // Page indices that are multiples of 2^40 share their low bits, so
    // a hash that kept only low bits would put them all in one slot.
    MemoryImage img;
    std::vector<Addr> indices;
    for (Addr j = 0; j < 300; ++j) {
        const Addr index = (j % 3 == 0) ? j : (j << 40);
        indices.push_back(index);
        img.write64((index << MemoryImage::pageBits) + 8 * (j % 512),
                    j + 1);
        ASSERT_EQ(img.pageCount(), j + 1);
    }
    std::sort(indices.begin(), indices.end());
    EXPECT_EQ(img.pageIndices(), indices);

    const MemoryImage copy = img;
    for (Addr j = 0; j < 300; ++j) {
        const Addr index = (j % 3 == 0) ? j : (j << 40);
        const Addr base = index << MemoryImage::pageBits;
        EXPECT_EQ(img.read64(base + 8 * (j % 512)), j + 1);
        EXPECT_EQ(copy.read64(base + 8 * (j % 512)), j + 1);
        // The next page is never touched: it reads zero and stays
        // unmaterialized.
        EXPECT_EQ(img.read64(((index + 1) << MemoryImage::pageBits) + 16),
                  0u);
        EXPECT_EQ(img.pageData(index + 1), nullptr);
    }
    EXPECT_EQ(img.pageCount(), 300u);
    EXPECT_TRUE(img.identical(copy));
    img.clear();
    EXPECT_EQ(img.pageCount(), 0u);
    EXPECT_TRUE(img.pageIndices().empty());
    EXPECT_EQ(copy.pageCount(), 300u);
}

TEST(MemoryImage, InlineWriteToSharedPageLeavesTheCopy)
{
    MemoryImage a;
    ByteRef ref;
    for (Addr addr = 0x3000; addr < 0x3000 + MemoryImage::pageBytes;
         addr += 8) {
        a.write64(addr, addr * 3);
        const std::uint64_t v = addr * 3;
        ref.write(addr, &v, 8);
    }
    const MemoryImage copy = a;
    a.write64(0x3008, 0xabcdefull);     // inline path, shared page
    a.write64(0x3010, 0x123456ull);     // inline path, now sole holder
    expectMatches(copy, ref, 0x3000 - 8, 0x4000 + 8);
    EXPECT_EQ(a.read64(0x3008), 0xabcdefull);
    EXPECT_EQ(a.read64(0x3010), 0x123456ull);
    EXPECT_EQ(a.diff(copy).size(), 2u);
}

TEST(MemoryImage, OnlyAFullLineWriteClearsPoison)
{
    MemoryImage img;
    img.markPoisoned(0x1040);
    img.write64(0x1040, 1);             // inline path
    img.write64(0x1078, 2);
    EXPECT_TRUE(img.isPoisoned(0x1040));
    std::uint8_t line[64] = {};
    img.write(0x1041, line, 63);        // byte loop, not the whole line
    EXPECT_TRUE(img.isPoisoned(0x1040));
    img.write(0x1040, line, 64);
    EXPECT_FALSE(img.isPoisoned(0x1040));
    EXPECT_EQ(img.poisonedCount(), 0u);
}

TEST(MemoryImage, ConcurrentReadersOfSharedPages)
{
    constexpr Addr pages = 64;
    MemoryImage shared;
    for (Addr p = 0; p < pages; ++p)
        shared.write64(p << MemoryImage::pageBits, p + 1);

    constexpr unsigned threads = 4;
    std::vector<std::thread> pool;
    std::vector<int> bad(threads, 0);
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&shared, &bad, t] {
            MemoryImage mine = shared;
            for (unsigned round = 0; round < 4; ++round) {
                for (Addr p = 0; p < pages; ++p) {
                    const Addr addr = p << MemoryImage::pageBits;
                    if (shared.read64(addr) != p + 1)
                        ++bad[t];
                    mine.write64(addr, (p + 1) * (t + 2) + round);
                    if (mine.read64(addr) != (p + 1) * (t + 2) + round)
                        ++bad[t];
                }
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (unsigned t = 0; t < threads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
    for (Addr p = 0; p < pages; ++p)
        EXPECT_EQ(shared.read64(p << MemoryImage::pageBits), p + 1);
}
