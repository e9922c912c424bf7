/** @file Unit tests for the sparse memory image. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

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
