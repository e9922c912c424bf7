#include "stringswap_wl.hh"

#include "registry.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace proteus {

StringSwapWorkload::StringSwapWorkload(PersistentHeap &heap,
                                       LogScheme scheme,
                                       const WorkloadParams &params)
    : Workload(heap, scheme, params),
      _items(std::max<std::uint64_t>(262144 / params.initScale, 1024))
{
}

void
StringSwapWorkload::allocateStructures()
{
    _array = _heap->alloc(_items * stringBytes, blockSize);
    // Distinct initial contents so swaps are observable.
    for (std::uint64_t i = 0; i < _items; ++i) {
        for (unsigned w = 0; w < stringBytes / 8; ++w) {
            _heap->write<std::uint64_t>(_array + i * stringBytes + w * 8,
                                       i * 1000 + w);
        }
    }
    const std::uint64_t locks =
        (_items + stringsPerLock - 1) / stringsPerLock;
    for (std::uint64_t l = 0; l < locks; ++l)
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
}

void
StringSwapWorkload::swap(unsigned thread, std::uint64_t i,
                         std::uint64_t j)
{
    TraceBuilder &tb = builder(thread);
    const Addr a = stringAddr(i);
    const Addr b = stringAddr(j);

    // Segment locks in index order to avoid deadlock.
    const std::uint64_t seg_lo =
        std::min(i, j) / stringsPerLock;
    const std::uint64_t seg_hi =
        std::max(i, j) / stringsPerLock;
    acquire(thread, _locks[seg_lo]);
    if (seg_hi != seg_lo)
        acquire(thread, _locks[seg_hi]);

    tb.beginTx();
    padPrologue(thread);

    // Read both strings into registers.
    constexpr unsigned words = stringBytes / 8;
    std::uint64_t buf_a[words];
    std::uint64_t buf_b[words];
    Value va[words];
    Value vb[words];
    for (unsigned w = 0; w < words; ++w) {
        va[w] = tb.load(a + w * 8, 8);
        buf_a[w] = va[w].v;
    }
    for (unsigned w = 0; w < words; ++w) {
        vb[w] = tb.load(b + w * 8, 8);
        buf_b[w] = vb[w].v;
    }

    tb.declareLogged(a, stringBytes);
    tb.declareLogged(b, stringBytes);

    for (unsigned w = 0; w < words; ++w)
        tb.store(a + w * 8, 8, buf_b[w], vb[w]);
    for (unsigned w = 0; w < words; ++w)
        tb.store(b + w * 8, 8, buf_a[w], va[w]);

    tb.endTx();

    if (seg_hi != seg_lo)
        release(thread, _locks[seg_hi]);
    release(thread, _locks[seg_lo]);
}

void
StringSwapWorkload::doInitOp(unsigned thread)
{
    // Warm the array (and caches of the functional state) with swaps.
    doOp(thread);
}

void
StringSwapWorkload::doOp(unsigned thread)
{
    Random &r = rng(thread);
    const std::uint64_t i = r.nextBelow(_items);
    std::uint64_t j = r.nextBelow(_items);
    if (j == i)
        j = (j + 1) % _items;
    swap(thread, i, j);
}

std::string
StringSwapWorkload::serialize(const MemoryImage &image) const
{
    // The full array is large; serialize a deterministic sample plus a
    // whole-array checksum.
    std::ostringstream os;
    std::uint64_t checksum = 1469598103934665603ull;
    for (std::uint64_t i = 0; i < _items; ++i) {
        const std::uint64_t first =
            image.read64(_array + i * stringBytes);
        checksum = (checksum ^ first) * 1099511628211ull;
    }
    os << "checksum: " << checksum << "\n";
    for (std::uint64_t i = 0; i < std::min<std::uint64_t>(_items, 64);
         ++i) {
        os << i << ": " << image.read64(_array + i * stringBytes)
           << "\n";
    }
    return os.str();
}

std::string
StringSwapWorkload::checkInvariants(const MemoryImage &image) const
{
    // Swaps permute strings: every string must still be internally
    // consistent (word w == word 0 + w) and the multiset of first
    // words must be exactly {0, 1000, 2000, ...}.
    std::ostringstream err;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < _items; ++i) {
        const Addr s = _array + i * stringBytes;
        const std::uint64_t first = image.read64(s);
        if (first % 1000 != 0) {
            err << "string " << i << ": torn first word " << first
                << "\n";
            continue;
        }
        sum += first / 1000;
        for (unsigned w = 1; w < stringBytes / 8; ++w) {
            if (image.read64(s + w * 8) != first + w) {
                err << "string " << i << ": torn at word " << w << "\n";
                break;
            }
        }
    }
    const std::uint64_t expect = (_items - 1) * _items / 2;
    if (sum != expect)
        err << "string id sum " << sum << " != expected " << expect
            << " (lost or duplicated strings)\n";
    return err.str();
}


WorkloadRegistration
stringSwapWorkloadRegistration()
{
    return {WorkloadKind::StringSwap, "SS", "stringswap",
            "swap 256-byte strings in a large string array (Table 2)",
            "", true,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &)
                -> std::unique_ptr<Workload> {
                return std::make_unique<StringSwapWorkload>(heap, scheme, params);
            }};
}

} // namespace proteus
