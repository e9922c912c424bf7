#include "hashmap_wl.hh"

#include "registry.hh"

#include <sstream>

#include "sim/logging.hh"

namespace proteus {

namespace {

std::uint64_t
mixKey(std::uint64_t key)
{
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return key;
}

} // namespace

HashMapWorkload::HashMapWorkload(PersistentHeap &heap, LogScheme scheme,
                                 const WorkloadParams &params)
    : Workload(heap, scheme, params)
{
}

void
HashMapWorkload::allocateStructures()
{
    for (unsigned m = 0; m < numMaps; ++m) {
        const Addr base =
            _heap->alloc(numBuckets * 8, blockSize);
        for (unsigned b = 0; b < numBuckets; ++b)
            _heap->write<std::uint64_t>(base + b * 8, 0);
        _buckets.push_back(base);
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
    }
}

Addr
HashMapWorkload::bucketAddr(unsigned m, std::uint64_t key) const
{
    return _buckets[m] + (mixKey(key) % numBuckets) * 8;
}

std::uint64_t
HashMapWorkload::randomKey(unsigned thread)
{
    // A modest key space keeps hits and misses both common.
    return rng(thread).nextBelow(initOps() * _params.threads * 2 + 16);
}

void
HashMapWorkload::insert(unsigned thread, unsigned m, std::uint64_t key,
                        std::uint64_t val)
{
    TraceBuilder &tb = builder(thread);
    const Addr bucket = bucketAddr(m, key);

    acquire(thread, _locks[m]);
    tb.beginTx();
    padPrologue(thread);
    padHash(thread);
    padAlloc(thread);

    // Chain walk: find the key if present.
    Value cur = tb.load(bucket, 8);
    Value found{};
    unsigned depth = 0;
    while (cur.v != 0) {
        const Value k = tb.load(cur.v + 0, 8, cur);
        tb.branch(site(0), k.v == key, k);
        if (k.v == key) {
            found = cur;
            break;
        }
        cur = tb.load(cur.v + 16, 8, cur);
        ++depth;
        tb.branch(site(1), cur.v != 0, cur);
    }

    if (found.v != 0) {
        // Update in place.
        tb.declareLogged(found.v, 16);
        tb.store(found.v + 8, 8, val, found);
    } else {
        // Insert at chain head: only the bucket word changes.
        const Addr node = allocNode(thread, nodeBytes);
        const Value old_head = tb.load(bucket, 8);
        tb.declareLogged(bucket, 8);
        tb.storeInit(node + 0, 8, key);
        tb.storeInit(node + 8, 8, val);
        tb.storeInit(node + 16, 8, old_head.v, old_head);
        for (unsigned off = 24; off < nodeBytes; off += 8)
            tb.storeInit(node + off, 8, 0); // padding init
        tb.store(bucket, 8, node);
    }

    tb.endTx();
    release(thread, _locks[m]);
}

void
HashMapWorkload::erase(unsigned thread, unsigned m, std::uint64_t key)
{
    TraceBuilder &tb = builder(thread);
    const Addr bucket = bucketAddr(m, key);

    acquire(thread, _locks[m]);
    tb.beginTx();
    padPrologue(thread);
    padHash(thread);

    Value prev{};   // zero: the bucket word itself
    Value cur = tb.load(bucket, 8);
    Addr victim = 0;
    std::uint64_t victim_next = 0;
    while (cur.v != 0) {
        const Value k = tb.load(cur.v + 0, 8, cur);
        tb.branch(site(2), k.v == key, k);
        if (k.v == key) {
            const Value next = tb.load(cur.v + 16, 8, cur);
            victim = cur.v;
            victim_next = next.v;
            break;
        }
        prev = cur;
        cur = tb.load(cur.v + 16, 8, cur);
        tb.branch(site(3), cur.v != 0, cur);
    }

    if (victim != 0) {
        if (prev.v != 0) {
            tb.declareLogged(prev.v + 16, 8);
            tb.store(prev.v + 16, 8, victim_next, prev);
        } else {
            tb.declareLogged(bucket, 8);
            tb.store(bucket, 8, victim_next);
        }
    }

    tb.endTx();
    release(thread, _locks[m]);
    if (victim != 0)
        freeNode(thread, victim, nodeBytes);
}

void
HashMapWorkload::doInitOp(unsigned thread)
{
    const std::uint64_t key = randomKey(thread);
    insert(thread, static_cast<unsigned>(mixKey(key * 31) % numMaps),
           key, key * 3 + 1);
}

void
HashMapWorkload::doOp(unsigned thread)
{
    Random &r = rng(thread);
    const std::uint64_t key = randomKey(thread);
    const unsigned m =
        static_cast<unsigned>(mixKey(key * 31) % numMaps);
    if (r.nextBool(0.5))
        insert(thread, m, key, key * 7 + 5);
    else
        erase(thread, m, key);
}

std::string
HashMapWorkload::serialize(const MemoryImage &image) const
{
    std::ostringstream os;
    for (unsigned m = 0; m < numMaps; ++m) {
        for (unsigned b = 0; b < numBuckets; ++b) {
            Addr node = image.read64(_buckets[m] + b * 8);
            if (node == 0)
                continue;
            os << "m" << m << "b" << b << ":";
            std::uint64_t walked = 0;
            while (node != 0 && walked < 1'000'000) {
                os << " (" << image.read64(node + 0) << ","
                   << image.read64(node + 8) << ")";
                node = image.read64(node + 16);
                ++walked;
            }
            os << "\n";
        }
    }
    return os.str();
}

std::string
HashMapWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned m = 0; m < numMaps; ++m) {
        for (unsigned b = 0; b < numBuckets; ++b) {
            Addr node = image.read64(_buckets[m] + b * 8);
            std::uint64_t walked = 0;
            while (node != 0) {
                const std::uint64_t key = image.read64(node);
                if (bucketAddr(m, key) != _buckets[m] + b * 8) {
                    err << "m" << m << "b" << b << ": key " << key
                        << " in the wrong bucket\n";
                    break;
                }
                node = image.read64(node + 16);
                if (++walked > 100000) {
                    err << "m" << m << "b" << b
                        << ": chain cycle suspected\n";
                    break;
                }
            }
        }
    }
    return err.str();
}


WorkloadRegistration
hashMapWorkloadRegistration()
{
    return {WorkloadKind::HashMap, "HM", "hashmap",
            "insert or delete entries in 16 chained hash maps (Table 2)",
            "", true,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &)
                -> std::unique_ptr<Workload> {
                return std::make_unique<HashMapWorkload>(heap, scheme, params);
            }};
}

} // namespace proteus
