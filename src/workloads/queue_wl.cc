#include "queue_wl.hh"

#include "registry.hh"

#include <sstream>

#include "sim/logging.hh"

namespace proteus {

QueueWorkload::QueueWorkload(PersistentHeap &heap, LogScheme scheme,
                             const WorkloadParams &params)
    : Workload(heap, scheme, params)
{
}

void
QueueWorkload::allocateStructures()
{
    for (unsigned q = 0; q < numQueues; ++q) {
        const Addr hdr = _heap->alloc(blockSize, blockSize);
        _heap->write<std::uint64_t>(hdr + 0, 0);     // head
        _heap->write<std::uint64_t>(hdr + 8, 0);     // tail
        _heap->write<std::uint64_t>(hdr + 16, 0);    // count
        _headers.push_back(hdr);
        _locks.push_back(_heap->allocVolatile(blockSize, blockSize));
    }
}

void
QueueWorkload::enqueue(unsigned thread, unsigned q, std::uint64_t value)
{
    TraceBuilder &tb = builder(thread);
    const Addr hdr = header(q);
    const Addr node = allocNode(thread, nodeBytes);

    acquire(thread, _locks[q]);
    tb.beginTx();
    padPrologue(thread);
    padAlloc(thread);

    const Value tail = tb.load(hdr + 8, 8);
    const Value count = tb.load(hdr + 16, 8);
    tb.branch(site(0), tail.v != 0, tail);

    // The header always changes; a nonempty queue also relinks the
    // current tail node.
    tb.declareLogged(hdr, 24);
    if (tail.v != 0)
        tb.declareLogged(tail.v + 8, 8);

    tb.storeInit(node + 0, 8, value);
    tb.storeInit(node + 8, 8, 0);
    for (unsigned off = 16; off < nodeBytes; off += 8)
        tb.storeInit(node + off, 8, 0);     // payload/padding init
    if (tail.v != 0) {
        tb.store(tail.v + 8, 8, node, tail);    // old tail -> node
    } else {
        tb.store(hdr + 0, 8, node);             // head = node
    }
    tb.store(hdr + 8, 8, node);                 // tail = node
    tb.store(hdr + 16, 8, count.v + 1, count);  // count++

    tb.endTx();
    release(thread, _locks[q]);
}

void
QueueWorkload::dequeue(unsigned thread, unsigned q)
{
    TraceBuilder &tb = builder(thread);
    const Addr hdr = header(q);

    acquire(thread, _locks[q]);
    tb.beginTx();
    padPrologue(thread);
    padFree(thread);

    const Value head = tb.load(hdr + 0, 8);
    tb.branch(site(1), head.v != 0, head);
    if (head.v == 0) {
        // Empty queue: the transaction commits with no updates.
        tb.endTx();
        release(thread, _locks[q]);
        return;
    }

    const Value next = tb.load(head.v + 8, 8, head);
    const Value count = tb.load(hdr + 16, 8);
    tb.branch(site(2), next.v != 0, next);

    tb.declareLogged(hdr, 24);
    tb.store(hdr + 0, 8, next.v, next);         // head = head->next
    if (next.v == 0)
        tb.store(hdr + 8, 8, 0);                // queue emptied
    tb.store(hdr + 16, 8, count.v - 1, count);  // count--

    tb.endTx();
    release(thread, _locks[q]);
    freeNode(thread, head.v, nodeBytes);
}

void
QueueWorkload::runOp(unsigned thread, bool init_only)
{
    Random &r = rng(thread);
    const unsigned q =
        static_cast<unsigned>(r.nextBelow(numQueues));
    const bool do_enqueue = init_only || r.nextBool(0.5);
    if (do_enqueue)
        enqueue(thread, q, _nextValue++);
    else
        dequeue(thread, q);
}

void
QueueWorkload::doInitOp(unsigned thread)
{
    runOp(thread, true);
}

void
QueueWorkload::doOp(unsigned thread)
{
    runOp(thread, false);
}

std::string
QueueWorkload::serialize(const MemoryImage &image) const
{
    std::ostringstream os;
    for (unsigned q = 0; q < numQueues; ++q) {
        os << "q" << q << ":";
        Addr node = image.read64(header(q) + 0);
        std::uint64_t walked = 0;
        while (node != 0 && walked < 10'000'000) {
            os << " " << image.read64(node + 0);
            node = image.read64(node + 8);
            ++walked;
        }
        os << "\n";
    }
    return os.str();
}

std::string
QueueWorkload::checkInvariants(const MemoryImage &image) const
{
    std::ostringstream err;
    for (unsigned q = 0; q < numQueues; ++q) {
        const Addr hdr = header(q);
        const Addr head = image.read64(hdr + 0);
        const Addr tail = image.read64(hdr + 8);
        const std::uint64_t count = image.read64(hdr + 16);

        if ((head == 0) != (tail == 0)) {
            err << "q" << q << ": head/tail emptiness disagree\n";
            continue;
        }
        std::uint64_t walked = 0;
        Addr node = head;
        Addr last = 0;
        while (node != 0 && walked <= count + 1) {
            last = node;
            node = image.read64(node + 8);
            ++walked;
        }
        if (walked != count)
            err << "q" << q << ": count " << count << " but walked "
                << walked << "\n";
        if (head != 0 && last != tail)
            err << "q" << q << ": tail does not match last node\n";
    }
    return err.str();
}


WorkloadRegistration
queueWorkloadRegistration()
{
    return {WorkloadKind::Queue, "QE", "queue",
            "enqueue/dequeue in 8 shared linked-list queues (Table 2)",
            "", true,
            [](PersistentHeap &heap, LogScheme scheme,
               const WorkloadParams &params,
               const WorkloadExtras &)
                -> std::unique_ptr<Workload> {
                return std::make_unique<QueueWorkload>(heap, scheme, params);
            }};
}

} // namespace proteus
