#include "trace_bundle.hh"

#include <sstream>

#include "sim/logging.hh"

namespace proteus {

namespace {

inline void
hashMix(std::size_t &h, std::uint64_t v)
{
    // splitmix64-style avalanche, folded into the running hash.
    v ^= h + 0x9e3779b97f4a7c15ull + (v << 6) + (v >> 2);
    v *= 0xbf58476d1ce4e5b9ull;
    v ^= v >> 27;
    h = static_cast<std::size_t>(v);
}

} // namespace

bool
TraceBundleKey::operator==(const TraceBundleKey &o) const
{
    return kind == o.kind && scheme == o.scheme &&
           params.threads == o.params.threads &&
           params.scale == o.params.scale &&
           params.initScale == o.params.initScale &&
           params.seed == o.params.seed &&
           params.logAreaBytes == o.params.logAreaBytes &&
           llOpts.elementsPerNode == o.llOpts.elementsPerNode &&
           (kind != WorkloadKind::Generated || gen == o.gen);
}

std::size_t
TraceBundleKey::hash() const
{
    std::size_t h = 0;
    hashMix(h, static_cast<std::uint64_t>(kind));
    hashMix(h, static_cast<std::uint64_t>(scheme));
    hashMix(h, params.threads);
    hashMix(h, params.scale);
    hashMix(h, params.initScale);
    hashMix(h, params.seed);
    hashMix(h, params.logAreaBytes);
    hashMix(h, llOpts.elementsPerNode);
    if (kind == WorkloadKind::Generated)
        hashMix(h, gen.hash());
    return h;
}

std::string
TraceBundleKey::describe() const
{
    std::ostringstream os;
    os << toString(kind) << "/" << toString(scheme) << " t"
       << params.threads << " scale" << params.scale << " init"
       << params.initScale << " seed" << params.seed;
    if (kind == WorkloadKind::LinkedList)
        os << " epn" << llOpts.elementsPerNode;
    if (kind == WorkloadKind::Generated)
        os << " [" << gen.canonical() << "]";
    return os.str();
}

TraceBundleKey
TraceBundleKey::snapshotKey() const
{
    TraceBundleKey k = *this;
    k.scheme = LogScheme::Proteus;
    return k;
}

std::shared_ptr<TraceBundle>
TraceBundle::build(const TraceBundleKey &key, bool want_history,
                   const WorkloadSnapshot *snapshot)
{
    std::shared_ptr<const WorkloadSnapshot> own;
    if (!snapshot) {
        own = WorkloadSnapshot::build(key.kind, key.params, key.extras());
        snapshot = own.get();
    }
    auto bundle = std::make_shared<TraceBundle>();
    bundle->key = key;
    WorkloadSnapshot::Fork fork = snapshot->fork(key.scheme);
    bundle->heap = std::move(fork.heap);
    bundle->workload = std::move(fork.workload);

    // Functional phase from the populated (InitOps) snapshot:
    // fast-forward the NVM image, then record.
    bundle->heap->syncNvmToVolatile();

    auto history =
        want_history ? std::make_shared<WriteHistory>() : nullptr;
    const unsigned threads = key.params.threads;
    if (history) {
        for (unsigned t = 0; t < threads; ++t)
            bundle->workload->builder(t).setWriteObserver(history.get());
    }
    bundle->workload->generateTraces();
    if (history) {
        for (unsigned t = 0; t < threads; ++t)
            bundle->workload->builder(t).setWriteObserver(nullptr);
    }
    bundle->history = std::move(history);

    bundle->threads.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        TraceBuilder &tb = bundle->workload->builder(t);
        ThreadTrace tt;
        tt.trace = tb.takeTrace();
        tt.logStart = tb.logAreaStart();
        tt.logEnd = tb.logAreaEnd();
        tt.logFlag = tb.logFlagAddr();
        tt.txCount = tb.txCount();
        bundle->threads.push_back(std::move(tt));
    }
    bundle->computeLockMap();
    return bundle;
}

void
TraceBundle::computeLockMap()
{
    lockMap.clear();
    for (const ThreadTrace &tt : threads) {
        for (std::size_t i = 0; i < tt.trace.size(); ++i) {
            const MicroOp &op = tt.trace.op(i);
            if (op.op == Op::LockAcquire)
                ++lockMap[op.addr];
        }
    }
}

std::uint64_t
TraceBundle::totalOps() const
{
    std::uint64_t n = 0;
    for (const ThreadTrace &tt : threads)
        n += tt.trace.size();
    return n;
}

std::uint64_t
TraceBundle::totalTxs() const
{
    std::uint64_t n = 0;
    for (const ThreadTrace &tt : threads)
        n += tt.txCount;
    return n;
}

std::uint64_t
TraceBundle::totalPayloads() const
{
    std::uint64_t n = 0;
    for (const ThreadTrace &tt : threads)
        n += tt.trace.payloadCount();
    return n;
}

} // namespace proteus
