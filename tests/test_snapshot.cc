/**
 * @file
 * The post-setup() snapshot (src/workloads/snapshot.hh): setup() is
 * scheme-independent for every workload kind, a bundle built from a
 * fork equals one from a fresh setup()+generateTraces(), forking leaves
 * the snapshot unchanged, the trace cache runs setup() once per
 * snapshot key under concurrent requests, and a crash point's
 * committed-prefix replay from a fork serializes like a fresh one.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/trace_cache.hh"

using namespace proteus;

namespace {

const std::vector<LogScheme> allSchemes{
    LogScheme::PMEM,    LogScheme::PMEMPCommit, LogScheme::PMEMNoLog,
    LogScheme::ATOM,    LogScheme::Proteus,     LogScheme::ProteusNoLWR,
};

const std::vector<WorkloadKind> allKinds{
    WorkloadKind::Queue,      WorkloadKind::HashMap,
    WorkloadKind::StringSwap, WorkloadKind::AvlTree,
    WorkloadKind::BTree,      WorkloadKind::RbTree,
    WorkloadKind::LinkedList, WorkloadKind::Generated,
};

/** A small key; LL at 2048 elements per node, GEN Zipfian multi-key. */
TraceBundleKey
smallKey(WorkloadKind kind, LogScheme scheme)
{
    TraceBundleKey key;
    key.kind = kind;
    key.scheme = scheme;
    key.params.threads = 2;
    key.params.scale = 2000;
    key.params.initScale = 200;
    key.params.seed = 3;
    key.llOpts.elementsPerNode = 2048;
    key.gen = wlgen::GenSpec::parse(
        "dist=zipf,theta=0.9,keys=2-4,keyspace=4096,ops=400");
    return key;
}

std::shared_ptr<const WorkloadSnapshot>
snapshotOf(const TraceBundleKey &key)
{
    return WorkloadSnapshot::build(key.kind, key.params, key.extras());
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.payloadCount(), b.payloadCount());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const MicroOp &x = a.op(i);
        const MicroOp &y = b.op(i);
        ASSERT_EQ(x.op, y.op) << "op " << i;
        ASSERT_EQ(x.src0, y.src0) << "op " << i;
        ASSERT_EQ(x.src1, y.src1) << "op " << i;
        ASSERT_EQ(x.dst, y.dst) << "op " << i;
        ASSERT_EQ(x.size, y.size) << "op " << i;
        ASSERT_EQ(x.taken, y.taken) << "op " << i;
        ASSERT_EQ(x.persistent, y.persistent) << "op " << i;
        ASSERT_EQ(x.staticPc, y.staticPc) << "op " << i;
        ASSERT_EQ(x.payload, y.payload) << "op " << i;
        ASSERT_EQ(x.addr, y.addr) << "op " << i;
        ASSERT_EQ(x.data, y.data) << "op " << i;
    }
    for (std::size_t i = 0; i < a.payloadCount(); ++i) {
        const LogPayload &x = a.logPayload(static_cast<std::uint32_t>(i));
        const LogPayload &y = b.logPayload(static_cast<std::uint32_t>(i));
        ASSERT_EQ(0, std::memcmp(x.bytes, y.bytes, logDataSize))
            << "payload " << i;
        ASSERT_EQ(x.fromAddr, y.fromAddr) << "payload " << i;
        ASSERT_EQ(x.txId, y.txId) << "payload " << i;
    }
}

/** Traces, per-thread log bounds, lockMap, both images, allocator. */
void
expectBundlesEqual(const TraceBundle &a, const TraceBundle &b)
{
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        expectTracesEqual(a.threads[t].trace, b.threads[t].trace);
        EXPECT_EQ(a.threads[t].logStart, b.threads[t].logStart);
        EXPECT_EQ(a.threads[t].logEnd, b.threads[t].logEnd);
        EXPECT_EQ(a.threads[t].logFlag, b.threads[t].logFlag);
        EXPECT_EQ(a.threads[t].txCount, b.threads[t].txCount);
    }
    EXPECT_EQ(a.lockMap, b.lockMap);
    EXPECT_TRUE(a.heap->nvmImage().identical(b.heap->nvmImage()));
    EXPECT_TRUE(
        a.heap->volatileImage().identical(b.heap->volatileImage()));
    EXPECT_TRUE(a.heap->allocState() == b.heap->allocState());
}

/** The bundle of @p key the way it was built before snapshots: a fresh
 *  workload's setup(), the NVM fast-forward, then generateTraces(). */
std::shared_ptr<TraceBundle>
freshBundle(const TraceBundleKey &key)
{
    auto bundle = std::make_shared<TraceBundle>();
    bundle->key = key;
    bundle->heap = std::make_shared<PersistentHeap>();
    bundle->workload = makeWorkload(key.kind, *bundle->heap, key.scheme,
                                    key.params, key.extras());
    bundle->workload->setup();
    bundle->heap->syncNvmToVolatile();
    bundle->workload->generateTraces();
    for (unsigned t = 0; t < key.params.threads; ++t) {
        TraceBuilder &tb = bundle->workload->builder(t);
        TraceBundle::ThreadTrace tt;
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

} // namespace

TEST(WorkloadSnapshot, SetupIsSchemeIndependent)
{
    for (WorkloadKind kind : allKinds) {
        SCOPED_TRACE(toString(kind));
        const TraceBundleKey key = smallKey(kind, LogScheme::PMEM);
        PersistentHeap ref_heap;
        auto ref = makeWorkload(kind, ref_heap, allSchemes[0],
                                key.params, key.extras());
        ref->setup();
        for (LogScheme scheme : allSchemes) {
            SCOPED_TRACE(toString(scheme));
            PersistentHeap heap;
            auto wl = makeWorkload(kind, heap, scheme, key.params,
                                   key.extras());
            wl->setup();
            EXPECT_TRUE(
                heap.volatileImage().identical(ref_heap.volatileImage()));
            EXPECT_EQ(heap.volatileImage().pageCount(),
                      ref_heap.volatileImage().pageCount());
            EXPECT_TRUE(heap.allocState() == ref_heap.allocState());
            for (unsigned t = 0; t < key.params.threads; ++t) {
                EXPECT_EQ(wl->builder(t).txCount(),
                          ref->builder(t).txCount());
            }
        }
    }
}

TEST(WorkloadSnapshot, ForkedBundleEqualsFreshSetup)
{
    for (WorkloadKind kind : allKinds) {
        const auto snap =
            snapshotOf(smallKey(kind, LogScheme::PMEM));
        for (LogScheme scheme : allSchemes) {
            SCOPED_TRACE(std::string(toString(kind)) + "/" +
                         toString(scheme));
            const TraceBundleKey key = smallKey(kind, scheme);
            const auto forked = TraceBundle::build(key, false, snap.get());
            expectBundlesEqual(*forked, *freshBundle(key));
        }
    }
}

TEST(WorkloadSnapshot, ForkingLeavesTheSnapshotUnchanged)
{
    for (WorkloadKind kind : allKinds) {
        SCOPED_TRACE(toString(kind));
        const TraceBundleKey key = smallKey(kind, LogScheme::Proteus);
        const auto snap = snapshotOf(key);
        const MemoryImage image_before = snap->heap().volatileImage();
        const auto alloc_before = snap->heap().allocState();
        std::vector<std::uint64_t> txs_before;
        for (unsigned t = 0; t < key.params.threads; ++t)
            txs_before.push_back(snap->workload().builder(t).txCount());

        const auto first = TraceBundle::build(key, true, snap.get());
        const auto second = TraceBundle::build(key, true, snap.get());
        expectBundlesEqual(*first, *second);
        EXPECT_TRUE(first->history->events() == second->history->events());

        EXPECT_TRUE(snap->heap().volatileImage().identical(image_before));
        EXPECT_TRUE(snap->heap().allocState() == alloc_before);
        EXPECT_EQ(snap->heap().nvmImage().pageCount(), 0u);
        for (unsigned t = 0; t < key.params.threads; ++t) {
            EXPECT_EQ(snap->workload().builder(t).txCount(),
                      txs_before[t]);
            EXPECT_EQ(snap->workload().builder(t).trace().size(), 0u);
        }
    }
}

TEST(WorkloadSnapshot, ConcurrentSchemesRunSetupOnce)
{
    TraceCache cache;
    const std::uint64_t setups0 = Workload::setupCalls();
    std::vector<std::shared_ptr<const TraceBundle>> bundles(
        allSchemes.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < allSchemes.size(); ++i) {
        threads.emplace_back([&, i]() {
            bundles[i] =
                cache.get(smallKey(WorkloadKind::BTree, allSchemes[i]));
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(Workload::setupCalls() - setups0, 1u);
    EXPECT_EQ(cache.size(), allSchemes.size());
    EXPECT_EQ(cache.misses(), allSchemes.size());
    for (std::size_t i = 0; i < allSchemes.size(); ++i) {
        SCOPED_TRACE(toString(allSchemes[i]));
        expectBundlesEqual(
            *bundles[i],
            *freshBundle(smallKey(WorkloadKind::BTree, allSchemes[i])));
    }

    // clear() drops the snapshot too: the next bundle pays for setup().
    cache.clear();
    const std::uint64_t setups1 = Workload::setupCalls();
    cache.get(smallKey(WorkloadKind::BTree, LogScheme::ATOM));
    EXPECT_EQ(Workload::setupCalls() - setups1, 1u);
}

TEST(SnapshotCrash, ReplayFromForkSerializesLikeFreshSetup)
{
    // crash_sweep sizing: one thread, scale 250, init-scale 100.
    for (WorkloadKind kind : allPaperWorkloads()) {
        SCOPED_TRACE(toString(kind));
        TraceBundleKey key;
        key.kind = kind;
        key.scheme = LogScheme::Proteus;
        key.params.threads = 1;
        key.params.scale = 250;
        key.params.initScale = 100;
        key.params.seed = 1;
        const auto snap = snapshotOf(key);
        const std::uint64_t sim_ops = snap->workload().simOps();
        for (std::uint64_t ops : {std::uint64_t{0}, sim_ops / 3, sim_ops}) {
            SCOPED_TRACE("prefix " + std::to_string(ops));
            const WorkloadSnapshot::Fork fork = snap->fork(key.scheme);
            fork.workload->replayOps(ops);

            PersistentHeap heap;
            auto fresh = makeWorkload(kind, heap, key.scheme, key.params,
                                      key.extras());
            fresh->setup();
            fresh->replayOps(ops);
            EXPECT_EQ(fork.workload->serialize(fork.heap->volatileImage()),
                      fresh->serialize(heap.volatileImage()));
        }
    }
}

TEST(SnapshotCrash, CrashPointsRunNoSetup)
{
    CrashTestOptions opts;
    opts.schemes = {LogScheme::Proteus, LogScheme::PMEM};
    opts.workloads = {WorkloadKind::BTree};
    opts.seed = 1;
    opts.autoPoints = 12;
    TraceCache::global().clear();
    const std::uint64_t setups0 = Workload::setupCalls();
    std::ostringstream log;
    const CrashTestSummary summary = runCrashTests(opts, log);
    EXPECT_TRUE(summary.ok) << log.str();
    EXPECT_GT(summary.crashPoints, 2 * 8u);
    // One setup() for the snapshot key both schemes share; none per
    // pair or per crash point.
    EXPECT_EQ(Workload::setupCalls() - setups0, 1u);
    TraceCache::global().clear();
}

TEST(SnapshotCrash, SimCrashRunsSetupOnce)
{
    // proteus-sim crash wires its measuring run and its crashed run
    // from one bundle.
    const RunSpec spec =
        RunSpec::parse({"HM", "--threads", "2", "--scale", "2000",
                        "--init-scale", "100"});
    const std::uint64_t setups0 = Workload::setupCalls();
    std::ostringstream out;
    EXPECT_TRUE(crashAndRecover(spec, spec.config(), 50, out))
        << out.str();
    EXPECT_EQ(Workload::setupCalls() - setups0, 1u);
    EXPECT_NE(out.str().find("invariants after recovery: OK"),
              std::string::npos)
        << out.str();
}
