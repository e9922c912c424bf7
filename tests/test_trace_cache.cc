/**
 * @file
 * TraceCache behavior (build-once sharing, history upgrade, concurrent
 * lookups) and the tentpole's core guarantee: cached and uncached
 * execution paths produce bit-identical results, from single
 * experiments up to whole crashtest campaigns (JSON byte-for-byte).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crashtest/crash_tester.hh"
#include "harness/experiments.hh"
#include "harness/system.hh"
#include "harness/trace_cache.hh"

using namespace proteus;

namespace {

TraceBundleKey
smallKey(LogScheme scheme, std::uint64_t seed = 1)
{
    TraceBundleKey key;
    key.kind = WorkloadKind::Queue;
    key.scheme = scheme;
    key.params.threads = 2;
    key.params.scale = 2000;
    key.params.initScale = 200;
    key.params.seed = seed;
    return key;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(TraceCache, BuildsOnceAndShares)
{
    TraceCache cache;
    const TraceBundleKey key = smallKey(LogScheme::Proteus);

    const auto a = cache.get(key);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    const auto b = cache.get(key);
    EXPECT_EQ(a.get(), b.get());    // the same immutable bundle
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);

    // A different scheme is a different key.
    cache.get(smallKey(LogScheme::ATOM));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TraceCache, HistoryUpgradeReplacesEntry)
{
    TraceCache cache;
    const TraceBundleKey key = smallKey(LogScheme::PMEM);

    const auto plain = cache.get(key, false);
    EXPECT_EQ(plain->history, nullptr);

    const auto with = cache.get(key, true);
    ASSERT_NE(with->history, nullptr);
    EXPECT_FALSE(with->history->empty());

    // The upgraded bundle replaces the entry; later plain lookups get
    // the history-carrying one for free.
    const auto again = cache.get(key, false);
    EXPECT_EQ(again.get(), with.get());
}

TEST(TraceCache, ConcurrentLookupsBuildOnce)
{
    TraceCache cache;
    const TraceBundleKey key = smallKey(LogScheme::Proteus, 99);

    std::vector<std::shared_ptr<const TraceBundle>> results(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back(
            [&cache, &key, &results, i]() { results[i] = cache.get(key); });
    }
    for (std::thread &t : threads)
        t.join();

    for (const auto &r : results) {
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(r.get(), results[0].get());
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), results.size() - 1);
}

TEST(TraceCache, CachedExperimentMatchesUncached)
{
    BenchOptions opts;
    opts.spec.scale = 2000;
    opts.spec.initScale = 200;
    opts.spec.threads = 2;

    for (const LogScheme scheme :
         {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus}) {
        SCOPED_TRACE(toString(scheme));
        const RunSpec spec = opts.spec.with(scheme, WorkloadKind::Queue);
        opts.traceCache = true;
        const RunResult cached = runExperiment(spec, opts);
        opts.traceCache = false;
        const RunResult uncached = runExperiment(spec, opts);

        EXPECT_EQ(cached.cycles, uncached.cycles);
        EXPECT_EQ(cached.retiredOps, uncached.retiredOps);
        EXPECT_EQ(cached.nvmWrites, uncached.nvmWrites);
        EXPECT_EQ(cached.nvmReads, uncached.nvmReads);
        EXPECT_EQ(cached.committedTxs, uncached.committedTxs);
        EXPECT_EQ(cached.logWritesDropped, uncached.logWritesDropped);
        EXPECT_EQ(cached.frontendStallCycles,
                  uncached.frontendStallCycles);
        EXPECT_EQ(cached.lltMissRate, uncached.lltMissRate);
    }
}

TEST(TraceCache, CrashtestJsonBitIdenticalCachedVsUncached)
{
    CrashTestOptions opts;
    opts.schemes = {LogScheme::Proteus, LogScheme::PMEM,
                    LogScheme::ATOM};
    opts.workloads = {WorkloadKind::Queue};
    opts.scale = 2000;
    opts.initScale = 200;
    opts.autoPoints = 6;

    const std::string cached_path =
        testing::TempDir() + "ct_cached.json";
    const std::string uncached_path =
        testing::TempDir() + "ct_uncached.json";

    std::ostringstream sink;
    opts.useTraceCache = true;
    opts.jsonPath = cached_path;
    const CrashTestSummary cached = runCrashTests(opts, sink);
    opts.useTraceCache = false;
    opts.jsonPath = uncached_path;
    const CrashTestSummary uncached = runCrashTests(opts, sink);

    EXPECT_TRUE(cached.ok);
    EXPECT_TRUE(uncached.ok);
    EXPECT_EQ(cached.crashPoints, uncached.crashPoints);

    const std::string a = slurp(cached_path);
    const std::string b = slurp(uncached_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);    // byte-for-byte identical rows

    std::remove(cached_path.c_str());
    std::remove(uncached_path.c_str());
}
