/**
 * @file
 * TraceCache behavior (build-once sharing, history upgrade, concurrent
 * lookups) and its core guarantee: a shared bundle leaks no state, so
 * a cold cache, a warm hit and a fresh build give bit-identical
 * results, from single experiments up to whole crashtest campaigns
 * (JSON byte-for-byte).
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
    // A cold cache, a warm hit and a fresh build (which forks a private
    // snapshot) give the same run: sharing a bundle leaks no state from
    // one machine into the next.
    BenchOptions opts;
    opts.spec.scale = 2000;
    opts.spec.initScale = 200;
    opts.spec.threads = 2;

    const auto expectSame = [](const RunResult &a, const RunResult &b) {
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.retiredOps, b.retiredOps);
        EXPECT_EQ(a.nvmWrites, b.nvmWrites);
        EXPECT_EQ(a.nvmReads, b.nvmReads);
        EXPECT_EQ(a.committedTxs, b.committedTxs);
        EXPECT_EQ(a.logWritesDropped, b.logWritesDropped);
        EXPECT_EQ(a.frontendStallCycles, b.frontendStallCycles);
        EXPECT_EQ(a.lltMissRate, b.lltMissRate);
    };
    TraceCache &cache = TraceCache::global();
    for (const LogScheme scheme :
         {LogScheme::PMEM, LogScheme::ATOM, LogScheme::Proteus}) {
        SCOPED_TRACE(toString(scheme));
        const RunSpec spec = opts.spec.with(scheme, WorkloadKind::Queue);
        cache.clear();
        const std::uint64_t misses0 = cache.misses();
        const RunResult cold = runExperiment(spec, opts);
        EXPECT_EQ(cache.misses() - misses0, 1u);
        const std::uint64_t hits0 = cache.hits();
        const RunResult warm = runExperiment(spec, opts);
        EXPECT_EQ(cache.hits() - hits0, 1u);
        const RunResult fresh =
            FullSystem(opts.makeConfig(spec), TraceBundle::build(spec.key()))
                .run();

        ASSERT_TRUE(cold.finished);
        expectSame(cold, warm);
        expectSame(warm, fresh);
    }
    cache.clear();
}

TEST(TraceCache, CrashtestJsonBitIdenticalCachedVsUncached)
{
    // The same campaign from a cold cache and again from the warm one
    // it left behind: the second builds nothing and writes the same
    // bytes.
    CrashTestOptions opts;
    opts.schemes = {LogScheme::Proteus, LogScheme::PMEM,
                    LogScheme::ATOM};
    opts.workloads = {WorkloadKind::Queue};
    opts.scale = 2000;
    opts.initScale = 200;
    opts.autoPoints = 6;

    const std::string cold_path = testing::TempDir() + "ct_cold.json";
    const std::string warm_path = testing::TempDir() + "ct_warm.json";

    TraceCache &cache = TraceCache::global();
    cache.clear();
    std::ostringstream sink;
    opts.jsonPath = cold_path;
    const CrashTestSummary cold = runCrashTests(opts, sink);
    const std::uint64_t misses = cache.misses();
    opts.jsonPath = warm_path;
    const CrashTestSummary warm = runCrashTests(opts, sink);
    EXPECT_EQ(cache.misses(), misses);

    EXPECT_TRUE(cold.ok);
    EXPECT_TRUE(warm.ok);
    EXPECT_EQ(cold.crashPoints, warm.crashPoints);

    const std::string a = slurp(cold_path);
    const std::string b = slurp(warm_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);    // byte-for-byte identical rows

    std::remove(cold_path.c_str());
    std::remove(warm_path.c_str());
    cache.clear();
}
