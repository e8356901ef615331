/** @file Unit tests for the locality thread scheduler. */

#include <gtest/gtest.h>

#include <vector>

#include "support/error.hh"
#include "threads/scheduler.hh"

namespace
{

using namespace lsched::threads;

/** Records execution order of integer-tagged threads. */
struct Log
{
    std::vector<std::uintptr_t> order;

    static void
    record(void *self, void *tag)
    {
        static_cast<Log *>(self)->order.push_back(
            reinterpret_cast<std::uintptr_t>(tag));
    }
};

SchedulerConfig
smallConfig()
{
    SchedulerConfig c;
    c.dims = 2;
    c.cacheBytes = 1 << 20;
    c.blockBytes = 1 << 19; // C / 2
    c.hashBuckets = 64;
    c.groupCapacity = 4;
    return c;
}

TEST(Scheduler, RunsEveryThreadExactlyOnce)
{
    // Neighbouring hints along one axis, then hints scattered over a
    // 2-D grid of small blocks (many bins, created out of order).
    for (const bool scattered : {false, true}) {
        SchedulerConfig config = smallConfig();
        if (scattered)
            config.blockBytes = 1 << 16;
        LocalityScheduler s(config);
        Log log;
        for (std::uintptr_t i = 0; i < 100; ++i) {
            const Hint h1 = scattered ? static_cast<Hint>((i * 7) % 13)
                                            << 16
                                      : static_cast<Hint>(i * 64);
            const Hint h2 =
                scattered ? static_cast<Hint>((i * 3) % 11) << 16 : 0;
            s.fork(&Log::record, &log, reinterpret_cast<void *>(i), h1,
                   h2);
        }
        EXPECT_EQ(s.pendingThreads(), 100u);
        EXPECT_EQ(s.run(), 100u);
        EXPECT_EQ(s.pendingThreads(), 0u);
        ASSERT_EQ(log.order.size(), 100u);
        std::vector<bool> seen(100, false);
        for (auto tag : log.order) {
            ASSERT_LT(tag, 100u);
            EXPECT_FALSE(seen[tag]);
            seen[tag] = true;
        }
    }
}

TEST(Scheduler, SameHintsSameBinRunConsecutively)
{
    LocalityScheduler s(smallConfig());
    Log log;
    const Hint far = 16u << 20;
    // Interleave forks of two hint groups; execution must cluster.
    for (std::uintptr_t i = 0; i < 10; ++i) {
        s.fork(&Log::record, &log, reinterpret_cast<void *>(i), 0, 0);
        s.fork(&Log::record, &log,
               reinterpret_cast<void *>(100 + i), far, far);
    }
    s.run();
    ASSERT_EQ(log.order.size(), 20u);
    // First ten are the 0-hint threads, in fork order.
    for (std::uintptr_t i = 0; i < 10; ++i)
        EXPECT_EQ(log.order[i], i);
    for (std::uintptr_t i = 0; i < 10; ++i)
        EXPECT_EQ(log.order[10 + i], 100 + i);
}

TEST(Scheduler, BinsTraversedInCreationOrder)
{
    LocalityScheduler s(smallConfig());
    Log log;
    const Hint block = 1 << 19;
    // Create bins in order 2, 0, 1 (by first fork into each).
    s.fork(&Log::record, &log, reinterpret_cast<void *>(2), 2 * block, 0);
    s.fork(&Log::record, &log, reinterpret_cast<void *>(0), 0, 0);
    s.fork(&Log::record, &log, reinterpret_cast<void *>(1), 1 * block, 0);
    // The tour is the ready list itself: stats() measures that same
    // path, 2 -> 0 -> 1 = 3 blocks (the sorted order would be 2).
    EXPECT_EQ(s.stats().tourLength, 3u);
    s.run();
    EXPECT_EQ(log.order, (std::vector<std::uintptr_t>{2, 0, 1}));
}

TEST(Scheduler, ThreadsWithinBinRunInForkOrder)
{
    LocalityScheduler s(smallConfig());
    Log log;
    for (std::uintptr_t i = 0; i < 20; ++i)
        s.fork(&Log::record, &log, reinterpret_cast<void *>(i), 64, 64);
    s.run();
    for (std::uintptr_t i = 0; i < 20; ++i)
        EXPECT_EQ(log.order[i], i);
}

TEST(Scheduler, GroupOverflowChainsWithinBin)
{
    SchedulerConfig cfg = smallConfig();
    cfg.groupCapacity = 3; // force chaining at 10 threads
    LocalityScheduler s(cfg);
    Log log;
    for (std::uintptr_t i = 0; i < 10; ++i)
        s.fork(&Log::record, &log, reinterpret_cast<void *>(i), 0, 0);
    s.run();
    ASSERT_EQ(log.order.size(), 10u);
    for (std::uintptr_t i = 0; i < 10; ++i)
        EXPECT_EQ(log.order[i], i);
}

TEST(Scheduler, KeepReRunsSameSchedule)
{
    LocalityScheduler s(smallConfig());
    Log log;
    for (std::uintptr_t i = 0; i < 5; ++i)
        s.fork(&Log::record, &log, reinterpret_cast<void *>(i),
               static_cast<Hint>(i * (1 << 19)), 0);
    EXPECT_EQ(s.run(true), 5u);
    EXPECT_EQ(s.pendingThreads(), 5u);
    EXPECT_EQ(s.run(true), 5u);
    ASSERT_EQ(log.order.size(), 10u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(log.order[i], log.order[i + 5]);
    // A destructive run finally clears the schedule.
    EXPECT_EQ(s.run(false), 5u);
    EXPECT_EQ(s.pendingThreads(), 0u);
    EXPECT_EQ(s.run(false), 0u);
}

TEST(Scheduler, RunWithNoThreadsReturnsZero)
{
    LocalityScheduler s(smallConfig());
    EXPECT_EQ(s.run(), 0u);
}

TEST(Scheduler, ForkAfterRunStartsFreshSchedule)
{
    LocalityScheduler s(smallConfig());
    Log log;
    s.fork(&Log::record, &log, reinterpret_cast<void *>(1), 0, 0);
    s.run();
    s.fork(&Log::record, &log, reinterpret_cast<void *>(2), 0, 0);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(log.order, (std::vector<std::uintptr_t>{1, 2}));
}

TEST(Scheduler, NestedForkRunsBeforeReturn)
{
    LocalityScheduler s(smallConfig());
    struct Ctx
    {
        LocalityScheduler *sched;
        Log log;
    } ctx{&s, {}};

    static auto child = [](void *c, void *tag) {
        Log::record(&static_cast<Ctx *>(c)->log, tag);
    };
    auto parent = [](void *c, void *tag) {
        auto *ctx = static_cast<Ctx *>(c);
        Log::record(&ctx->log, tag);
        // Fork a child into a far-away bin mid-run.
        ctx->sched->fork(child, ctx, reinterpret_cast<void *>(99),
                         static_cast<Hint>(64u << 20), 0);
    };
    s.fork(parent, &ctx, reinterpret_cast<void *>(1), 0, 0);
    EXPECT_EQ(s.run(), 2u);
    EXPECT_EQ(ctx.log.order, (std::vector<std::uintptr_t>{1, 99}));
    EXPECT_EQ(s.pendingThreads(), 0u);
}

TEST(Scheduler, NestedForkIntoCurrentBinAlsoRuns)
{
    LocalityScheduler s(smallConfig());
    struct Ctx
    {
        LocalityScheduler *sched;
        Log log;
    } ctx{&s, {}};

    static auto child = [](void *c, void *tag) {
        Log::record(&static_cast<Ctx *>(c)->log, tag);
    };
    auto parent = [](void *c, void *tag) {
        auto *ctx = static_cast<Ctx *>(c);
        Log::record(&ctx->log, tag);
        ctx->sched->fork(child, ctx, reinterpret_cast<void *>(7), 0, 0);
    };
    s.fork(parent, &ctx, reinterpret_cast<void *>(1), 0, 0);
    EXPECT_EQ(s.run(), 2u);
    EXPECT_EQ(ctx.log.order, (std::vector<std::uintptr_t>{1, 7}));
}

TEST(Scheduler, NestedForkIntoExactlyFullTailGroup)
{
    // smallConfig() holds 4 threads per group: the last of 4 forks its
    // child into its own bin while the group it runs from is full, so
    // the child opens a new tail group behind the running cursor.
    LocalityScheduler s(smallConfig());
    struct Ctx
    {
        LocalityScheduler *sched;
        Log log;
    } ctx{&s, {}};

    static auto child = [](void *c, void *tag) {
        Log::record(&static_cast<Ctx *>(c)->log, tag);
    };
    static auto last = [](void *c, void *tag) {
        auto *ctx = static_cast<Ctx *>(c);
        Log::record(&ctx->log, tag);
        ctx->sched->fork(child, ctx, reinterpret_cast<void *>(99), 0, 0);
    };
    for (std::uintptr_t t = 1; t <= 3; ++t)
        s.fork(child, &ctx, reinterpret_cast<void *>(t), 0, 0);
    s.fork(last, &ctx, reinterpret_cast<void *>(4), 0, 0);
    EXPECT_EQ(s.run(), 5u);
    EXPECT_EQ(ctx.log.order,
              (std::vector<std::uintptr_t>{1, 2, 3, 4, 99}));
    EXPECT_EQ(s.pendingThreads(), 0u);
    EXPECT_EQ(s.binCount(), 1u);
}

TEST(Scheduler, ClearDropsPendingThreads)
{
    LocalityScheduler s(smallConfig());
    Log log;
    for (std::uintptr_t i = 0; i < 10; ++i)
        s.fork(&Log::record, &log, reinterpret_cast<void *>(i),
               static_cast<Hint>(i << 19), 0);
    s.clear();
    EXPECT_EQ(s.pendingThreads(), 0u);
    EXPECT_EQ(s.run(), 0u);
    EXPECT_TRUE(log.order.empty());
}

TEST(Scheduler, StatsTrackOccupancy)
{
    LocalityScheduler s(smallConfig());
    Log log;
    const Hint block = 1 << 19;
    for (std::uintptr_t i = 0; i < 30; ++i) {
        s.fork(&Log::record, &log, reinterpret_cast<void *>(i),
               static_cast<Hint>((i % 3) * block), 0);
    }
    const SchedulerStats st = s.stats();
    EXPECT_EQ(st.pendingThreads, 30u);
    EXPECT_EQ(st.bins, 3u);
    EXPECT_EQ(st.occupiedBins, 3u);
    EXPECT_DOUBLE_EQ(st.threadsPerBin.mean(), 10.0);
    EXPECT_DOUBLE_EQ(st.threadsPerBin.coefficientOfVariation(), 0.0);
    s.run();
    EXPECT_EQ(s.stats().executedThreads, 30u);
}

TEST(Scheduler, BinOccupancyInReadyOrder)
{
    LocalityScheduler s(smallConfig());
    Log log;
    const Hint block = 1 << 19;
    s.fork(&Log::record, &log, nullptr, block, 0);
    s.fork(&Log::record, &log, nullptr, block, 0);
    s.fork(&Log::record, &log, nullptr, 0, 0);
    EXPECT_EQ(s.binOccupancy(), (std::vector<std::uint64_t>{2, 1}));
}

TEST(Scheduler, SymmetricHintsShareBin)
{
    SchedulerConfig cfg = smallConfig();
    cfg.symmetricHints = true;
    LocalityScheduler s(cfg);
    Log log;
    const Hint block = 1 << 19;
    s.fork(&Log::record, &log, nullptr, 0, 3 * block);
    s.fork(&Log::record, &log, nullptr, 3 * block, 0);
    EXPECT_EQ(s.binCount(), 1u);
}

TEST(Scheduler, DefaultBlockIsCacheOverDims)
{
    SchedulerConfig cfg;
    cfg.dims = 3;
    cfg.cacheBytes = 3 << 20;
    cfg.blockBytes = 0;
    LocalityScheduler s(cfg);
    EXPECT_EQ(s.config().blockBytes, 1u << 20);
}

TEST(Scheduler, ConfigureResetsBins)
{
    LocalityScheduler s(smallConfig());
    Log log;
    s.fork(&Log::record, &log, nullptr, 0, 0);
    s.run();
    SchedulerConfig cfg = smallConfig();
    cfg.blockBytes = 1 << 10;
    s.configure(cfg);
    EXPECT_EQ(s.binCount(), 0u);
    EXPECT_EQ(s.config().blockBytes, 1u << 10);
}

TEST(SchedulerMisuse, ConfigureWithPendingThreadsThrows)
{
    LocalityScheduler s(smallConfig());
    Log log;
    s.fork(&Log::record, &log, nullptr, 0, 0);
    EXPECT_THROW(s.configure(smallConfig()), lsched::UsageError);
    // The pending thread is untouched by the failed configure().
    EXPECT_EQ(s.stats().pendingThreads, 1u);
    s.run();
    EXPECT_EQ(log.order.size(), 1u);
}

TEST(SchedulerMisuse, NestedForkWithKeepThrows)
{
    LocalityScheduler s(smallConfig());
    struct Ctx
    {
        LocalityScheduler *sched;
    } ctx{&s};
    auto forker = [](void *c, void *) {
        auto *ctx = static_cast<Ctx *>(c);
        auto noop = [](void *, void *) {};
        ctx->sched->fork(noop, nullptr, nullptr, 0, 0);
    };
    s.fork(forker, &ctx, nullptr, 0, 0);
    EXPECT_THROW(s.run(true), lsched::UsageError);
    // The run guard abandoned the tour: the scheduler is reusable.
    EXPECT_EQ(s.stats().pendingThreads, 0u);
    Log log;
    s.fork(&Log::record, &log, reinterpret_cast<void *>(7), 0, 0);
    s.run();
    ASSERT_EQ(log.order.size(), 1u);
    EXPECT_EQ(log.order[0], 7u);
}

TEST(SchedulerDeathTest, NullFunctionPanics)
{
    LocalityScheduler s(smallConfig());
    EXPECT_DEATH(s.fork(nullptr, nullptr, nullptr, 0, 0), "null");
}

} // namespace
