/**
 * @file
 * Tests for LocalityScheduler::forkParallel(): the fork phase on the
 * pool builds exactly the schedule of the equivalent serial fork loop
 * (the same bins, ids, ready order, per-bin thread order and counts),
 * drops every shard's threads when a body or an allocation fails, and
 * stops carving shard groups once warm.
 *
 * Lives in the pool test binary: everything here must stay clean under
 * LSCHED_SANITIZE=thread, so no death tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "support/failpoint.hh"
#include "support/prng.hh"
#include "threads/scheduler.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;
using lsched::Prng;

/** A placement setting the differential runs under. */
struct Shape
{
    const char *name;
    unsigned dims;
    PlacementKind placement;
    /** Whether forkParallel() may use the pool (the inline fork's
     *  placements only). */
    bool parallel;
};

const Shape kShapes[] = {
    {"blockhash1", 1, PlacementKind::BlockHash, true},
    {"blockhash2", 2, PlacementKind::BlockHash, true},
    {"blockhash3", 3, PlacementKind::BlockHash, true},
    {"roundrobin", 2, PlacementKind::RoundRobin, false},
    {"adaptive", 2, PlacementKind::Adaptive, false},
    {"hierarchical", 2, PlacementKind::Hierarchical, false},
};

SchedulerConfig
shapeCfg(const Shape &shape)
{
    SchedulerConfig c;
    c.dims = shape.dims;
    c.blockBytes = 1 << 12;
    c.cacheBytes = 1 << 14;
    c.groupCapacity = 8;
    c.hashBuckets = 16;
    c.placement = shape.placement;
    c.topology = "flat";
    return c;
}

/** What every thread of a run records: the order tags ran in (serial
 *  runs) and how often each tag ran (parallel runs). */
struct RunLog
{
    explicit RunLog(std::size_t tags) : count(tags)
    {
        for (auto &c : count)
            c.store(0);
    }

    std::vector<std::uint32_t> order;
    std::vector<std::atomic<std::uint32_t>> count;
};

void
recordTag(void *log, void *tag)
{
    auto &l = *static_cast<RunLog *>(log);
    const auto t = static_cast<std::uint32_t>(
        reinterpret_cast<std::uintptr_t>(tag));
    l.count[t].fetch_add(1, std::memory_order_relaxed);
    if (!detail::inParallelWorker())
        l.order.push_back(t);
}

/** Tags are k * kPerK + t; the pre-forked threads come after. */
constexpr std::uint32_t kPerK = 4;
constexpr std::uint32_t kPreTag = 1000 * kPerK;
constexpr std::uint32_t kPreForks = 24;
constexpr std::uint32_t kTags = kPreTag + kPreForks;

/** A hint in one of @p blocks 4 KB blocks, at a random offset. */
Hint
hintIn(Prng &prng, unsigned blocks)
{
    return (static_cast<Hint>(prng.nextBelow(blocks)) << 12) +
           prng.nextBelow(1 << 12);
}

/**
 * Iteration k's forks: 1 + k % kPerK threads over a few blocks, so
 * bins repeat across k (merges into existing bins) and appear late
 * (new bins mid-way); unused dimensions get hint 0.
 */
template <class Fork>
void
forksOf(std::size_t k, unsigned dims, RunLog &log, Fork &&fork)
{
    Prng prng(0x5eed + k);
    for (std::uint32_t t = 0; t < 1 + k % kPerK; ++t) {
        const Hint h1 = hintIn(prng, 6 + static_cast<unsigned>(k % 5));
        const Hint h2 = dims > 1 ? hintIn(prng, 3) : 0;
        const Hint h3 = dims > 2 ? hintIn(prng, 2) : 0;
        const auto tag = static_cast<std::uintptr_t>(k * kPerK + t);
        fork(&recordTag, &log, reinterpret_cast<void *>(tag), h1, h2,
             h3);
    }
}

/** Threads pending before the call under test. */
void
preFork(LocalityScheduler &s, unsigned dims, RunLog &log)
{
    Prng prng(0xfeed);
    for (std::uint32_t t = 0; t < kPreForks; ++t) {
        const Hint h1 = hintIn(prng, 8);
        const Hint h2 = dims > 1 ? hintIn(prng, 3) : 0;
        const Hint h3 = dims > 2 ? hintIn(prng, 2) : 0;
        s.fork(&recordTag, &log,
               reinterpret_cast<void *>(
                   static_cast<std::uintptr_t>(kPreTag + t)),
               h1, h2, h3);
    }
}

void
serialForks(LocalityScheduler &s, std::size_t count, unsigned dims,
            RunLog &log)
{
    for (std::size_t k = 0; k < count; ++k) {
        forksOf(k, dims, log, [&](ThreadFn fn, void *a1, void *a2,
                                  Hint h1, Hint h2, Hint h3) {
            s.fork(fn, a1, a2, h1, h2, h3);
        });
    }
}

void
parallelForks(LocalityScheduler &s, unsigned workers, std::size_t count,
              unsigned dims, RunLog &log)
{
    s.forkParallel(workers, count,
                   [&](std::size_t k, ForkShard &shard) {
                       forksOf(k, dims, log,
                               [&](ThreadFn fn, void *a1, void *a2,
                                   Hint h1, Hint h2, Hint h3) {
                                   shard.fork(fn, a1, a2, h1, h2, h3);
                               });
                   });
}

/** Everything the schedule's equality covers. */
void
expectSameSchedule(const LocalityScheduler &serial,
                   const LocalityScheduler &parallel)
{
    EXPECT_EQ(parallel.readyList(), serial.readyList())
        << "bin ids, coordinates or counts in ready order differ";
    EXPECT_EQ(parallel.binOccupancy(), serial.binOccupancy());
    EXPECT_EQ(parallel.pendingThreads(), serial.pendingThreads());
    EXPECT_EQ(parallel.stats().forkedThreads,
              serial.stats().forkedThreads);
    EXPECT_EQ(parallel.stats().bins, serial.stats().bins);
}

using DiffParam = std::tuple<std::size_t, unsigned, std::size_t>;

class ForkParallelDifferential
    : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(ForkParallelDifferential, BuildsTheSerialSchedule)
{
    const auto [shapeIndex, workers, count] = GetParam();
    const Shape &shape = kShapes[shapeIndex];
    SCOPED_TRACE(shape.name);
    LocalityScheduler serial(shapeCfg(shape));
    LocalityScheduler parallel(shapeCfg(shape));
    RunLog serialLog(kTags), parallelLog(kTags);

    preFork(serial, shape.dims, serialLog);
    preFork(parallel, shape.dims, parallelLog);
    serialForks(serial, count, shape.dims, serialLog);
    parallelForks(parallel, workers, count, shape.dims, parallelLog);
    expectSameSchedule(serial, parallel);
    // The pool took the phase exactly when it may.
    const bool pooled = shape.parallel && count > 1;
    EXPECT_EQ(parallel.workerPoolStats().threadsSpawned,
              pooled ? std::min<std::size_t>(workers, count) - 1 : 0);

    // The serial tours run the two schedules thread for thread.
    serial.run(false);
    parallel.run(false);
    ASSERT_FALSE(serialLog.order.empty());
    EXPECT_EQ(parallelLog.order, serialLog.order);

    // A second fork phase on warm shards, run on the pool: every
    // thread exactly once, and executed + faults == forked.
    serialForks(serial, count, shape.dims, serialLog);
    parallelForks(parallel, workers, count, shape.dims, parallelLog);
    expectSameSchedule(serial, parallel);
    const std::uint64_t forked = parallel.pendingThreads();
    EXPECT_EQ(parallel.runParallel(4), forked);
    for (std::uint32_t tag = 0; tag < kTags; ++tag) {
        const std::uint32_t want =
            tag >= kPreTag ? 1 : (tag / kPerK < count &&
                                  tag % kPerK <= tag / kPerK % kPerK)
                                     ? 2
                                     : 0;
        ASSERT_EQ(parallelLog.count[tag].load(), want) << "tag " << tag;
    }
    const SchedulerStats st = parallel.stats();
    EXPECT_EQ(st.pendingThreads, 0u);
    EXPECT_EQ(st.executedThreads + st.faultedThreads, st.forkedThreads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ForkParallelDifferential,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kShapes)),
                       ::testing::Values(2u, 3u, 4u),
                       ::testing::Values<std::size_t>(1, 7, 1000)));

constexpr unsigned kWorkers = 4;
constexpr std::size_t kCount = 40;

/** A scheduler under test and a serial twin that receives the same
 *  main-table history, so bin ids stay comparable. */
struct Twins
{
    LocalityScheduler s{shapeCfg(kShapes[1])};
    LocalityScheduler reference{shapeCfg(kShapes[1])};
    RunLog log{kTags};
    RunLog referenceLog{kTags};

    void
    preForkBoth()
    {
        preFork(s, 2, log);
        preFork(reference, 2, referenceLog);
    }

    void
    clearBoth()
    {
        s.clear();
        reference.clear();
    }

    /** Fork kCount iterations on the pool, check the schedule against
     *  the serial twin's, and run it on 4 workers: every thread
     *  exactly once. */
    void
    exactRound()
    {
        for (auto &c : log.count)
            c.store(0);
        serialForks(reference, kCount, 2, referenceLog);
        parallelForks(s, kWorkers, kCount, 2, log);
        expectSameSchedule(reference, s);
        EXPECT_EQ(s.runParallel(kWorkers), reference.run(false));
        for (std::size_t k = 0; k < kCount; ++k) {
            for (std::uint32_t t = 0; t < kPerK; ++t) {
                ASSERT_EQ(log.count[k * kPerK + t].load(),
                          t <= k % kPerK ? 1u : 0u);
            }
        }
    }
};

TEST(ForkParallelFaults, BodyThrowOnWorkerTwoLeavesTheScheduleAsItWas)
{
    Twins t;
    t.preForkBoth();
    const auto before = t.s.readyList();
    const std::uint64_t pending = t.s.pendingThreads();
    const std::uint64_t bins = t.s.stats().bins;

    // Worker 2 of 4 owns k in [20, 30); it throws at k = 25, after
    // forking that iteration's threads into its shard.
    int caught = 0;
    try {
        t.s.forkParallel(kWorkers, kCount,
                         [&](std::size_t k, ForkShard &shard) {
                             forksOf(k, 2, t.log,
                                     [&](ThreadFn fn, void *a1, void *a2,
                                         Hint h1, Hint h2, Hint h3) {
                                         shard.fork(fn, a1, a2, h1, h2,
                                                    h3);
                                     });
                             if (k == 25)
                                 throw std::runtime_error("body 25");
                         });
    } catch (const std::runtime_error &e) {
        ++caught;
        EXPECT_STREQ(e.what(), "body 25");
    }
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(t.s.readyList(), before);
    EXPECT_EQ(t.s.pendingThreads(), pending);
    EXPECT_EQ(t.s.stats().bins, bins);

    t.exactRound();
}

TEST(ForkParallelFaults, ShardAllocationFailureLeavesTheScheduleAsItWas)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    Twins t;
    t.preForkBoth();
    const auto before = t.s.readyList();
    const std::uint64_t pending = t.s.pendingThreads();
    const std::uint64_t bins = t.s.stats().bins;

    // The shards' pools are empty: their first group carves a slab,
    // and the first such carve fails.
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("grouppool.allocate", "once"));
    int caught = 0;
    try {
        parallelForks(t.s, kWorkers, kCount, 2, t.log);
    } catch (const std::bad_alloc &) {
        ++caught;
    }
    fp::disarmAll();
    EXPECT_EQ(caught, 1);
    EXPECT_EQ(t.s.readyList(), before);
    EXPECT_EQ(t.s.pendingThreads(), pending);
    EXPECT_EQ(t.s.stats().bins, bins);

    t.exactRound();
}

TEST(ForkParallelPools, ShardPoolsStopCarvingOnceWarm)
{
    Twins t;
    t.exactRound();
    const std::vector<std::size_t> slabs = t.s.forkShardSlabs();
    ASSERT_EQ(slabs.size(), kWorkers);
    const WorkerPoolStats first = t.s.workerPoolStats();
    EXPECT_EQ(first.threadsSpawned, kWorkers - 1);
    EXPECT_EQ(first.tours, 1u) << "a fork phase is not a tour";
    for (int round = 1; round < 50; ++round) {
        t.exactRound();
        // Groups recycled into a pool other than their owner would
        // leave the shard pools empty, and each round would carve.
        ASSERT_EQ(t.s.forkShardSlabs(), slabs) << "round " << round;
    }
    const WorkerPoolStats last = t.s.workerPoolStats();
    EXPECT_EQ(last.threadsSpawned, first.threadsSpawned);
    EXPECT_EQ(last.tours, 50u);
}

} // namespace
