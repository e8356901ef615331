/**
 * @file
 * Tests for the persistent work-stealing worker pool behind
 * runParallel(): exactly-once bin execution over skewed occupancy,
 * pool persistence (no OS threads after the first tour), stats
 * surviving reconfiguration, forced stealing, and StopTour deque
 * draining.
 *
 * Everything here must stay clean under LSCHED_SANITIZE=thread — no
 * death tests (those live in the main lsched_tests binary).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "support/failpoint.hh"
#include "threads/scheduler.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;

SchedulerConfig
cfg()
{
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 12;
    c.cacheBytes = 1 << 16;
    c.groupCapacity = 8;
    return c;
}

/** One execution counter per bin; threads bump their own bin's. */
struct BinCounters
{
    std::vector<std::atomic<std::uint64_t>> hits;

    explicit BinCounters(std::size_t bins) : hits(bins) {}

    static void
    bump(void *self, void *tag)
    {
        auto *c = static_cast<BinCounters *>(self);
        c->hits[reinterpret_cast<std::uintptr_t>(tag)].fetch_add(
            1, std::memory_order_relaxed);
    }
};

/**
 * Fork a deliberately skewed workload: bin b receives 1 + 7*(b % 4)
 * threads, so neighboring segments carry very different loads and the
 * occupancy-weighted partition (plus stealing) has real work to do.
 */
std::vector<std::uint64_t>
forkSkewed(LocalityScheduler &s, BinCounters &counters,
           std::size_t bins)
{
    std::vector<std::uint64_t> expected(bins);
    for (std::size_t b = 0; b < bins; ++b) {
        expected[b] = 1 + 7 * (b % 4);
        for (std::uint64_t i = 0; i < expected[b]; ++i)
            s.fork(&BinCounters::bump, &counters,
                   reinterpret_cast<void *>(b),
                   static_cast<Hint>(b) * (2u << 12), 0);
    }
    return expected;
}

TEST(WorkerPool, SkewedBinsExecuteExactlyOnceAtEveryWidth)
{
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
        LocalityScheduler s(cfg());
        constexpr std::size_t kBins = 16;
        BinCounters counters(kBins);
        const std::vector<std::uint64_t> expected =
            forkSkewed(s, counters, kBins);
        std::uint64_t total = 0;
        for (std::uint64_t e : expected)
            total += e;

        EXPECT_EQ(s.runParallel(workers), total)
            << "workers=" << workers;
        for (std::size_t b = 0; b < kBins; ++b)
            EXPECT_EQ(counters.hits[b].load(), expected[b])
                << "bin " << b << " workers=" << workers;
        EXPECT_EQ(s.pendingThreads(), 0u);
    }
}

TEST(WorkerPool, ShrinkingTourWidthLeavesNoStragglerOnTheDeadJob)
{
    // Regression: a tour narrower than its predecessor still wakes
    // every parked helper (notify_all). Helpers past the new width
    // must decide participation under the pool lock and re-park —
    // the original code read the *previous* tour's stack-allocated
    // job to decide, a use-after-free once that tour returned (TSan
    // flags it; a garbage width could even re-run the dead job).
    LocalityScheduler s(cfg());
    for (int round = 0; round < 20; ++round) {
        for (unsigned workers : {8u, 2u}) {
            constexpr std::size_t kBins = 8;
            BinCounters counters(kBins);
            const std::vector<std::uint64_t> expected =
                forkSkewed(s, counters, kBins);
            std::uint64_t total = 0;
            for (std::uint64_t e : expected)
                total += e;
            EXPECT_EQ(s.runParallel(workers), total)
                << "round " << round << " workers=" << workers;
            for (std::size_t b = 0; b < kBins; ++b)
                EXPECT_EQ(counters.hits[b].load(), expected[b])
                    << "round " << round << " workers=" << workers
                    << " bin " << b;
        }
    }
    // The wide tours spawned all helpers; the narrow ones added none.
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 7u);
    EXPECT_EQ(s.workerPoolStats().tours, 40u);
}

TEST(WorkerPool, RepeatedToursSpawnNoNewThreads)
{
    // The acceptance property of the persistent pool: OS threads are
    // created once, at the first parallel tour, and never again.
    LocalityScheduler s(cfg());
    constexpr unsigned kWorkers = 4;
    BinCounters counters(8);
    forkSkewed(s, counters, 8);

    s.runParallel(kWorkers, /*keep=*/true);
    const WorkerPoolStats first = s.workerPoolStats();
    EXPECT_EQ(first.threadsSpawned, kWorkers - 1);
    EXPECT_EQ(first.tours, 1u);

    for (int tour = 0; tour < 5; ++tour)
        s.runParallel(kWorkers, /*keep=*/true);

    const WorkerPoolStats after = s.workerPoolStats();
    EXPECT_EQ(after.threadsSpawned, kWorkers - 1);
    EXPECT_EQ(after.tours, 6u);
    // Every helper parked at least once between tours.
    EXPECT_GE(after.parks, kWorkers - 1);
    s.runParallel(kWorkers, /*keep=*/false);
}

TEST(WorkerPool, ReconfigureRetiresThePoolButKeepsItsStats)
{
    LocalityScheduler s(cfg());
    BinCounters counters(8);
    forkSkewed(s, counters, 8);
    s.runParallel(2);
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 1u);

    s.configure(cfg()); // retires the pool
    forkSkewed(s, counters, 8);
    s.runParallel(2);
    // One helper from the retired pool, one from its replacement.
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 2u);
    EXPECT_EQ(s.workerPoolStats().tours, 2u);
}

TEST(WorkerPool, IdleWorkersStealFromLoadedSegments)
{
    // Two bins land in worker 0's segment, two in the helper's. Bin 0
    // blocks worker 0 until every *other* bin has run — so bin 1,
    // unreachable by its own segment's owner, must be stolen by the
    // helper. Bounded wait: on a regression the gate opens after 10 s
    // and the assertions below report the missing steal.
    struct Gate
    {
        std::atomic<std::uint64_t> done{0};

        static void
        block(void *self, void *)
        {
            auto *g = static_cast<Gate *>(self);
            for (int i = 0; i < 10'000 && g->done.load() < 3; ++i)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            g->done.fetch_add(1);
        }
        static void
        pass(void *self, void *)
        {
            static_cast<Gate *>(self)->done.fetch_add(1);
        }
    };
    LocalityScheduler s(cfg());
    Gate gate;
    s.fork(&Gate::block, &gate, nullptr, 0, 0);
    for (std::uintptr_t b = 1; b < 4; ++b)
        s.fork(&Gate::pass, &gate, nullptr,
               static_cast<Hint>(b) * (2u << 12), 0);

    EXPECT_EQ(s.runParallel(2), 4u);
    EXPECT_EQ(gate.done.load(), 4u);
    EXPECT_GE(s.workerPoolStats().steals, 1u);
}

TEST(WorkerPool, StopTourDrainsStolenDequesCleanly)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // Inject a fault mid-tour under StopTour: workers stop claiming,
    // unclaimed bins (including any sitting in stolen-from deques)
    // are recycled by the unwind path, and the scheduler — pool
    // included — is immediately reusable.
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::StopTour;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=2"));

    BinCounters counters(16);
    forkSkewed(s, counters, 16);
    EXPECT_THROW(s.runParallel(4), fp::Injected);
    EXPECT_EQ(s.lastFaultCount(), 1u);
    // Unwound clean: nothing pending, nothing claimed but unrun.
    EXPECT_EQ(s.pendingThreads(), 0u);

    fp::disarmAll();
    BinCounters fresh(16);
    const std::vector<std::uint64_t> expected =
        forkSkewed(s, fresh, 16);
    std::uint64_t total = 0;
    for (std::uint64_t e : expected)
        total += e;
    EXPECT_EQ(s.runParallel(4), total);
    for (std::size_t b = 0; b < 16; ++b)
        EXPECT_EQ(fresh.hits[b].load(), expected[b]) << "bin " << b;
    EXPECT_EQ(s.workerPoolStats().tours, 2u);
}

} // namespace
