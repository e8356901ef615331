/**
 * @file Property-based tests of the scheduler invariants, swept over
 * configurations with parameterized gtest and randomized fork streams.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "support/prng.hh"
#include "threads/scheduler.hh"

namespace
{

using namespace lsched::threads;

struct ParamCase
{
    unsigned dims;
    std::uint64_t blockBytes;
    std::size_t hashBuckets;
    std::uint32_t groupCapacity;
    bool symmetric;
};

class SchedulerProperty : public ::testing::TestWithParam<ParamCase>
{
};

/** Execution record: (thread tag) in run order. */
struct Trace
{
    std::vector<std::uint64_t> order;

    static void
    record(void *self, void *tag)
    {
        static_cast<Trace *>(self)->order.push_back(
            reinterpret_cast<std::uintptr_t>(tag));
    }
};

SchedulerConfig
configFor(const ParamCase &pc)
{
    SchedulerConfig cfg;
    cfg.dims = pc.dims;
    cfg.cacheBytes = pc.blockBytes * pc.dims;
    cfg.blockBytes = pc.blockBytes;
    cfg.hashBuckets = pc.hashBuckets;
    cfg.groupCapacity = pc.groupCapacity;
    cfg.symmetricHints = pc.symmetric;
    return cfg;
}

/** Random hints for @p dims dimensions, zero past them. */
std::vector<Hint>
randomHints(lsched::Prng &prng, unsigned dims, std::uint64_t range)
{
    std::vector<Hint> hints(kMaxDims, 0);
    for (unsigned d = 0; d < dims; ++d)
        hints[d] = prng.nextBelow(range);
    return hints;
}

/**
 * Fork through the three-hint overload (the inline batch path) when
 * @p dims allows it, else through the span overload.
 */
void
forkEither(LocalityScheduler &sched, ThreadFn fn, void *arg1,
           std::uint64_t tag, const std::vector<Hint> &hints,
           unsigned dims)
{
    void *arg2 = reinterpret_cast<void *>(tag);
    if (dims <= 3)
        sched.fork(fn, arg1, arg2, hints[0], hints[1], hints[2]);
    else
        sched.fork(fn, arg1, arg2, std::span<const Hint>(hints.data(), dims));
}

/**
 * The cluster property of Section 2.3 over @p order: threads sharing
 * block coordinates run contiguously and in fork (tag) order, every
 * tag in [0, coordsOf.size()) exactly once.
 */
void
expectClusteredInForkOrder(const std::vector<std::uint64_t> &order,
                           const std::vector<BlockCoords> &coordsOf)
{
    const std::size_t n = coordsOf.size();
    ASSERT_EQ(order.size(), n);
    std::vector<bool> seen(n, false);
    for (auto tag : order) {
        ASSERT_LT(tag, n);
        ASSERT_FALSE(seen[tag]);
        seen[tag] = true;
    }
    std::map<BlockCoords, std::uint64_t> remaining;
    for (const auto &c : coordsOf)
        ++remaining[c];
    const std::map<BlockCoords, std::uint64_t> groups = remaining;
    std::map<BlockCoords, std::uint64_t> lastTag;
    BlockCoords current{};
    bool haveCurrent = false;
    for (auto tag : order) {
        const BlockCoords &c = coordsOf[tag];
        if (!haveCurrent || !(c == current)) {
            // Entering a bin: it must be untouched so far.
            EXPECT_EQ(remaining[c], groups.at(c))
                << "bin re-entered after being left";
            current = c;
            haveCurrent = true;
        }
        if (auto it = lastTag.find(c); it != lastTag.end()) {
            EXPECT_LT(it->second, tag) << "fork order violated";
        }
        lastTag[c] = tag;
        --remaining[c];
    }
}

TEST_P(SchedulerProperty, EveryForkRunsOnceAndBinsAreContiguous)
{
    const ParamCase pc = GetParam();
    LocalityScheduler sched(configFor(pc));

    lsched::Prng prng(pc.dims * 1000003 + pc.blockBytes);
    const std::size_t n_threads = 2000;
    Trace trace;
    std::vector<BlockCoords> coords_of(n_threads);

    for (std::uint64_t t = 0; t < n_threads; ++t) {
        const std::vector<Hint> hints =
            randomHints(prng, pc.dims, pc.blockBytes * 8);
        std::span<const Hint> span(hints.data(), pc.dims);
        coords_of[t] = sched.coordsFor(span);
        sched.fork(&Trace::record, &trace,
                   reinterpret_cast<void *>(t), span);
    }

    // Invariant: occupancy over ready bins sums to pending threads.
    const auto occupancy = sched.binOccupancy();
    std::uint64_t total = 0;
    for (auto c : occupancy)
        total += c;
    EXPECT_EQ(total, n_threads);

    // Invariant: bin count equals the number of distinct coordinates.
    std::map<BlockCoords, std::uint64_t> groups;
    for (const auto &c : coords_of)
        ++groups[c];
    EXPECT_EQ(sched.binCount(), groups.size());

    EXPECT_EQ(sched.run(), n_threads);

    // Invariants: a permutation, and threads sharing block coordinates
    // run contiguously (the "cluster property" of Section 2.3), in
    // fork order.
    expectClusteredInForkOrder(trace.order, coords_of);
}

TEST_P(SchedulerProperty, KeepRunIsIdempotentOnOrder)
{
    const ParamCase pc = GetParam();
    LocalityScheduler sched(configFor(pc));

    lsched::Prng prng(99);
    Trace trace;
    const std::size_t n_threads = 300;
    for (std::uint64_t t = 0; t < n_threads; ++t) {
        const std::vector<Hint> hints =
            randomHints(prng, pc.dims, pc.blockBytes * 4);
        sched.fork(&Trace::record, &trace, reinterpret_cast<void *>(t),
                   std::span<const Hint>(hints.data(), pc.dims));
    }
    sched.run(true);
    sched.run(true);
    ASSERT_EQ(trace.order.size(), 2 * n_threads);
    for (std::size_t i = 0; i < n_threads; ++i)
        EXPECT_EQ(trace.order[i], trace.order[i + n_threads]);
    sched.clear();
}

TEST_P(SchedulerProperty, ThreeHintForkMatchesSpanFork)
{
    const ParamCase pc = GetParam();
    if (pc.dims > 3)
        GTEST_SKIP() << "the three-hint overload covers dims <= 3";
    LocalityScheduler viaSpan(configFor(pc));
    LocalityScheduler viaHints(configFor(pc));

    lsched::Prng prng(pc.dims * 7919 + pc.groupCapacity);
    const std::size_t n_threads = 2000;
    Trace spanTrace, hintTrace;
    for (std::uint64_t t = 0; t < n_threads; ++t) {
        const std::vector<Hint> hints =
            randomHints(prng, pc.dims, pc.blockBytes * 8);
        void *tag = reinterpret_cast<void *>(t);
        viaSpan.fork(&Trace::record, &spanTrace, tag,
                     std::span<const Hint>(hints.data(), pc.dims));
        viaHints.fork(&Trace::record, &hintTrace, tag, hints[0],
                      hints[1], hints[2]);
    }

    // Same bins, same membership, same order, before and after run().
    EXPECT_EQ(viaHints.binCount(), viaSpan.binCount());
    EXPECT_EQ(viaHints.binOccupancy(), viaSpan.binOccupancy());
    EXPECT_EQ(viaHints.pendingThreads(), n_threads);
    EXPECT_EQ(viaSpan.run(), n_threads);
    EXPECT_EQ(viaHints.run(), n_threads);
    EXPECT_EQ(hintTrace.order, spanTrace.order);
}

TEST_P(SchedulerProperty, ForksIntoRetainedTailsRunInForkOrder)
{
    // run(keep) leaves each bin's tail group partly filled; forks after
    // it must append behind the retained threads, and the next run()
    // must see old and new alike.
    const ParamCase pc = GetParam();
    LocalityScheduler sched(configFor(pc));
    lsched::Prng prng(pc.blockBytes + pc.groupCapacity);
    const std::size_t firstWave = 700, n_threads = 1500;
    Trace trace;
    std::vector<BlockCoords> coordsOf;
    const auto forkWave = [&](std::size_t from, std::size_t to) {
        for (std::uint64_t t = from; t < to; ++t) {
            const std::vector<Hint> hints =
                randomHints(prng, pc.dims, pc.blockBytes * 6);
            coordsOf.push_back(sched.coordsFor(
                std::span<const Hint>(hints.data(), pc.dims)));
            forkEither(sched, &Trace::record, &trace, t, hints, pc.dims);
        }
    };

    forkWave(0, firstWave);
    EXPECT_EQ(sched.run(true), firstWave);
    expectClusteredInForkOrder(trace.order, coordsOf);

    forkWave(firstWave, n_threads);
    EXPECT_EQ(sched.pendingThreads(), n_threads);
    trace.order.clear();
    EXPECT_EQ(sched.run(), n_threads);
    expectClusteredInForkOrder(trace.order, coordsOf);
    EXPECT_EQ(sched.pendingThreads(), 0u);
}

TEST_P(SchedulerProperty, RunParallelSeesPartlyFilledTails)
{
    const ParamCase pc = GetParam();
    LocalityScheduler sched(configFor(pc));
    lsched::Prng prng(pc.hashBuckets * 31 + pc.dims);
    // Odd per-bin counts: most tails end mid-group.
    const std::size_t n_threads = 1999;
    const auto runs =
        std::make_unique<std::atomic<std::uint32_t>[]>(n_threads);
    const ThreadFn bump = [](void *counts, void *tag) {
        static_cast<std::atomic<std::uint32_t> *>(
            counts)[reinterpret_cast<std::uintptr_t>(tag)]
            .fetch_add(1, std::memory_order_relaxed);
    };
    for (std::uint64_t t = 0; t < n_threads; ++t) {
        forkEither(sched, bump, runs.get(), t,
                   randomHints(prng, pc.dims, pc.blockBytes * 5),
                   pc.dims);
    }
    EXPECT_EQ(sched.runParallel(3, true), n_threads);
    for (std::size_t t = 0; t < n_threads; ++t)
        ASSERT_EQ(runs[t].load(), 1u) << "thread " << t;

    // More forks into the retained tails, then a second parallel tour.
    for (std::uint64_t t = 0; t < n_threads; ++t) {
        forkEither(sched, bump, runs.get(), t,
                   randomHints(prng, pc.dims, pc.blockBytes * 5),
                   pc.dims);
    }
    EXPECT_EQ(sched.runParallel(3), 2 * n_threads);
    for (std::size_t t = 0; t < n_threads; ++t)
        ASSERT_EQ(runs[t].load(), 3u) << "thread " << t;
    EXPECT_EQ(sched.pendingThreads(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperty,
    ::testing::Values(ParamCase{1, 4096, 64, 8, false},
                      ParamCase{2, 4096, 64, 8, false},
                      ParamCase{2, 4096, 1, 1, false},
                      ParamCase{2, 1000, 64, 8, false},
                      ParamCase{2, 65536, 16, 64, true},
                      ParamCase{3, 4096, 64, 8, false},
                      ParamCase{3, 4096, 2048, 256, true},
                      ParamCase{4, 8192, 128, 16, false},
                      ParamCase{8, 4096, 64, 8, false},
                      ParamCase{8, 4096, 64, 3, true}));

} // namespace
