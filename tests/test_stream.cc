/**
 * @file
 * Streaming admission (stream.hh / LocalityScheduler::streamBegin):
 * concurrent-fork stress with exactly-once execution and batch-equal
 * bin membership, backpressure bounds, seal epochs, fault policies
 * under drain, and session-lifecycle misuse. The whole binary must
 * stay clean under LSCHED_SANITIZE=thread (ctest -L stream).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/registry.hh"
#include "obs/trace.hh"
#include "support/error.hh"
#include "support/failpoint.hh"
#include "support/prng.hh"
#include "threads/scheduler.hh"
#include "stream_order_check.hh"

namespace
{

using namespace lsched::threads;

SchedulerConfig
cfg()
{
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 16;
    c.groupCapacity = 8;
    return c;
}

/** One execution flag per forked thread; counts double-runs too. */
struct Flags
{
    std::vector<std::atomic<std::uint32_t>> ran;

    explicit Flags(std::size_t n) : ran(n) {}

    static void
    mark(void *self, void *index)
    {
        auto *flags = static_cast<Flags *>(self);
        flags->ran[reinterpret_cast<std::uintptr_t>(index)].fetch_add(
            1, std::memory_order_relaxed);
    }
};

/** Hint for thread @p i of producer @p p: a few hundred distinct bins. */
Hint
hintFor(unsigned p, unsigned i)
{
    return static_cast<Hint>(((p * 7919u + i) % 400u) << 16);
}

void
bump(void *counter, void *)
{
    static_cast<std::atomic<std::uint64_t> *>(counter)->fetch_add(
        1, std::memory_order_relaxed);
}

/**
 * The derived stream counters' ledger once streamEnd() returned:
 * every admission that was not refunded executed or faulted, nothing
 * is left in the backlog, and the gate held.
 */
void
expectLedger(const LocalityScheduler &s, std::uint64_t forked,
             std::uint64_t bound)
{
    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, forked);
    EXPECT_EQ(st.forked, st.executed + s.lastFaultCount());
    EXPECT_EQ(st.backlog, 0u);
    EXPECT_LE(st.peakBacklog, bound);
}

TEST(Stream, ConcurrentForkStressMatchesBatch)
{
    constexpr unsigned kProducers = 4;
    constexpr unsigned kPerProducer = 5000;
    constexpr unsigned kTotal = kProducers * kPerProducer;

    SchedulerConfig c = cfg();
    c.streamSealThreshold = 64;
    LocalityScheduler s(c);
    Flags flags(kTotal);

    s.streamBegin(2);
    {
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (unsigned i = 0; i < kPerProducer; ++i) {
                    const std::uintptr_t index = p * kPerProducer + i;
                    s.fork(&Flags::mark, &flags,
                           reinterpret_cast<void *>(index),
                           hintFor(p, i), 0);
                }
            });
        }
        for (std::thread &t : producers)
            t.join();
    }
    EXPECT_EQ(s.streamEnd(), kTotal);

    // Exactly once: every thread ran, none ran twice.
    for (unsigned i = 0; i < kTotal; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;

    // Bin membership is identical to what the batch path would have
    // produced: coordsFor() is the same placement both paths use.
    std::map<std::vector<std::uint64_t>, std::uint64_t> expected;
    for (unsigned p = 0; p < kProducers; ++p) {
        for (unsigned i = 0; i < kPerProducer; ++i) {
            const Hint hints[] = {hintFor(p, i), 0};
            const BlockCoords coords = s.coordsFor(hints);
            ++expected[{coords.begin(), coords.end()}];
        }
    }
    std::map<std::vector<std::uint64_t>, std::uint64_t> actual;
    for (const StreamBinReport &bin : s.lastStreamBins())
        actual[{bin.coords.begin(), bin.coords.end()}] += bin.threads;
    EXPECT_EQ(actual, expected);
    // Every producer forked into most bins in its own table; the
    // report and the bin count still name each coordinate once.
    EXPECT_EQ(s.lastStreamBins().size(), expected.size());
    EXPECT_EQ(s.stats().binsCreated, expected.size());

    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, kTotal);
    EXPECT_EQ(st.executed, kTotal);
    EXPECT_EQ(st.backlog, 0u);
    EXPECT_GE(st.seals, 1u);
}

TEST(Stream, EightProducerAdmissionStress)
{
    // Stress for the producer tables: eight producers each grow their
    // own table from the minimum slot count while the others' seals
    // take its lock, a tight maxPending saturates the ticket gate, and
    // a small seal threshold keeps groups flowing back from the drain
    // to the producers that carved them.
    constexpr unsigned kProducers = 8;
    constexpr unsigned kPerProducer = 3000;
    constexpr unsigned kTotal = kProducers * kPerProducer;
    constexpr std::uint64_t kBound = 48;

    SchedulerConfig c = cfg();
    c.hashBuckets = 16;
    c.streamMaxPending = kBound;
    c.streamSealThreshold = 4;
    c.groupCapacity = 4;
    LocalityScheduler s(c);
    Flags flags(kTotal);

    s.streamBegin(2);
    {
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (unsigned i = 0; i < kPerProducer; ++i) {
                    const std::uintptr_t index = p * kPerProducer + i;
                    // Thousands of distinct bins, interleaved across
                    // producers so insert races hit the same slots.
                    const Hint h = static_cast<Hint>(
                        ((p * kPerProducer + i) % 2048u) << 16);
                    s.fork(&Flags::mark, &flags,
                           reinterpret_cast<void *>(index), h, 0);
                }
            });
        }
        for (std::thread &t : producers)
            t.join();
    }
    EXPECT_EQ(s.streamEnd(), kTotal);

    // Exactly once, across every growth cycle and ticket stall.
    for (unsigned i = 0; i < kTotal; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;

    // Conservation: admissions, executions, and the per-bin report
    // all account for the same threads; the ticket gate held exactly.
    const StreamStats st = s.streamStats();
    EXPECT_EQ(st.forked, kTotal);
    EXPECT_EQ(st.executed, kTotal);
    EXPECT_EQ(st.backlog, 0u);
    EXPECT_LE(st.peakBacklog, kBound);
    std::uint64_t reported = 0;
    for (const StreamBinReport &bin : s.lastStreamBins())
        reported += bin.threads;
    EXPECT_EQ(reported, kTotal);
}

TEST(Stream, BackpressureBoundHolds)
{
    constexpr std::uint64_t kBound = 64;
    constexpr unsigned kProducers = 2;
    constexpr unsigned kPerProducer = 4000;

    SchedulerConfig c = cfg();
    c.streamMaxPending = kBound;
    c.streamSealThreshold = 16;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    const std::uint64_t executed = s.runStream(
        1, kProducers, [&](unsigned p) {
            for (unsigned i = 0; i < kPerProducer; ++i) {
                s.fork(
                    [](void *counter, void *) {
                        static_cast<std::atomic<std::uint64_t> *>(
                            counter)
                            ->fetch_add(1, std::memory_order_relaxed);
                    },
                    &ran, nullptr, hintFor(p, i), 0);
            }
        });

    EXPECT_EQ(executed, kProducers * kPerProducer);
    EXPECT_EQ(ran.load(), kProducers * kPerProducer);
    // No fork nests here, so the bound is exact, not just a target.
    EXPECT_LE(s.streamStats().peakBacklog, kBound);
}

TEST(Stream, SealThresholdProducesEpochs)
{
    // One producer, one bin: the threshold seals exactly every
    // threshold-th fork, finish() finds nothing left to seal, and
    // every epoch lands back in the same report. An epoch of 100
    // spans two 64-slot groups (the second group's epoch base carries
    // the count over); threshold 0 never seals before finish().
    struct Case
    {
        std::uint64_t threshold;
        std::uint32_t capacity;
        unsigned threads;
        std::uint32_t epochs;
    };
    const Case cases[] = {{10, 8, 100, 10}, {100, 64, 1000, 10},
                          {0, 8, 300, 1}};
    for (const Case &k : cases) {
        SCOPED_TRACE(testing::Message() << "threshold " << k.threshold);
        SchedulerConfig c = cfg();
        c.streamSealThreshold = k.threshold;
        c.groupCapacity = k.capacity;
        LocalityScheduler s(c);
        std::atomic<std::uint64_t> ran{0};
        s.streamBegin(1);
        for (unsigned i = 0; i < k.threads; ++i)
            s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
        EXPECT_EQ(s.streamEnd(), k.threads);
        EXPECT_EQ(ran.load(), k.threads);
        ASSERT_EQ(s.lastStreamBins().size(), 1u);
        EXPECT_EQ(s.lastStreamBins()[0].threads, k.threads);
        EXPECT_EQ(s.lastStreamBins()[0].epochs, k.epochs);
        EXPECT_EQ(s.streamStats().seals, k.epochs);
    }
}

TEST(Stream, ForkRollbackRefundsItsTicket)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // The first group allocation fails: the fork unwinds and hands its
    // ticket back, so it is neither counted as forked nor left in the
    // backlog, and the gate does not lose a slot.
    constexpr std::uint64_t kBound = 8;
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 4;
    c.streamMaxPending = kBound;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("grouppool.allocate", "hit=1"));

    s.streamBegin(1);
    EXPECT_THROW(s.fork(bump, &ran, nullptr, hintFor(0, 0), 0),
                 std::bad_alloc);
    fp::disarmAll();
    const StreamStats live = s.streamStats();
    EXPECT_EQ(live.forked, 0u);
    EXPECT_EQ(live.backlog, 0u);

    for (unsigned i = 0; i < 200; ++i)
        s.fork(bump, &ran, nullptr, hintFor(0, i), 0);
    EXPECT_EQ(s.streamEnd(), 200u);
    EXPECT_EQ(ran.load(), 200u);
    expectLedger(s, 200, kBound);
}

TEST(Stream, LiveStatsNeverUnderflow)
{
    // stats() read while three producers fork against a tight gate:
    // the derived figures never wrap and never run backwards.
    constexpr unsigned kProducers = 3;
    constexpr unsigned kPerProducer = 20000;
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;
    constexpr std::uint64_t kBound = 32;
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 4;
    c.streamMaxPending = kBound;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin(1);
    std::atomic<bool> done{false};
    std::thread reader([&] {
        StreamStats last;
        while (!done.load(std::memory_order_acquire)) {
            const StreamStats st = s.streamStats();
            ASSERT_LE(st.forked, kTotal);
            ASSERT_LE(st.backlog, kTotal);
            ASSERT_LE(st.executed, kTotal);
            ASSERT_GE(st.forked, last.forked);
            ASSERT_GE(st.executed, last.executed);
            ASSERT_LE(st.peakBacklog, kBound);
            last = st;
        }
    });
    {
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (unsigned i = 0; i < kPerProducer; ++i)
                    s.fork(bump, &ran, nullptr, hintFor(p, i), 0);
            });
        }
        for (std::thread &t : producers)
            t.join();
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(s.streamEnd(), kTotal);
    EXPECT_EQ(ran.load(), kTotal);
    expectLedger(s, kTotal, kBound);
}

TEST(Stream, IdleChunkHolderDoesNotStallOthers)
{
    // One producer forks once (reserving a chunk of tickets) and then
    // blocks, holding the rest of its chunk, until the others are done.
    // Its reserved tickets are a bounded slice of the gate, so the
    // others never time out, and finish() refunds the slice: the
    // ledger is exact.
    constexpr std::uint64_t kBound = 64;
    constexpr unsigned kOthers = 2;
    constexpr unsigned kPerProducer = 5000;
    constexpr std::uint64_t kTotal = 1 + kOthers * kPerProducer;
    SchedulerConfig c = cfg();
    c.streamMaxPending = kBound;
    c.streamSealThreshold = 4;
    c.streamAdmitRetries = 16;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin(1);
    std::atomic<bool> forked{false};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        s.fork(bump, &ran, nullptr, hintFor(9, 0), 0);
        forked.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    while (!forked.load(std::memory_order_acquire))
        std::this_thread::yield();
    {
        std::vector<std::thread> producers;
        for (unsigned p = 0; p < kOthers; ++p) {
            producers.emplace_back([&, p] {
                for (unsigned i = 0; i < kPerProducer; ++i) {
                    EXPECT_NO_THROW(
                        s.fork(bump, &ran, nullptr, hintFor(p, i), 0));
                }
            });
        }
        for (std::thread &t : producers)
            t.join();
    }
    // Live forked counts admissions, never the holder's reservation.
    EXPECT_EQ(s.streamStats().forked, kTotal);
    EXPECT_EQ(s.streamEnd(), kTotal);
    release.store(true, std::memory_order_release);
    holder.join();
    EXPECT_EQ(ran.load(), kTotal);
    EXPECT_EQ(s.recoverySnapshot().admissionTimeouts, 0u);
    expectLedger(s, kTotal, kBound);
}

TEST(Stream, ExitedProducerRefundsItsUnusedTickets)
{
    // Without a bound a producer reserves a full chunk; the thread
    // forks a few threads and exits mid-session. Its exit hands the
    // rest of the chunk back, so the live backlog holds only its
    // admitted threads.
    constexpr unsigned kForks = 10;
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 4;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin(1);
    std::thread([&] {
        for (unsigned i = 0; i < kForks; ++i)
            s.fork(bump, &ran, nullptr, hintFor(0, i), 0);
    }).join();
    const StreamStats live = s.streamStats();
    EXPECT_EQ(live.forked, kForks);
    EXPECT_LE(live.backlog, kForks);

    // The session goes on with another producer after the exit.
    s.fork(bump, &ran, nullptr, hintFor(1, 0), 0);
    EXPECT_EQ(s.streamEnd(), kForks + 1);
    EXPECT_EQ(ran.load(), kForks + 1);
    expectLedger(s, kForks + 1, ~std::uint64_t{0});
}

TEST(Stream, ForcedSealsTakeTheFullestOpenBin)
{
    // One producer at a 4096-thread bound over 512 bins, threshold 64:
    // the open bins hold the whole backlog, so the gate's relief ladder
    // force-seals. Sealing the fullest bin carries at least the mean
    // open bin, bound / bins = 8 threads; sealing bins by position
    // carried under 2.
    constexpr std::uint64_t kForks = 262144;
    constexpr std::uint64_t kBins = 512;
    constexpr std::uint64_t kBlock = 1 << 16;
    SchedulerConfig c;
    c.dims = 1;
    c.blockBytes = kBlock;
    c.streamSealThreshold = 64;
    c.streamMaxPending = 4096;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};
    lsched::Prng rng(1);

    s.streamBegin(1);
    for (std::uint64_t i = 0; i < kForks; ++i) {
        const Hint h = static_cast<Hint>(rng.nextBelow(kBins) * kBlock +
                                         rng.nextBelow(kBlock));
        s.fork(bump, &ran, nullptr, h, 0);
    }
    EXPECT_EQ(s.streamEnd(), kForks);
    EXPECT_EQ(ran.load(), kForks);
    const StreamStats st = s.streamStats();
    ASSERT_GT(st.seals, 0u);
    EXPECT_GE(st.forked / st.seals, c.streamMaxPending / kBins)
        << st.seals << " seals for " << st.forked << " forks";
    expectLedger(s, kForks, c.streamMaxPending);
}

TEST(Stream, GateHelpSealsAnotherProducersBins)
{
    // Producer B fills the backlog with threads no seal threshold will
    // ever reach and parks. Producer A, held at the gate with nothing
    // of its own open, must seal B's bins to make progress: it finishes
    // within its retry budget instead of timing out.
    constexpr std::uint64_t kBound = 256;
    constexpr std::uint64_t kParked = 2 * kBound;
    constexpr unsigned kForksOfA = 4000;
    SchedulerConfig c = cfg();
    c.streamMaxPending = kBound;
    c.streamSealThreshold = 64;
    c.streamAdmitRetries = 16;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin(1);
    std::atomic<bool> parked{false};
    std::atomic<bool> release{false};
    std::thread b([&] {
        // Two threads per bin over 256 bins: far below the threshold.
        for (std::uint64_t i = 0; i < kParked; ++i)
            s.fork(bump, &ran, nullptr,
                   static_cast<Hint>(1000 + i % 256) << 16, 0);
        parked.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    while (!parked.load(std::memory_order_acquire))
        std::this_thread::yield();
    std::thread a([&] {
        for (unsigned i = 0; i < kForksOfA; ++i)
            EXPECT_NO_THROW(s.fork(bump, &ran, nullptr, hintFor(0, i), 0));
    });
    a.join();
    EXPECT_EQ(s.recoverySnapshot().admissionTimeouts, 0u);
    EXPECT_EQ(s.streamEnd(), kParked + kForksOfA);
    release.store(true, std::memory_order_release);
    b.join();
    EXPECT_EQ(ran.load(), kParked + kForksOfA);
    expectLedger(s, kParked + kForksOfA, kBound);
}

TEST(Stream, EachProducerDrainsInForkOrderWithinEveryEpoch)
{
    // With one drain worker and no bound, chains run in seal order: five
    // producers fork into six shared bins, and each producer's threads
    // of one bin must run in its fork order, each exactly once.
    const ordercheck::OrderRound round =
        ordercheck::runOrderRound(/*producers=*/5, /*bins=*/6,
                                  /*perProducer=*/20000, /*threshold=*/12,
                                  /*capacity=*/8);
    EXPECT_GT(round.seals, 1u);
    EXPECT_EQ(round.executed, 5u * 20000u);
    EXPECT_EQ(round.outOfOrder, 0u);
    EXPECT_EQ(round.notOnce, 0u);

    // Under a bound, with two drain workers, the producer tables change
    // no bin's membership: it is what the batch path would have built.
    constexpr unsigned kProducers = 3;
    constexpr unsigned kPerProducer = 6000;
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 12;
    c.streamMaxPending = 256;
    LocalityScheduler s(c);
    Flags flags(kProducers * kPerProducer);
    const std::uint64_t executed =
        s.runStream(2, kProducers, [&](unsigned p) {
            for (unsigned i = 0; i < kPerProducer; ++i) {
                const std::uintptr_t index = p * kPerProducer + i;
                s.fork(&Flags::mark, &flags, reinterpret_cast<void *>(index),
                       hintFor(p, i), 0);
            }
        });
    ASSERT_EQ(executed, kProducers * kPerProducer);
    for (unsigned i = 0; i < kProducers * kPerProducer; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;
    std::map<std::vector<std::uint64_t>, std::uint64_t> expected, actual;
    for (unsigned p = 0; p < kProducers; ++p) {
        for (unsigned i = 0; i < kPerProducer; ++i) {
            const Hint hints[] = {hintFor(p, i), 0};
            const BlockCoords coords = s.coordsFor(hints);
            ++expected[{coords.begin(), coords.end()}];
        }
    }
    for (const StreamBinReport &bin : s.lastStreamBins())
        actual[{bin.coords.begin(), bin.coords.end()}] += bin.threads;
    EXPECT_EQ(actual, expected);
    expectLedger(s, executed, c.streamMaxPending);
}

TEST(Stream, DrainParksAreCountedAndExported)
{
    // A producer that sleeps between seals leaves the drain helper
    // idle past its spin, so it parks; the count has one home and the
    // registry row is derived from it.
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 4;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin(1);
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < 4; ++i)
            s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(s.streamStats().drainParks, 1u);
    EXPECT_EQ(s.streamEnd(), 12u);
    EXPECT_EQ(ran.load(), 12u);

    const std::uint64_t parks = s.streamStats().drainParks;
    EXPECT_GE(parks, 1u);
    const bool metricsWere = lsched::obs::metricsOn();
    lsched::obs::setMetricsEnabled(true);
    const SchedulerStats st = s.stats();
    EXPECT_EQ(st.stream.drainParks, parks);
    if (lsched::obs::metricsOn()) {
        EXPECT_EQ(lsched::obs::Registry::global()
                      .gauge("sched.stream.drain_parks")
                      .value(),
                  parks);
    }
    lsched::obs::setMetricsEnabled(metricsWere);
}

TEST(Stream, SerialBackendDrainsInline)
{
    SchedulerConfig c = cfg();
    c.backend = BackendKind::Serial;
    c.streamSealThreshold = 8;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    s.streamBegin();
    for (unsigned i = 0; i < 500; ++i) {
        s.fork(
            [](void *counter, void *) {
                static_cast<std::atomic<std::uint64_t> *>(counter)
                    ->fetch_add(1, std::memory_order_relaxed);
            },
            &ran, nullptr, hintFor(0, i), 0);
    }
    EXPECT_EQ(s.streamEnd(), 500u);
    EXPECT_EQ(ran.load(), 500u);
    // No helpers existed; everything drained on this thread.
    EXPECT_EQ(s.stats().pool.threadsSpawned, 0u);
}

TEST(Stream, SerialBackendRunsForksNestedInTheFinalDrain)
{
    // Inline-only mode: the last sealed bins run in streamEnd()'s own
    // drain, and a thread forked from there must run too.
    struct Nest
    {
        LocalityScheduler *s;
        std::atomic<std::uint64_t> ran{0};

        static void
        forkOne(void *self, void *)
        {
            auto *nest = static_cast<Nest *>(self);
            nest->ran.fetch_add(1, std::memory_order_relaxed);
            nest->s->fork(bump, &nest->ran, nullptr,
                          static_cast<Hint>(5) << 16, 0);
        }
    };
    SchedulerConfig c = cfg();
    c.backend = BackendKind::Serial;
    c.streamSealThreshold = 4;
    LocalityScheduler s(c);
    Nest nest{&s};

    s.streamBegin();
    for (unsigned i = 0; i < 10; ++i)
        s.fork(&Nest::forkOne, &nest, nullptr, static_cast<Hint>(1) << 16, 0);
    EXPECT_EQ(s.streamEnd(), 20u);
    EXPECT_EQ(nest.ran.load(), 20u);
    expectLedger(s, 20, ~std::uint64_t{0});
}

TEST(Stream, StreamThenBatchReusesTheScheduler)
{
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 16;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    EXPECT_EQ(s.runStream(2, 2, [&](unsigned p) {
        for (unsigned i = 0; i < 300; ++i)
            s.fork(bump, &ran, nullptr, hintFor(p, i), 0);
    }), 600u);

    // The batch path still works on the same scheduler afterwards,
    // and vice versa: ids, pools, and stats all survive the switch.
    for (unsigned i = 0; i < 200; ++i)
        s.fork(bump, &ran, nullptr, hintFor(0, i), 0);
    EXPECT_EQ(s.runParallel(2), 200u);
    EXPECT_EQ(ran.load(), 800u);
    EXPECT_EQ(s.stats().executedThreads, 800u);

    EXPECT_EQ(s.runStream(2, 1, [&](unsigned) {
        for (unsigned i = 0; i < 100; ++i)
            s.fork(bump, &ran, nullptr, hintFor(1, i), 0);
    }), 100u);
    EXPECT_EQ(ran.load(), 900u);
}

TEST(Stream, ContinueAndCollectRecordsStreamFaults)
{
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::ContinueAndCollect;
    c.streamSealThreshold = 8;
    LocalityScheduler s(c);
    std::atomic<std::uint64_t> ran{0};

    const std::uint64_t executed = s.runStream(1, 1, [&](unsigned) {
        for (unsigned i = 0; i < 200; ++i) {
            if (i % 50 == 3) {
                s.fork([](void *, void *) {
                    throw std::runtime_error("stream fault");
                }, nullptr, nullptr, hintFor(0, i), 0);
            } else {
                s.fork(
                    [](void *counter, void *) {
                        static_cast<std::atomic<std::uint64_t> *>(
                            counter)
                            ->fetch_add(1, std::memory_order_relaxed);
                    },
                    &ran, nullptr, hintFor(0, i), 0);
            }
        }
    });

    // Faulted threads are contained and reported, and — exactly as in
    // a batch run — not counted as executed.
    EXPECT_EQ(executed, 196u);
    EXPECT_EQ(ran.load(), 196u);
    EXPECT_EQ(s.streamStats().forked, 200u);
    EXPECT_EQ(s.lastFaultCount(), 4u);
    ASSERT_FALSE(s.lastFaults().empty());
    EXPECT_EQ(s.lastFaults()[0].message, "stream fault");
    EXPECT_EQ(s.stats().faultedThreads, 4u);
}

TEST(Stream, StopTourRethrowsTheFirstStreamFault)
{
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::StopTour;
    c.streamSealThreshold = 4;
    LocalityScheduler s(c);

    s.streamBegin(1);
    for (unsigned i = 0; i < 50; ++i) {
        s.fork([](void *, void *) {
            throw std::runtime_error("first loss");
        }, nullptr, nullptr, hintFor(0, i), 0);
    }
    EXPECT_THROW(s.streamEnd(), std::runtime_error);

    // The session is closed and the scheduler reusable.
    EXPECT_FALSE(s.streaming());
    std::atomic<std::uint64_t> ran{0};
    s.fork(
        [](void *counter, void *) {
            static_cast<std::atomic<std::uint64_t> *>(counter)
                ->fetch_add(1, std::memory_order_relaxed);
        },
        &ran, nullptr, 0, 0);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(ran.load(), 1u);
}

TEST(Stream, TableGrowthAllocationFailureUnwindsInsteadOfWedging)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // An OOM in the bin growth of a producer's table must surface as
    // a recoverable bad_alloc with the ticket refunded and the table
    // live — not wedge the session.
    //
    // Deterministic site arithmetic (one producer table, 16 slots):
    // every bin creation evaluates the "bintable.grow" site once, and
    // the 12th creation is the one that crosses 3/4 load and grows the
    // slot array, so hit 12 fails it.
    constexpr unsigned kTrigger = 12;
    constexpr unsigned kTotal = 40;
    SchedulerConfig c = cfg();
    c.hashBuckets = 16;
    c.streamMaxPending = 0;
    LocalityScheduler s(c);
    Flags flags(kTotal);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("bintable.grow", "hit=12"));

    const auto forkIndex = [&](unsigned i) {
        s.fork(&Flags::mark, &flags,
               reinterpret_cast<void *>(static_cast<std::uintptr_t>(i)),
               static_cast<Hint>(i) << 16, 0);
    };
    s.streamBegin(1);
    for (unsigned i = 0; i + 1 < kTrigger; ++i)
        forkIndex(i);
    EXPECT_THROW(forkIndex(kTrigger - 1), std::bad_alloc);
    fp::disarmAll();

    // The table survived the failed growth: the interrupted fork
    // retries fine, later creations grow the table for real, and the
    // session closes with exactly-once execution.
    for (unsigned i = kTrigger - 1; i < kTotal; ++i)
        forkIndex(i);
    EXPECT_EQ(s.streamEnd(), kTotal);
    for (unsigned i = 0; i < kTotal; ++i)
        ASSERT_EQ(flags.ran[i].load(), 1u) << "thread " << i;
}

TEST(Stream, AdmissionTimesOutInsteadOfHangingOnAWedgedPool)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Satellite regression for the historic unbounded backpressure
    // wait: with the one drain helper wedged mid-bin and the whole
    // backlog in flight, a producer at the bound must surface
    // AdmissionTimeout after its bounded backoff — never hang.
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 2;
    c.streamMaxPending = 2;
    c.streamAdmitRetries = 4;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=800"));

    std::atomic<std::uint64_t> ran{0};
    s.streamBegin(1);
    // Two forks fill one bin to the seal threshold; the helper claims
    // the sealed epoch and stalls inside it, holding pending at the
    // bound with nothing left to seal or drain inline. The fail-point
    // hit count is the observable proof the helper entered the stall.
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    const auto claimStart = std::chrono::steady_clock::now();
    while (fp::hitCount("sched.bin.execute") == 0 &&
           std::chrono::steady_clock::now() - claimStart <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(fp::hitCount("sched.bin.execute"), 1u);

    EXPECT_THROW(
        s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0),
        lsched::AdmissionTimeout);
    // The timed-out admission refunded its ticket: it is not a fork,
    // and the backlog is the two wedged threads only.
    const StreamStats live = s.streamStats();
    EXPECT_EQ(live.forked, 2u);
    EXPECT_EQ(live.backlog, 2u);

    const RecoverySnapshot r = s.recoverySnapshot();
    EXPECT_GE(r.admissionRetries, 4u);
    EXPECT_EQ(r.admissionTimeouts, 1u);

    // The stream is still healthy: once the stall clears, the wedged
    // epoch drains and the session closes normally.
    EXPECT_EQ(s.streamEnd(), 2u);
    EXPECT_EQ(ran.load(), 2u);
    expectLedger(s, 2, 2);
    fp::disarmAll();
}

TEST(Stream, EpochDeadlineCancelsAWedgedStream)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Tentpole: a standing backlog that retires nothing for a whole
    // deadline period is cancelled cooperatively and streamEnd()
    // surfaces DeadlineError (under Abort/StopTour).
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 2;
    c.deadlineMillis = 80;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=900"));

    std::atomic<std::uint64_t> ran{0};
    s.streamBegin(1);
    for (int i = 0; i < 4; ++i)
        s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    // Keep the session open past two deadline periods so the monitor
    // can observe the wedged epoch (streamEnd stops the monitor).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_THROW(s.streamEnd(), lsched::DeadlineError);
    fp::disarmAll();

    // Nothing ran (the helper was wedged until after the cancel), and
    // every dropped thread is accounted.
    EXPECT_EQ(ran.load(), 0u);
    const RecoverySnapshot r = s.recoverySnapshot();
    EXPECT_GE(r.deadlines, 1u);
    EXPECT_EQ(r.cancelledThreads, 4u);

    // The scheduler survives: a fresh batch run works immediately.
    EXPECT_FALSE(s.streaming());
    s.fork(bump, &ran, nullptr, 0, 0);
    EXPECT_EQ(s.run(), 1u);
    EXPECT_EQ(ran.load(), 1u);
}

TEST(Stream, EpochDeadlineUnderContinueAndCollectReturnsNormally)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    SchedulerConfig c = cfg();
    c.onError = ErrorPolicy::ContinueAndCollect;
    c.streamSealThreshold = 2;
    c.deadlineMillis = 80;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=900"));

    std::atomic<std::uint64_t> ran{0};
    s.streamBegin(1);
    for (int i = 0; i < 4; ++i)
        s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    // ContinueAndCollect: the cancelled stream closes normally with
    // the dropped threads recorded as contained faults.
    std::uint64_t executed = 0;
    EXPECT_NO_THROW(executed = s.streamEnd());
    fp::disarmAll();
    EXPECT_EQ(executed, ran.load());
    EXPECT_EQ(executed + s.lastFaultCount(), 4u);
    EXPECT_GE(s.recoverySnapshot().deadlines, 1u);
}

TEST(Stream, DegradedStreamShedsLoadAndStopsBlockingProducers)
{
    if (!lsched::failpoint::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    namespace fp = lsched::failpoint;
    // Governor in the stream: with the whole backlog wedged in flight
    // on the one drain helper, the monitor degrades the session and
    // admission overshoots the bound (soft) instead of blocking — even
    // with a retry budget that would otherwise time out. Every thread
    // still runs exactly once.
    SchedulerConfig c = cfg();
    c.streamSealThreshold = 2;
    c.streamMaxPending = 2;
    c.streamAdmitRetries = 2;
    c.overloadEpochs = 2;
    c.recoverEpochs = 1;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=1200"));

    std::atomic<std::uint64_t> ran{0};
    s.streamBegin(1);
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    s.fork(bump, &ran, nullptr, static_cast<Hint>(1) << 16, 0);
    const auto start = std::chrono::steady_clock::now();
    while (fp::hitCount("sched.bin.execute") == 0 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(fp::hitCount("sched.bin.execute"), 1u)
        << "helper never claimed the sealed epoch";
    while (s.recoveryState() != RecoveryState::Degraded &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(5)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(s.recoveryState(), RecoveryState::Degraded);
    // Only the already-sleeping helper keeps stalling from here.
    fp::disarmAll();

    // A degraded session admits past the bound without blocking or
    // timing out, while the helper is still wedged.
    for (int i = 0; i < 6; ++i)
        s.fork(bump, &ran, nullptr, static_cast<Hint>(2) << 16, 0);
    EXPECT_GT(s.streamStats().peakBacklog, 2u)
        << "degraded admission must overshoot the bound, not block";
    EXPECT_EQ(s.streamEnd(), 8u);
    EXPECT_EQ(ran.load(), 8u);

    const RecoverySnapshot r = s.recoverySnapshot();
    EXPECT_GE(r.loadSheds, 1u);
    EXPECT_EQ(r.admissionTimeouts, 0u);
}

TEST(Stream, LifecycleMisuseIsReported)
{
    LocalityScheduler s(cfg());
    EXPECT_THROW(s.streamEnd(), lsched::UsageError);

    s.fork([](void *, void *) {}, nullptr, nullptr, 0, 0);
    EXPECT_THROW(s.streamBegin(1), lsched::UsageError);
    s.clear();

    s.streamBegin(1);
    EXPECT_TRUE(s.streaming());
    EXPECT_THROW(s.streamBegin(1), lsched::UsageError);
    EXPECT_THROW(s.run(), lsched::UsageError);
    EXPECT_EQ(s.streamEnd(), 0u);
    EXPECT_FALSE(s.streaming());
}

} // namespace
