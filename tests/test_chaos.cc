/**
 * @file
 * Randomized chaos harness for the recovery layer (scripts/chaos.sh).
 *
 * One seeded schedule of injected faults, wedged-worker stalls,
 * deadlines, watchdogs, governors, and producer bursts is driven
 * through batch, parallel, and streaming tours on a single reused
 * scheduler. The seed comes from LSCHED_CHAOS_SEED (default 1), so a
 * failing schedule replays exactly: CI runs scripts/chaos.sh over many
 * seeds and prints the seed of any failure.
 *
 * The harness asserts the invariants every schedule must keep:
 *
 *  - exactly-once: no user thread ever runs twice; a round that ends
 *    without an error ran or accounted every forked thread;
 *  - no hangs: every tour and stream terminates (a wedged schedule
 *    surfaces as DeadlineError/AdmissionTimeout — scripts/chaos.sh
 *    enforces the outer wall-clock bound);
 *  - clean recovery: after every round — faulted, cancelled, or
 *    degraded — the scheduler has zero pending threads and the next
 *    round works;
 *  - monotone recovery counters: sched.recover.* never step backward;
 *  - producer-local admission: a producer idling on a reserved chunk
 *    never stalls the others, an exiting producer's unused tickets
 *    come back, each producer's forks of one bin run in fork order,
 *    and the ledger and the backlog bound hold exactly.
 *
 * The whole binary must stay clean under LSCHED_SANITIZE=thread
 * (ctest -L chaos under the tsan preset).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hh"
#include "support/failpoint.hh"
#include "support/prng.hh"
#include "threads/scheduler.hh"
#include "stream_order_check.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;

/** Seed of this run's schedule (LSCHED_CHAOS_SEED, default 1). */
std::uint64_t
chaosSeed()
{
    if (const char *env = std::getenv("LSCHED_CHAOS_SEED")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v != 0)
            return static_cast<std::uint64_t>(v);
    }
    return 1;
}

/** Per-fork run counters: the exactly-once ledger. */
struct Ledger
{
    std::vector<std::atomic<std::uint32_t>> ran;

    explicit Ledger(std::size_t n) : ran(n)
    {
        for (auto &r : ran)
            r.store(0, std::memory_order_relaxed);
    }

    static void
    mark(void *self, void *index)
    {
        static_cast<Ledger *>(self)
            ->ran[reinterpret_cast<std::uintptr_t>(index)]
            .fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const auto &r : ran)
            sum += r.load(std::memory_order_relaxed);
        return sum;
    }
};

/** One randomized fail-point spec; empty = no injection this round. */
std::string
randomSpec(lsched::Prng &rng, bool allowThrowing)
{
    switch (rng.nextBelow(allowThrowing ? 5 : 2)) {
      case 0:
        return "";
      case 1:
        // A wedged worker: 20-80 ms mid-bin stall, never a throw.
        return "stall=" + std::to_string(20 + rng.nextBelow(61));
      case 2:
        return "hit=" + std::to_string(1 + rng.nextBelow(8));
      case 3:
        return "every=" + std::to_string(2 + rng.nextBelow(6));
      default:
        return "prob=0.2@" + std::to_string(1 + rng.nextBelow(1000));
    }
}

/** Counters that must never step backward across rounds. */
void
expectMonotone(const RecoverySnapshot &before,
               const RecoverySnapshot &after, int round)
{
    EXPECT_GE(after.deadlines, before.deadlines) << "round " << round;
    EXPECT_GE(after.watchdogCancels, before.watchdogCancels)
        << "round " << round;
    EXPECT_GE(after.cancelledBins, before.cancelledBins)
        << "round " << round;
    EXPECT_GE(after.cancelledThreads, before.cancelledThreads)
        << "round " << round;
    EXPECT_GE(after.admissionRetries, before.admissionRetries)
        << "round " << round;
    EXPECT_GE(after.admissionTimeouts, before.admissionTimeouts)
        << "round " << round;
    EXPECT_GE(after.loadSheds, before.loadSheds) << "round " << round;
    EXPECT_GE(after.degradedTours, before.degradedTours)
        << "round " << round;
    EXPECT_GE(after.recoveries, before.recoveries)
        << "round " << round;
}

TEST(Chaos, SeededFaultScheduleKeepsTheInvariants)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    const std::uint64_t seed = chaosSeed();
    SCOPED_TRACE("LSCHED_CHAOS_SEED=" + std::to_string(seed));
    lsched::Prng rng(seed);

    SchedulerConfig base;
    base.dims = 2;
    base.blockBytes = 1 << 14;
    base.groupCapacity = 8;
    LocalityScheduler s(base);
    RecoverySnapshot last = s.recoverySnapshot();

    constexpr int kRounds = 10;
    for (int round = 0; round < kRounds; ++round) {
        const bool streaming = rng.nextBelow(2) == 1;
        SchedulerConfig c = base;
        c.backend = static_cast<BackendKind>(rng.nextBelow(2));
        // Streams never run injected throws under Abort: an Abort
        // fault on a drain helper is fatal by contract (the policy
        // exists for the caller's thread). Batch rounds use all three.
        c.onError = streaming
                        ? (rng.nextBelow(2)
                               ? ErrorPolicy::ContinueAndCollect
                               : ErrorPolicy::StopTour)
                        : static_cast<ErrorPolicy>(rng.nextBelow(3));
        c.deadlineMillis = rng.nextBelow(2) ? 0 : 40 + rng.nextBelow(61);
        c.watchdogMillis = rng.nextBelow(3) ? 0 : 40 + rng.nextBelow(61);
        c.watchdogAction = rng.nextBelow(2) ? WatchdogAction::Cancel
                                            : WatchdogAction::Event;
        c.streamSealThreshold = 1 + rng.nextBelow(16);
        c.streamMaxPending = rng.nextBelow(2) ? 0 : 16 + rng.nextBelow(64);
        c.streamAdmitRetries = rng.nextBelow(2) ? 0 : 3 + rng.nextBelow(6);
        if (rng.nextBelow(2)) {
            c.overloadEpochs = 1 + rng.nextBelow(3);
            c.recoverEpochs = 1 + rng.nextBelow(3);
        }
        if (rng.nextBelow(2)) {
            // Adaptive placement rounds: the tuner retunes at tour and
            // stream-epoch boundaries while faults fire; exactly-once
            // and conservation must survive every parameter swap.
            c.placement = PlacementKind::Adaptive;
            c.adaptBase = rng.nextBelow(2)
                              ? PlacementKind::BlockHash
                              : PlacementKind::Hierarchical;
            c.adaptEpochs = 1 + rng.nextBelow(2);
            c.adaptHold = rng.nextBelow(3);
        }
        if (rng.nextBelow(2)) {
            // Topology-forced rounds: a random synthetic cache tree
            // drives domain-partitioned tours (and cluster-aware
            // pinning, which mostly fails on small CI hosts — the
            // graceful-fallback path) while the same faults fire.
            c.topology =
                "1x" + std::to_string(1 + rng.nextBelow(2)) + "x" +
                std::to_string(1 + rng.nextBelow(3)) + "x" +
                std::to_string(1 + rng.nextBelow(2)) +
                "/l2=" + std::to_string(1u << (14 + rng.nextBelow(3)));
            c.pinWorkers = rng.nextBelow(2) == 1;
        } else {
            c.topology = "flat";
        }
        s.configure(c);

        const std::string spec = randomSpec(
            rng, /*allowThrowing=*/c.onError != ErrorPolicy::Abort);
        // Throwing specs fault at the TOP of a bin (before any user
        // thread), so each fire is one recorded fault that consumed no
        // fork — the conservation check below adds the fire count.
        const bool throwingSpec =
            !spec.empty() && spec.rfind("stall=", 0) != 0;
        fp::disarmAll();
        if (!spec.empty()) {
            ASSERT_TRUE(fp::arm("sched.bin.execute", spec)) << spec;
        }
        SCOPED_TRACE("round " + std::to_string(round) + ": " +
                     std::string(streaming ? "stream" : "batch") +
                     " backend=" + backendName(c.backend) +
                     " spec=" + (spec.empty() ? "none" : spec) +
                     " deadline=" + std::to_string(c.deadlineMillis) +
                     " topo=" + c.topology);

        const std::uint64_t forks = 40 + rng.nextBelow(161);
        Ledger ledger(forks);
        const std::uint64_t hintSalt = rng.next();
        const auto hintOfIdx = [hintSalt](std::uint64_t i) {
            return static_cast<Hint>(((i * 2654435761u + hintSalt) %
                                      64) <<
                                     15);
        };

        bool failed = false;
        std::uint64_t executed = 0;
        if (streaming) {
            const unsigned producers = 1 + rng.nextBelow(3);
            const unsigned helpers = 1 + rng.nextBelow(2);
            const std::uint64_t burst = 1 + rng.nextBelow(32);
            try {
                executed = s.runStream(
                    helpers, producers, [&](unsigned p) {
                        // Bursty producers: fork a burst, breathe,
                        // repeat until this producer's share is in.
                        for (std::uint64_t i = p; i < forks;
                             i += producers) {
                            s.fork(&Ledger::mark, &ledger,
                                   reinterpret_cast<void *>(i),
                                   hintOfIdx(i), 0);
                            if ((i / producers) % burst == burst - 1) {
                                std::this_thread::yield();
                            }
                        }
                    });
            } catch (const std::exception &) {
                // DeadlineError, AdmissionTimeout, a StopTour rethrow,
                // or an injected fault — all recoverable by contract.
                failed = true;
            }
        } else {
            for (std::uint64_t i = 0; i < forks; ++i) {
                s.fork(&Ledger::mark, &ledger,
                       reinterpret_cast<void *>(i), hintOfIdx(i), 0);
            }
            const unsigned workers = 1 + rng.nextBelow(4);
            try {
                executed = s.runParallel(workers);
            } catch (const std::exception &) {
                failed = true;
            }
        }
        // Read fires before disarming: disarm erases the site and its
        // counters (arm() started this round's site at zero).
        const std::uint64_t synthetic =
            throwingSpec ? fp::fireCount("sched.bin.execute") : 0;
        fp::disarmAll();

        // Exactly-once: nothing ever runs twice, and a round that
        // returned normally ran or accounted every single fork.
        for (std::uint64_t i = 0; i < forks; ++i) {
            ASSERT_LE(ledger.ran[i].load(), 1u)
                << "thread " << i << " ran twice";
        }
        if (!failed) {
            EXPECT_EQ(ledger.total(), executed);
            EXPECT_EQ(executed + s.lastFaultCount(),
                      forks + synthetic);
        } else {
            EXPECT_LE(ledger.total(), forks);
        }

        // Clean recovery: whatever happened, the scheduler is idle and
        // the next round starts from a working state.
        EXPECT_EQ(s.pendingThreads(), 0u);
        EXPECT_FALSE(s.streaming());

        const RecoverySnapshot now = s.recoverySnapshot();
        expectMonotone(last, now, round);
        last = now;
    }

    // The schedule as a whole must terminate with a live scheduler: a
    // final clean run proves no round leaked a wedge.
    SchedulerConfig clean = base;
    s.configure(clean);
    Ledger ledger(64);
    for (std::uint64_t i = 0; i < 64; ++i) {
        s.fork(&Ledger::mark, &ledger, reinterpret_cast<void *>(i),
               static_cast<Hint>(i % 8) << 15, 0);
    }
    EXPECT_EQ(s.runParallel(2), 64u);
    EXPECT_EQ(ledger.total(), 64u);
}

TEST(Chaos, EightProducerAdmissionStressConservesThreads)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // Producer tables under fire: eight producers grow their own
    // tables from the minimum slot count (thousands of distinct bins)
    // while cross-producer seals take their locks, a periodic
    // injected fault throws at bin tops and a tight ticket bound
    // keeps producers cycling through the backoff slow path. The
    // conservation ledger must balance exactly even so.
    const std::uint64_t seed = chaosSeed();
    SCOPED_TRACE("LSCHED_CHAOS_SEED=" + std::to_string(seed));
    lsched::Prng rng(seed);

    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 14;
    c.groupCapacity = 4;
    c.hashBuckets = 16;
    c.streamMaxPending = 32;
    c.streamSealThreshold = 4;
    c.onError = ErrorPolicy::ContinueAndCollect;
    LocalityScheduler s(c);

    constexpr unsigned kProducers = 8;
    constexpr std::uint64_t kForks = 8 * 1500;
    Ledger ledger(kForks);
    const std::uint64_t hintSalt = rng.next();

    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute",
                        "every=" + std::to_string(5 + rng.nextBelow(8))));
    std::uint64_t executed = 0;
    EXPECT_NO_THROW(executed = s.runStream(
                        2, kProducers, [&](unsigned p) {
                            for (std::uint64_t i = p; i < kForks;
                                 i += kProducers) {
                                const Hint h = static_cast<Hint>(
                                    ((i * 2654435761u + hintSalt) %
                                     2048) << 14);
                                s.fork(&Ledger::mark, &ledger,
                                       reinterpret_cast<void *>(i), h,
                                       0);
                            }
                        }));
    const std::uint64_t synthetic = fp::fireCount("sched.bin.execute");
    fp::disarmAll();

    // Exactly-once and conservation: every fork ran once or is a
    // recorded fault; injected fires add faults but consume no fork.
    for (std::uint64_t i = 0; i < kForks; ++i) {
        ASSERT_LE(ledger.ran[i].load(), 1u)
            << "thread " << i << " ran twice";
    }
    EXPECT_EQ(ledger.total(), executed);
    EXPECT_EQ(executed + s.lastFaultCount(), kForks + synthetic);
    EXPECT_EQ(s.pendingThreads(), 0u);
    EXPECT_FALSE(s.streaming());
}

TEST(Chaos, ProducerLocalAdmissionKeepsItsInvariants)
{
    // Seeded rounds over chunked tickets and producer tables: a
    // random bound (off or tight), producer count, seal threshold,
    // group capacity and drain-worker count. In every round producer 0
    // forks a few threads and then idles on its reserved chunk until
    // the rest are done, and producer 1 exits mid-session.
    const std::uint64_t seed = chaosSeed();
    SCOPED_TRACE("LSCHED_CHAOS_SEED=" + std::to_string(seed));
    lsched::Prng rng(seed ^ 0x9e3779b97f4a7c15ull);

    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        SchedulerConfig c;
        c.dims = 2;
        c.blockBytes = 1 << 14;
        c.groupCapacity = 2 + static_cast<std::uint32_t>(rng.nextBelow(15));
        c.streamSealThreshold = 1 + rng.nextBelow(24);
        c.streamMaxPending = rng.nextBelow(2) ? 0 : 16 + rng.nextBelow(112);
        c.streamAdmitRetries = 32;
        const unsigned producers = 3 + static_cast<unsigned>(rng.nextBelow(3));
        const unsigned workers = 1 + static_cast<unsigned>(rng.nextBelow(2));
        const std::uint64_t perProducer = 400 + rng.nextBelow(1200);
        const std::uint64_t held = 1 + rng.nextBelow(3);
        const std::uint64_t exiting = 1 + rng.nextBelow(perProducer);
        const std::uint64_t salt = rng.next();
        // Producer 0 forks `held`, producer 1 `exiting`, the rest all.
        const auto forksOf = [&](unsigned p) {
            return p == 0 ? held : p == 1 ? exiting : perProducer;
        };
        std::uint64_t total = 0;
        for (unsigned p = 0; p < producers; ++p)
            total += forksOf(p);

        LocalityScheduler s(c);
        Ledger ledger(producers * perProducer);
        const auto hintOf = [&](unsigned p, std::uint64_t i) {
            return static_cast<Hint>(((i * 2654435761u + p * 7919u + salt) %
                                      256) << 14);
        };
        const auto produce = [&](unsigned p) {
            for (std::uint64_t i = 0; i < forksOf(p); ++i) {
                const std::uintptr_t index = p * perProducer + i;
                s.fork(&Ledger::mark, &ledger,
                       reinterpret_cast<void *>(index), hintOf(p, i), 0);
            }
        };
        const std::uint64_t timeoutsBefore =
            s.recoverySnapshot().admissionTimeouts;

        s.streamBegin(workers);
        std::atomic<bool> heldDone{false};
        std::atomic<bool> release{false};
        std::thread holder([&] {
            EXPECT_NO_THROW(produce(0));
            heldDone.store(true, std::memory_order_release);
            while (!release.load(std::memory_order_acquire))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        });
        while (!heldDone.load(std::memory_order_acquire))
            std::this_thread::yield();
        {
            std::vector<std::thread> rest;
            for (unsigned p = 1; p < producers; ++p)
                rest.emplace_back([&, p] { EXPECT_NO_THROW(produce(p)); });
            for (std::thread &t : rest)
                t.join();
        }
        // Live forked counts admissions only, never reservations.
        EXPECT_EQ(s.streamStats().forked, total);
        std::uint64_t executed = 0;
        EXPECT_NO_THROW(executed = s.streamEnd());
        release.store(true, std::memory_order_release);
        holder.join();

        // Exactly once, and the ledger balances with nothing left.
        EXPECT_EQ(executed, total);
        for (unsigned p = 0; p < producers; ++p) {
            for (std::uint64_t i = 0; i < forksOf(p); ++i) {
                ASSERT_EQ(ledger.ran[p * perProducer + i].load(), 1u)
                    << "producer " << p << " thread " << i;
            }
        }
        const StreamStats st = s.streamStats();
        EXPECT_EQ(st.forked, total);
        EXPECT_EQ(st.executed + s.lastFaultCount(), total);
        EXPECT_EQ(st.backlog, 0u);
        if (c.streamMaxPending) {
            EXPECT_LE(st.peakBacklog, c.streamMaxPending);
        }
        EXPECT_EQ(s.recoverySnapshot().admissionTimeouts, timeoutsBefore);

        // Fork order, where the drain order shows it: the same shape
        // with one drain worker and no bound.
        const lsched::threads::ordercheck::OrderRound order =
            lsched::threads::ordercheck::runOrderRound(
                producers, 1 + static_cast<unsigned>(rng.nextBelow(8)),
                perProducer, c.streamSealThreshold, c.groupCapacity);
        EXPECT_EQ(order.executed, producers * perProducer);
        EXPECT_EQ(order.outOfOrder, 0u);
        EXPECT_EQ(order.notOnce, 0u);
    }
}

} // namespace
