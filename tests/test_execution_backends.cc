/**
 * @file
 * Tests for the execution layer (threads/execution.hh): the serial
 * and pooled backends run the same fork set exactly once with
 * identical per-bin membership, and fault containment behaves
 * identically on both (each routes through the one executeBin()).
 *
 * Lives in the pool test binary: everything here must stay clean under
 * LSCHED_SANITIZE=thread, so no death tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "support/error.hh"
#include "support/failpoint.hh"
#include "threads/scheduler.hh"

namespace
{

namespace fp = lsched::failpoint;
using namespace lsched::threads;

SchedulerConfig
backendCfg(BackendKind backend)
{
    SchedulerConfig c;
    c.dims = 2;
    c.blockBytes = 1 << 12;
    c.backend = backend;
    c.groupCapacity = 8;
    return c;
}

/** Per-fork execution log: count and the bin that ran each tag. */
struct ForkLog
{
    std::vector<std::atomic<std::uint32_t>> count;
    std::vector<std::atomic<std::uint32_t>> bin;

    explicit ForkLog(std::size_t forks) : count(forks), bin(forks)
    {
        for (std::size_t i = 0; i < forks; ++i) {
            count[i].store(0);
            bin[i].store(~0u);
        }
    }
};

struct TaggedArg
{
    ForkLog *log;
    std::uint32_t tag;
    std::uint32_t binTag;
};

void
recordRun(void *arg, void *)
{
    const TaggedArg &t = *static_cast<const TaggedArg *>(arg);
    t.log->count[t.tag].fetch_add(1, std::memory_order_relaxed);
    t.log->bin[t.tag].store(t.binTag, std::memory_order_relaxed);
}

/** Fork kForks threads over kBlocks address blocks, round-robin. */
constexpr std::size_t kForks = 96;
constexpr std::size_t kBlocks = 12;

void
forkWorkload(LocalityScheduler &s, ForkLog &log,
             std::vector<TaggedArg> &args)
{
    args.resize(kForks);
    for (std::uint32_t i = 0; i < kForks; ++i) {
        const std::uint32_t block = i % kBlocks;
        args[i] = {&log, i, block};
        s.fork(recordRun, &args[i], nullptr,
               static_cast<Hint>(block) << 13, 0);
    }
}

TEST(ExecutionBackends, SameForkSetSameBinsOnEveryBackend)
{
    // The acceptance property of the layer split: with BlockHash
    // placement, backend choice changes *how* bins run, never *what*
    // runs or which threads share a bin.
    std::map<std::uint32_t, std::uint32_t> reference; // tag -> binTag
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        LocalityScheduler s(backendCfg(backend));
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);

        EXPECT_EQ(s.runParallel(4), kForks)
            << backendName(backend);
        for (std::uint32_t i = 0; i < kForks; ++i) {
            EXPECT_EQ(log.count[i].load(), 1u)
                << backendName(backend) << " fork " << i;
            if (backend == BackendKind::Serial)
                reference[i] = log.bin[i].load();
            else
                EXPECT_EQ(log.bin[i].load(), reference[i])
                    << backendName(backend) << " fork " << i
                    << ": per-bin membership must match serial";
        }
        EXPECT_EQ(s.pendingThreads(), 0u);
    }
}

TEST(ExecutionBackends, SerialBackendIgnoresWorkerCount)
{
    // backend=serial must run the tour on the caller even when the
    // caller asks for parallel workers — no pool is ever built.
    LocalityScheduler s(backendCfg(BackendKind::Serial));
    ForkLog log(kForks);
    std::vector<TaggedArg> args;
    forkWorkload(s, log, args);
    EXPECT_EQ(s.runParallel(8), kForks);
    EXPECT_EQ(s.workerPoolStats().threadsSpawned, 0u);
    EXPECT_EQ(s.workerPoolStats().tours, 0u);
}

TEST(ExecutionBackends, StopTourContainsTheFaultOnEveryBackend)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        SchedulerConfig c = backendCfg(backend);
        c.onError = ErrorPolicy::StopTour;
        LocalityScheduler s(c);
        fp::disarmAll();
        ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=2"));

        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_THROW(s.runParallel(4), fp::Injected)
            << backendName(backend);
        EXPECT_EQ(s.lastFaultCount(), 1u) << backendName(backend);
        EXPECT_EQ(s.pendingThreads(), 0u) << backendName(backend);
        fp::disarmAll();

        // The scheduler (pool included) is immediately reusable.
        ForkLog fresh(kForks);
        forkWorkload(s, fresh, args);
        EXPECT_EQ(s.runParallel(4), kForks) << backendName(backend);
    }
}

TEST(ExecutionBackends, ContinueAndCollectRunsTheRestOnEveryBackend)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        SchedulerConfig c = backendCfg(backend);
        c.onError = ErrorPolicy::ContinueAndCollect;
        LocalityScheduler s(c);
        fp::disarmAll();
        // One bin's top-of-execution fault is recorded; every forked
        // thread still runs (the fault fires before the first item).
        ASSERT_TRUE(fp::arm("sched.bin.execute", "hit=3"));

        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_EQ(s.runParallel(4), kForks) << backendName(backend);
        EXPECT_EQ(s.lastFaultCount(), 1u) << backendName(backend);
        for (std::uint32_t i = 0; i < kForks; ++i)
            EXPECT_EQ(log.count[i].load(), 1u)
                << backendName(backend) << " fork " << i;
        fp::disarmAll();
    }
}

TEST(ExecutionBackends, DeadlineCancelsAWedgedTourOnEveryBackend)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // Abort and StopTour surface an expired deadline as DeadlineError;
    // the scheduler is clean and reusable afterwards — on both
    // backends, since each routes through the same executeBin()
    // cancellation boundary.
    for (const ErrorPolicy policy :
         {ErrorPolicy::Abort, ErrorPolicy::StopTour}) {
        for (const BackendKind backend :
             {BackendKind::Serial, BackendKind::Pooled}) {
            SchedulerConfig c = backendCfg(backend);
            c.onError = policy;
            c.deadlineMillis = 50;
            LocalityScheduler s(c);
            fp::disarmAll();
            // Every bin execution stalls well past the deadline: a
            // wedged worker, not a thrown fault.
            ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));

            ForkLog log(kForks);
            std::vector<TaggedArg> args;
            forkWorkload(s, log, args);
            const RecoverySnapshot before = s.recoverySnapshot();
            EXPECT_THROW(s.runParallel(4), lsched::DeadlineError)
                << backendName(backend);
            fp::disarmAll();

            const RecoverySnapshot after = s.recoverySnapshot();
            EXPECT_EQ(after.deadlines, before.deadlines + 1)
                << backendName(backend);
            EXPECT_GT(after.cancelledThreads, before.cancelledThreads)
                << backendName(backend);
            EXPECT_EQ(s.pendingThreads(), 0u) << backendName(backend);

            // Immediately reusable: the cancelled tour left no debris.
            ForkLog fresh(kForks);
            forkWorkload(s, fresh, args);
            EXPECT_EQ(s.runParallel(4), kForks)
                << backendName(backend);
        }
    }
}

TEST(ExecutionBackends, DeadlineUnderContinueAndCollectIsRecorded)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // ContinueAndCollect returns normally from a cancelled tour: the
    // dropped threads are accounted as per-bin cancellation faults and
    // executed + faults covers every fork exactly once.
    for (const BackendKind backend :
         {BackendKind::Serial, BackendKind::Pooled}) {
        SchedulerConfig c = backendCfg(backend);
        c.onError = ErrorPolicy::ContinueAndCollect;
        c.deadlineMillis = 50;
        LocalityScheduler s(c);
        fp::disarmAll();
        ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));

        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        std::uint64_t executed = 0;
        EXPECT_NO_THROW(executed = s.runParallel(4))
            << backendName(backend);
        fp::disarmAll();

        EXPECT_LT(executed, kForks) << backendName(backend);
        EXPECT_EQ(executed + s.lastFaultCount(), kForks)
            << backendName(backend);
        EXPECT_GT(s.recoverySnapshot().cancelledBins, 0u)
            << backendName(backend);
        EXPECT_EQ(s.pendingThreads(), 0u) << backendName(backend);
        for (std::uint32_t i = 0; i < kForks; ++i)
            EXPECT_LE(log.count[i].load(), 1u)
                << backendName(backend) << " fork " << i
                << ": ran twice";
    }
}

TEST(ExecutionBackends, WatchdogActionCancelEscalatesToDeadlineError)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    SchedulerConfig c = backendCfg(BackendKind::Pooled);
    c.watchdogMillis = 40;
    c.watchdogAction = WatchdogAction::Cancel;
    LocalityScheduler s(c);
    fp::disarmAll();
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));

    ForkLog log(kForks);
    std::vector<TaggedArg> args;
    forkWorkload(s, log, args);
    EXPECT_THROW(s.runParallel(4), lsched::DeadlineError);
    fp::disarmAll();
    EXPECT_EQ(s.recoverySnapshot().watchdogCancels, 1u);
    EXPECT_EQ(s.pendingThreads(), 0u);

    // The default watchdog action still only reports: same stall, a
    // longer leash, and the tour completes with zero cancellations.
    SchedulerConfig observe = backendCfg(BackendKind::Pooled);
    observe.watchdogMillis = 40;
    LocalityScheduler s2(observe);
    ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=30"));
    ForkLog fresh(kForks);
    forkWorkload(s2, fresh, args);
    EXPECT_EQ(s2.runParallel(4), kForks);
    fp::disarmAll();
    EXPECT_EQ(s2.recoverySnapshot().watchdogCancels, 0u);
}

TEST(ExecutionBackends, GovernorDegradesToSerialAndRecovers)
{
    if (!fp::kCompiled)
        GTEST_SKIP() << "fail points compiled out";
    // Two consecutive deadline-cancelled tours degrade the governor;
    // degraded tours step down to the serial path (no new pool tours)
    // until two healthy tours in a row recover it.
    SchedulerConfig c = backendCfg(BackendKind::Pooled);
    c.onError = ErrorPolicy::ContinueAndCollect;
    c.deadlineMillis = 40;
    c.overloadEpochs = 2;
    c.recoverEpochs = 2;
    LocalityScheduler s(c);
    fp::disarmAll();

    for (int round = 0; round < 2; ++round) {
        ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=120"));
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        s.runParallel(4);
        fp::disarmAll();
    }
    EXPECT_EQ(s.recoveryState(), RecoveryState::Degraded);
    const std::uint64_t poolTours = s.workerPoolStats().tours;

    // Degraded: the next two tours run serially (and healthily).
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(s.recoveryState(), RecoveryState::Degraded)
            << "round " << round;
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_EQ(s.runParallel(4), kForks) << "round " << round;
    }
    EXPECT_EQ(s.workerPoolStats().tours, poolTours)
        << "degraded tours must not fan out over the pool";
    EXPECT_EQ(s.recoverySnapshot().degradedTours, 2u);
    EXPECT_EQ(s.recoveryState(), RecoveryState::Recovered);
    EXPECT_EQ(s.recoverySnapshot().recoveries, 1u);

    // Recovered behaves as healthy: the pool fans out again.
    ForkLog log(kForks);
    std::vector<TaggedArg> args;
    forkWorkload(s, log, args);
    EXPECT_EQ(s.runParallel(4), kForks);
    EXPECT_EQ(s.workerPoolStats().tours, poolTours + 1);
    EXPECT_EQ(s.recoveryState(), RecoveryState::Healthy);
}

TEST(ExecutionBackends, ReconfigureKeepsSpawnCountersMonotone)
{
    // Satellite regression: workerPoolStats() must accumulate across
    // configure() — the retired pool's spawns/steals/parks fold into
    // the running totals instead of resetting, including across a
    // serial stretch that builds no pool at all.
    LocalityScheduler s(backendCfg(BackendKind::Pooled));
    std::uint64_t lastSpawned = 0;
    std::uint64_t pooledTours = 0;
    for (int round = 0; round < 4; ++round) {
        const bool pooled = s.config().backend == BackendKind::Pooled;
        ForkLog log(kForks);
        std::vector<TaggedArg> args;
        forkWorkload(s, log, args);
        EXPECT_EQ(s.runParallel(3), kForks) << "round " << round;
        pooledTours += pooled ? 1 : 0;
        const WorkerPoolStats stats = s.workerPoolStats();
        EXPECT_EQ(stats.threadsSpawned, lastSpawned + (pooled ? 2 : 0))
            << "round " << round;
        EXPECT_EQ(stats.tours, pooledTours) << "round " << round;
        lastSpawned = stats.threadsSpawned;

        SchedulerConfig next = backendCfg(
            round % 2 ? BackendKind::Pooled : BackendKind::Serial);
        s.configure(next); // retires the pool, stats must survive
        EXPECT_EQ(s.workerPoolStats().threadsSpawned, lastSpawned)
            << "round " << round << ": configure() dropped stats";
        EXPECT_EQ(s.workerPoolStats().tours, pooledTours)
            << "round " << round << ": configure() dropped stats";
    }
    EXPECT_EQ(lastSpawned, 4u);
    EXPECT_EQ(pooledTours, 2u);
}

/** recordRun(), except that tag kThrowTag throws (a user fault). */
constexpr std::uint32_t kThrowTag = 40;

void
recordOrThrow(void *arg, void *)
{
    if (static_cast<const TaggedArg *>(arg)->tag == kThrowTag)
        throw std::runtime_error("user fault");
    recordRun(arg, nullptr);
}

/** kChainedForks threads over kBlocks blocks: with groupCapacity 8,
 *  every bin chains five groups. */
constexpr std::uint32_t kChainedForks = 400;

void
forkChained(LocalityScheduler &s, ThreadFn fn, ForkLog &log,
            std::vector<TaggedArg> &args)
{
    args.resize(kChainedForks);
    for (std::uint32_t i = 0; i < kChainedForks; ++i) {
        const std::uint32_t block = i % kBlocks;
        args[i] = {&log, i, block};
        s.fork(fn, &args[i], nullptr, static_cast<Hint>(block) << 13, 0);
    }
}

TEST(GroupRewind, EveryRetirePathLeavesTheNextPassExact)
{
    // Every site that retires the pending threads rewinds the group
    // pool, relinking all carved groups in carving order. Whichever
    // site ran, the passes forked afterwards must run each thread
    // exactly once, with executed + faults == forked.
    enum class Path { Run, RunParallel, StopTour, DeadlineCollect, Clear };
    const char *const names[] = {"run", "runParallel", "StopTour",
                                 "deadline ContinueAndCollect", "clear"};
    for (const Path path : {Path::Run, Path::RunParallel, Path::StopTour,
                            Path::DeadlineCollect, Path::Clear}) {
        const char *const name = names[static_cast<int>(path)];
        if (path == Path::DeadlineCollect && !fp::kCompiled)
            continue; // the wedged bin is a fail point
        SchedulerConfig c = backendCfg(BackendKind::Pooled);
        if (path == Path::StopTour)
            c.onError = ErrorPolicy::StopTour;
        if (path == Path::DeadlineCollect) {
            c.onError = ErrorPolicy::ContinueAndCollect;
            c.deadlineMillis = 50;
        }
        LocalityScheduler s(c);
        fp::disarmAll();

        ForkLog log(kChainedForks);
        std::vector<TaggedArg> args;
        forkChained(s, path == Path::StopTour ? recordOrThrow : recordRun,
                    log, args);
        switch (path) {
        case Path::Run:
            EXPECT_EQ(s.run(false), kChainedForks) << name;
            break;
        case Path::RunParallel:
            EXPECT_EQ(s.runParallel(4, false), kChainedForks) << name;
            break;
        case Path::StopTour:
            EXPECT_THROW(s.runParallel(4, false), std::runtime_error)
                << name;
            break;
        case Path::DeadlineCollect: {
            ASSERT_TRUE(fp::arm("sched.bin.execute", "stall=150"));
            std::uint64_t executed = 0;
            EXPECT_NO_THROW(executed = s.run(false)) << name;
            fp::disarmAll();
            EXPECT_LT(executed, kChainedForks) << name;
            EXPECT_EQ(executed + s.lastFaultCount(), kChainedForks)
                << name;
            break;
        }
        case Path::Clear:
            s.clear();
            break;
        }
        EXPECT_EQ(s.pendingThreads(), 0u) << name;
        for (std::uint32_t i = 0; i < kChainedForks; ++i)
            ASSERT_LE(log.count[i].load(), 1u) << name << " fork " << i;

        // Two passes: the first one allocates from the rewound free
        // list, the second one from the list its own retire rewound.
        for (int pass = 0; pass < 2; ++pass) {
            const SchedulerStats before = s.stats();
            ForkLog fresh(kChainedForks);
            forkChained(s, recordRun, fresh, args);
            EXPECT_EQ(s.runParallel(4, false), kChainedForks)
                << name << " pass " << pass;
            const SchedulerStats after = s.stats();
            EXPECT_EQ(after.forkedThreads - before.forkedThreads,
                      kChainedForks)
                << name << " pass " << pass;
            EXPECT_EQ((after.executedThreads - before.executedThreads) +
                          (after.faultedThreads - before.faultedThreads),
                      after.forkedThreads - before.forkedThreads)
                << name << " pass " << pass;
            for (std::uint32_t i = 0; i < kChainedForks; ++i)
                ASSERT_EQ(fresh.count[i].load(), 1u)
                    << name << " pass " << pass << " fork " << i;
        }
    }
}

} // namespace
