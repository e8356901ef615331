/**
 * @file
 * Persistent work-stealing worker pool for the SMP extension.
 *
 * The first implementation of runParallel() spawned std::threads per
 * tour and handed bins out from one shared atomic cursor: every run
 * paid full thread creation/join cost and every claim bounced the same
 * cache line between all CPUs. This pool replaces both mechanisms:
 *
 *  - Workers are OS threads created once (lazily, at the first
 *    parallel tour) and parked on a condition variable between tours;
 *    repeated runParallel() calls reuse them at the cost of one
 *    notify_all. The pool is destroyed with its owning scheduler.
 *
 *  - The bin tour is partitioned into contiguous, occupancy-weighted
 *    segments, one per worker. Contiguity preserves tour-order
 *    locality: each worker walks *neighboring* bins of the scheduling
 *    space, which is exactly what the paper's shortest-path tour is
 *    meant to provide, now per CPU. Each segment lives in a bounded
 *    Chase-Lev-style deque; the owner takes bins from the front (its
 *    locality frontier) while idle workers steal single bins from the
 *    back — the bins *farthest* from the victim's frontier, so a steal
 *    disturbs the victim's locality as little as possible.
 *
 * Because a tour's segments are pre-filled before any worker wakes and
 * nothing is ever pushed mid-run, the deque needs no growth and no
 * owner-push path: both ends reduce to a compare-exchange on one
 * packed front/back word per worker. Claims therefore contend only on
 * the owner's own cache line (plus thieves at the crossing point),
 * never on a global cursor.
 */

#ifndef LSCHED_THREADS_WORKER_POOL_HH
#define LSCHED_THREADS_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "threads/bin.hh"
#include "threads/fault.hh"

namespace lsched::threads
{

/** Lifetime statistics of a WorkerPool (also surfaced via th_stats). */
struct WorkerPoolStats
{
    /** OS threads ever created (warm tours add none). */
    std::uint64_t threadsSpawned = 0;
    /** Parallel tours executed. */
    std::uint64_t tours = 0;
    /** Bins taken from another worker's segment. */
    std::uint64_t steals = 0;
    /** Times a worker parked waiting for the next tour. */
    std::uint64_t parks = 0;
    /** Steals whose victim was pinned into another cache domain
     *  (subset of steals; topology-aware tours only). */
    std::uint64_t crossSteals = 0;
    /** CPU-affinity syscalls that failed; workers fell back to
     *  unpinned execution. */
    std::uint64_t pinFailed = 0;

    WorkerPoolStats &
    operator+=(const WorkerPoolStats &o)
    {
        threadsSpawned += o.threadsSpawned;
        tours += o.tours;
        steals += o.steals;
        parks += o.parks;
        crossSteals += o.crossSteals;
        pinFailed += o.pinFailed;
        return *this;
    }
};

namespace detail
{

/** Worker "current bin" watchdog states (see PoolJob::currentBin). */
constexpr std::int64_t kWorkerIdle = -1;
constexpr std::int64_t kWorkerDone = -2;

/**
 * Bounded two-ended work-stealing deque over a pre-filled, read-only
 * tour segment (Chase-Lev discipline; see the file comment for why no
 * push/grow path exists). The owner takes from the front, thieves from
 * the back; the packed front/back word makes every claim a single CAS
 * and guarantees each bin is handed out exactly once.
 */
class BinDeque
{
  public:
    /** Point the deque at @p count bins starting at @p items.
     *  Single-threaded: runs before the tour's workers wake. */
    void
    reset(Bin *const *items, std::uint32_t count)
    {
        items_ = items;
        state_.store(pack(0, count), std::memory_order_relaxed);
    }

    /** Owner: claim the bin at the locality frontier (front). */
    Bin *
    take()
    {
        std::uint64_t s = state_.load(std::memory_order_acquire);
        for (;;) {
            const std::uint32_t front = unpackFront(s);
            const std::uint32_t back = unpackBack(s);
            if (front >= back)
                return nullptr;
            if (state_.compare_exchange_weak(
                    s, pack(front + 1, back),
                    std::memory_order_acq_rel,
                    std::memory_order_acquire))
                return items_[front];
        }
    }

    /** Thief: claim the bin farthest from the owner's frontier. */
    Bin *
    steal()
    {
        std::uint64_t s = state_.load(std::memory_order_acquire);
        for (;;) {
            const std::uint32_t front = unpackFront(s);
            const std::uint32_t back = unpackBack(s);
            if (front >= back)
                return nullptr;
            if (state_.compare_exchange_weak(
                    s, pack(front, back - 1),
                    std::memory_order_acq_rel,
                    std::memory_order_acquire))
                return items_[back - 1];
        }
    }

    /** Bins not yet claimed (racy snapshot, for stats/tests). */
    std::uint32_t
    size() const
    {
        const std::uint64_t s = state_.load(std::memory_order_acquire);
        const std::uint32_t front = unpackFront(s);
        const std::uint32_t back = unpackBack(s);
        return front < back ? back - front : 0;
    }

  private:
    static std::uint64_t
    pack(std::uint32_t front, std::uint32_t back)
    {
        return (static_cast<std::uint64_t>(front) << 32) | back;
    }
    static std::uint32_t
    unpackFront(std::uint64_t s)
    {
        return static_cast<std::uint32_t>(s >> 32);
    }
    static std::uint32_t
    unpackBack(std::uint64_t s)
    {
        return static_cast<std::uint32_t>(s);
    }

    Bin *const *items_ = nullptr;
    std::atomic<std::uint64_t> state_{0};
};

/** One parallel tour handed to the pool. */
struct PoolJob
{
    /** The ordered bin tour (owned by the caller, outlives the tour). */
    Bin *const *tour = nullptr;
    std::size_t bins = 0;
    /** Workers participating in this tour (>= 1; 0 is the caller). */
    unsigned workers = 1;
    /** Execute one bin on worker @p worker; returns threads run. */
    std::uint64_t (*execute)(Bin *bin, unsigned worker,
                             void *ctx) = nullptr;
    void *ctx = nullptr;
    /** When non-null, workers stop claiming once it reads true
     *  (ErrorPolicy::StopTour); unclaimed bins stay in the deques and
     *  are dropped when the tour's segments are reset — the caller's
     *  unwind path recycles them off the ready list. */
    const std::atomic<bool> *stop = nullptr;
    /** When non-null, workers also stop claiming once the token is
     *  raised (deadline/watchdog cancellation). After the join,
     *  runTour drains every deque and reports each unclaimed bin
     *  through @p cancelledBin, so dropped work is accounted. */
    const CancelToken *cancel = nullptr;
    /** Per-bin cancellation sink (called from runTour's caller thread
     *  after all workers joined; race-free). May be null. */
    void (*cancelledBin)(Bin *bin, void *ctx) = nullptr;
    /** Watchdog slots, one per worker: current bin id, kWorkerIdle
     *  between bins, kWorkerDone after the segment drains. May be
     *  null. */
    std::atomic<std::int64_t> *currentBin = nullptr;
    /** Never split a super-bin across segments: the partitioner snaps
     *  each segment boundary forward to the next super-bin edge. The
     *  tour must already be grouped (groupBySuperBins). */
    bool honorSuperBins = false;
    /**
     * Cache-domain affinity (topology-aware tours; null/0 otherwise).
     * binDomain[i] is the L2 domain of tour[i] — each domain's bins
     * must form one contiguous run of the tour — and workerDomain[w]
     * the domain worker w is pinned into. The partitioner then splits
     * each domain's run only among that domain's workers, and
     * trySteal prefers same-domain victims; steals that do cross
     * count into WorkerPoolStats::crossSteals.
     */
    const std::uint32_t *binDomain = nullptr;
    const std::uint32_t *workerDomain = nullptr;
    std::uint32_t domains = 0;
    /** Total user threads executed (all workers). */
    std::atomic<std::uint64_t> executed{0};
};

/**
 * A helper phase handed to the pool (beginHelpers/endHelpers): each
 * participating helper runs @p body once, to completion. A stream's
 * drain loops popping sealed bins until the stream's queue finishes;
 * a forkParallel() phase forks one worker's range of the caller's
 * loop. Unlike a PoolJob there is no tour to partition.
 */
struct HelperJob
{
    /**
     * Run by each participating helper. @p worker is the pool worker
     * id, 1..workers — id 0 stays with the caller (a producer
     * draining inline, the fork phase's first range).
     */
    void (*body)(unsigned worker, void *ctx) = nullptr;
    void *ctx = nullptr;
    /** Helper threads taking part (>= 1). */
    unsigned workers = 1;
    /** Count the phase in WorkerPoolStats::tours (a stream is one; a
     *  fork phase is not). */
    bool countsAsTour = false;
};

} // namespace detail

/**
 * The persistent pool. One instance per LocalityScheduler, created at
 * the first runParallel() or stream and reused until the scheduler
 * dies or is reconfigured; no code path spawns threads per tour.
 *
 * Thread model: runTour() is called from one thread at a time (the
 * scheduler's running_ flag already enforces this); the caller
 * participates as worker 0 and helper threads are workers 1..N-1.
 * Helpers above a tour's worker count stay parked.
 */
class WorkerPool
{
  public:
    /**
     * @param pinWorkers pin helper threads over CPUs.
     * @param pinPlan domain-major CPU order from CacheTopology::
     *     pinPlan(); helper id pins to pinPlan[id % size]. Empty =
     *     the legacy id % cpus round-robin.
     */
    explicit WorkerPool(bool pinWorkers,
                        std::vector<unsigned> pinPlan = {});

    /** Parks, wakes, and joins every helper. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Distribute @p job's tour over job.workers workers (spawning
     * missing helpers on first use) and run it to completion. The
     * calling thread is worker 0. Exceptions from job.execute on
     * worker 0 propagate to the caller *after* all helpers finish the
     * tour; an exception escaping a helper terminates, as any escaped
     * exception on a detached-from-caller thread would
     * (ErrorPolicy::Abort's documented parallel behavior).
     */
    void runTour(detail::PoolJob &job);

    /**
     * Wake job.workers helpers (ids 1..job.workers) and set each
     * running job.body, spawning missing helpers on first use. The
     * caller does *not* participate: it returns immediately, to keep
     * producing (a stream) or to run worker 0's share itself (a fork
     * phase). @p job must stay alive until endHelpers() returns. No
     * tour may run between beginHelpers and endHelpers (the
     * scheduler's running_ flag already enforces this).
     */
    void beginHelpers(detail::HelperJob &job);

    /** Wait for every helper of the phase to finish its body. */
    void endHelpers();

    /** Lifetime statistics. */
    WorkerPoolStats stats() const;

    /** Helper threads currently alive (workers minus the caller). */
    unsigned threadCount() const;

  private:
    /** Deques padded apart so owners do not false-share claims. */
    struct alignas(64) WorkerSlot
    {
        detail::BinDeque deque;
    };

    void ensureWorkers(unsigned workers);
    void partition(const detail::PoolJob &job);
    void splitSegment(const detail::PoolJob &job, std::size_t first,
                      std::size_t last, const unsigned *workers,
                      unsigned count);
    void helperMain(unsigned helperIndex, std::uint64_t startEpoch);
    void workerLoop(unsigned id, detail::PoolJob &job);
    Bin *trySteal(unsigned id, const detail::PoolJob &job,
                  unsigned *victim);

    const bool pin_;
    /** Domain-major CPU order (may be empty; see the constructor). */
    const std::vector<unsigned> pinPlan_;

    /** Index == worker id; unique_ptr keeps slot addresses stable. */
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::vector<std::thread> helpers_;

    mutable std::mutex mutex_;
    std::condition_variable wakeCv_; ///< helpers park here
    std::condition_variable doneCv_; ///< runTour waits here
    detail::PoolJob *job_ = nullptr; ///< current tour, under mutex_
    /** Current tour's width, under mutex_. Helpers test participation
     *  against this — not job_, which they may only dereference when
     *  participating (the active_ handshake keeps it alive for exactly
     *  those helpers). */
    unsigned tourWorkers_ = 0;
    /** Current helper phase, under mutex_; same deref discipline as
     *  job_. */
    detail::HelperJob *helperJob_ = nullptr;
    /** Helper phase width, under mutex_ — the phase's tourWorkers_. */
    unsigned helperWorkers_ = 0;
    /**
     * True from beginHelpers until the *next tour's* epoch bump — not
     * endHelpers — so a helper that parked before the phase and wakes
     * after it cannot fall into the tour branch and test the stale
     * pre-phase tourWorkers_ (the shrinking-tour use-after-free,
     * helper-phase edition).
     */
    bool helperPhase_ = false;
    std::uint64_t epoch_ = 0;        ///< bumped per tour, under mutex_
    unsigned active_ = 0;            ///< helpers still in the tour
    bool shutdown_ = false;

    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> parks_{0};
    std::atomic<std::uint64_t> spawned_{0};
    std::atomic<std::uint64_t> tours_{0};
    std::atomic<std::uint64_t> crossSteals_{0};
    std::atomic<std::uint64_t> pinFailed_{0};
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_WORKER_POOL_HH
