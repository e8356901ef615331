/**
 * @file
 * The locality thread scheduler — the paper's primary contribution.
 *
 * Threads are forked with up to k address hints; the hints select a
 * block of the k-dimensional scheduling space (block dimensions sum to
 * the cache size), the block hashes to a bin, and running all threads
 * of a bin consecutively keeps their combined working set within the
 * second-level cache (Sections 2.3 and 3.2).
 *
 * Guarantees:
 *  - threads with hints in the same block always share a bin;
 *  - bins run in creation order (the paper's ready list), threads
 *    within a bin in fork order;
 *  - run(keep=true) preserves all thread specifications so the same
 *    schedule can be re-executed (the paper's th_run(keep));
 *  - forking from inside a running thread is legal when keep is
 *    false: the new thread lands in its bin and runs before run()
 *    returns (an extension past the paper's batch model).
 *
 * Beyond the paper: configuration errors and API misuse are
 * recoverable exceptions (support/error.hh), user-thread exceptions
 * are contained per ErrorPolicy (threads/fault.hh), runParallel() has
 * an optional stall watchdog, and named fail points
 * (support/failpoint.hh) inject faults into the allocation and
 * execution paths for testing.
 */

#ifndef LSCHED_THREADS_SCHEDULER_HH
#define LSCHED_THREADS_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "machine/topology.hh"
#include "obs/trace.hh"
#include "support/stats.hh"
#include "threads/execution.hh"
#include "threads/fault.hh"
#include "threads/hash_table.hh"
#include "threads/hints.hh"
#include "threads/placement.hh"
#include "threads/recovery.hh"
#include "threads/stream.hh"
#include "threads/thread_group.hh"
#include "threads/tour.hh"
#include "threads/worker_pool.hh"

namespace lsched::threads
{

/** Tunables of a LocalityScheduler (th_init's knobs and more). */
struct SchedulerConfig
{
    /** Scheduling-space dimensionality k (the paper implements 3). */
    unsigned dims = 3;
    /**
     * Target cache capacity in bytes; the sum of the k block
     * dimensions defaults to this (paper Sections 2.3, 3.2).
     */
    std::uint64_t cacheBytes = 2 * 1024 * 1024;
    /** Block dimension size; 0 selects cacheBytes / dims. */
    std::uint64_t blockBytes = 0;
    /** Hash table buckets (rounded up to a power of two). */
    std::size_t hashBuckets = 4096;
    /** Threads per thread group (amortization chunk). */
    std::uint32_t groupCapacity = 64;
    /** Fold symmetric hint permutations into one bin. */
    bool symmetricHints = false;
    /**
     * Hint→bin placement policy (placement.hh). BlockHash is the
     * paper's algorithm; RoundRobin the locality-oblivious baseline;
     * Hierarchical adds worker-sized super-bins the parallel
     * partitioner keeps on one worker. Overridable per process with
     * the --placement CLI flag.
     */
    PlacementKind placement = PlacementKind::BlockHash;
    /**
     * Parallel execution backend (execution.hh). Pooled is the
     * persistent work-stealing pool: OS threads are created once, at
     * the first parallel tour or stream, parked between tours, and
     * reused until the scheduler is destroyed or reconfigured. Serial
     * makes runParallel() run the tour on the caller alone (and a
     * stream drain on its producers). Overridable per process with
     * the --backend CLI flag.
     */
    BackendKind backend = BackendKind::Pooled;
    /** RoundRobin placement: bins cycled over (0 = policy default). */
    std::uint64_t roundRobinBins = 0;
    /** Hierarchical placement: blocks per super-bin per dimension
     *  (0 = derive from the topology when it has more than one L2
     *  group, else the policy default). */
    std::uint64_t superBinFan = 0;
    /**
     * Cache-hierarchy discovery (machine/topology.hh):
     *  - "auto" (the default) discovers the host tree from sysfs
     *    (overridable per process with the LSCHED_TOPOLOGY environment
     *    variable), falling back to flat when discovery fails;
     *  - "flat" disables the topology entirely — the pre-topology
     *    behavior, byte for byte;
     *  - a "PxCxGxS[/l2=N][/l3=N]" spec forces a synthetic tree
     *    (deterministic benches/tests; ConfigError when malformed).
     * A resolved multi-L2 tree derives what the knobs leave at 0:
     * cacheBytes == 0 takes the discovered L2 size, superBinFan == 0
     * the L2-groups-per-L3-cluster ratio (hierarchical placements),
     * and pinWorkers upgrades to the tree's domain-major pin plan with
     * super-bins routed to the workers sharing their cache domain.
     */
    std::string topology = "auto";
    /** What to do with an exception escaping a user thread. */
    ErrorPolicy onError = ErrorPolicy::Abort;
    /**
     * runParallel() watchdog deadline in milliseconds; 0 disables.
     * When a tour overruns the deadline a monitor thread warns with
     * the stuck worker/bin ids and emits a WatchdogStall trace event;
     * watchdogAction selects what happens next.
     */
    std::uint32_t watchdogMillis = 0;
    /**
     * What the watchdog does when it fires (recovery.hh): Event (the
     * default) only warns and traces, preserving the historic
     * observe-only behavior; Cancel additionally raises the tour's
     * cancellation token — the same cooperative cancel a deadline
     * uses — so a wedged tour is cut short instead of merely reported.
     */
    WatchdogAction watchdogAction = WatchdogAction::Event;
    /**
     * Tour/epoch deadline in milliseconds; 0 disables. A batch tour
     * (run()/runParallel()) that overruns it is cooperatively
     * cancelled: workers stop at the next bin boundary, dropped work
     * is accounted in stats().recover, and the call throws
     * DeadlineError (under ErrorPolicy::ContinueAndCollect it returns
     * normally with the cancellation recorded as contained faults).
     * While streaming, the deadline instead bounds *epoch progress*:
     * a standing backlog that retires nothing for a full deadline
     * period cancels the stream the same way, surfacing at
     * streamEnd().
     */
    std::uint32_t deadlineMillis = 0;
    /**
     * Bound on consecutive no-progress backpressure waits a streaming
     * producer tolerates before admission fails with AdmissionTimeout
     * (each wait backs off exponentially with jitter). 0 = retry
     * forever — but the wait is still timed, so a wedged pool produces
     * periodic warnings instead of a silent hang.
     */
    std::uint32_t streamAdmitRetries = 0;
    /**
     * Overload governor (recovery.hh): consecutive overloaded epochs
     * — cancelled tours, or stream ticks pinned at the backpressure
     * bound — before the scheduler degrades (parallel tours step down
     * to serial; streams shed load by force-sealing). 0 disables the
     * governor.
     */
    unsigned overloadEpochs = 0;
    /** Consecutive healthy epochs before a degraded scheduler steps
     *  back up. */
    unsigned recoverEpochs = 2;
    /**
     * Pin pool workers round-robin over CPUs (Linux; elsewhere a
     * no-op). Keeps a worker's bins — and their cached working sets —
     * on one CPU across tours, at the price of ceding load balancing
     * to the OS-level mix.
     */
    bool pinWorkers = false;
    /**
     * Streaming backpressure bound: the most admitted-but-unexecuted
     * threads a stream may hold. At the bound a producer drains a
     * sealed bin inline or blocks until the drain catches up; nested
     * forks from an inline drain bypass the bound (deadlock
     * avoidance), making it soft for those workloads only.
     * 0 = unbounded.
     */
    std::uint64_t streamMaxPending = 0;
    /**
     * Seal a streaming bin for draining once it holds this many
     * threads (it re-opens for the next epoch). 0 seals only under
     * backpressure and at streamEnd — maximum per-bin locality,
     * minimum overlap.
     */
    std::uint64_t streamSealThreshold = 0;
    /**
     * Adaptive placement (placement == Adaptive; threads/adapt.hh):
     * the base policy the tuner wraps and re-parameterizes. Must not
     * itself be Adaptive.
     */
    PlacementKind adaptBase = PlacementKind::BlockHash;
    /**
     * Miss rate at or below which an epoch counts as the compulsory
     * floor (PMU mode); adaptEpochs consecutive floor epochs allow the
     * tuner to grow the block back toward adaptMaxBlock.
     */
    double adaptTargetMiss = 0.05;
    /**
     * Miss rate above which an epoch is capacity-dominated; after
     * adaptEpochs consecutive such epochs the tuner halves the block
     * (doubles the bin count under a round-robin base).
     */
    double adaptHighMiss = 0.10;
    /**
     * Convergence factor over the target miss rate: the band
     * [target, target * converge] reads as converged-enough. Also the
     * bound bench/ablation_adaptive gates on.
     */
    double adaptConverge = 1.5;
    /** Consecutive same-regime epochs before the tuner acts. */
    unsigned adaptEpochs = 2;
    /** Post-retune hold: epochs of no action while the new parameters
     *  settle (prevents reacting to a half-old epoch). */
    unsigned adaptHold = 4;
    /** Smallest block the tuner may shrink to. */
    std::uint64_t adaptMinBlock = 4096;
    /** Largest block the tuner may grow to; 0 = cacheBytes. */
    std::uint64_t adaptMaxBlock = 0;
    /** Minimum LLC references per epoch for a PMU classification;
     *  epochs below it are ignored as noise. */
    std::uint64_t adaptMinRefs = 1024;
    /**
     * Dwell-only mode (no PMU): fractional dwell-per-thread
     * improvement a probe retune must deliver to be kept; otherwise
     * it is reverted and that parameter marked bad.
     */
    double adaptDwellImprove = 0.05;

    /** The block dimension actually used. */
    std::uint64_t
    effectiveBlockBytes() const
    {
        return blockBytes ? blockBytes : cacheBytes / dims;
    }
};

/** The cache topology in force (SchedulerStats::topology). */
struct TopologySnapshot
{
    /** True when a non-flat topology resolved (config topology !=
     *  "flat" and discovery/spec produced a tree). */
    bool active = false;
    /** machine::TopologySource numeric (flat=0, sysfs=1, spec=2). */
    std::uint8_t source = 0;
    unsigned packages = 0;
    unsigned l3Clusters = 0;
    unsigned l2Groups = 0;
    unsigned cpus = 0;
    unsigned smtPerCore = 0;
    std::uint64_t l2Bytes = 0;
    std::uint64_t l3Bytes = 0;
    /** Fan the tree derives (groups per cluster); 0 when the tree is
     *  single-domain. The config's superBinFan still overrides. */
    std::uint64_t derivedFan = 0;
    /** Cache domains the most recent parallel tour partitioned over
     *  (0: no topology-aware tour yet). */
    std::uint32_t domains = 0;
    /** Workers per domain in that tour (ceiling when uneven). */
    std::uint32_t domainWorkers = 0;
    /** One-line human summary (harness TopologySummary row). */
    std::string summary;
};

/** Occupancy and shape statistics for reporting. */
struct SchedulerStats
{
    /** Threads currently scheduled (pending). */
    std::uint64_t pendingThreads = 0;
    /** Threads executed over the scheduler's lifetime. */
    std::uint64_t executedThreads = 0;
    /** Threads forked over the scheduler's lifetime, batch and
     *  stream; a kept thread re-run counts once. */
    std::uint64_t forkedThreads = 0;
    /** Tours started: run(), pooled runParallel(), streamBegin(). */
    std::uint64_t runs = 0;
    /** Bins created over the lifetime, by batch and stream tables. */
    std::uint64_t binsCreated = 0;
    /** User threads whose exception was contained (lifetime). */
    std::uint64_t faultedThreads = 0;
    /** Faults contained by the most recent run or stream (the
     *  lastFaultCount() total). */
    std::uint64_t lastFaultCount = 0;
    /** Bins currently allocated. */
    std::uint64_t bins = 0;
    /** Non-empty bins. */
    std::uint64_t occupiedBins = 0;
    /** Distribution of threads over non-empty bins. */
    Summary threadsPerBin;
    /** Longest probe sequence in the bin table. */
    std::uint64_t maxHashChain = 0;
    /** Manhattan tour length over the current ready list. */
    std::uint64_t tourLength = 0;
    /** Worker-pool lifetime statistics (spawns, steals, parks). */
    WorkerPoolStats pool;
    /** Streaming statistics (live session, else lifetime totals). */
    StreamStats stream;
    /** Recovery-layer counters and governor state (lifetime). */
    RecoverySnapshot recover;
    /** Adaptive-placement tuner state (all-zero unless adaptive). */
    AdaptSnapshot adapt;
    /** Cache topology in force and last tour's domain shape. */
    TopologySnapshot topology;
};

class LocalityScheduler;

namespace detail
{

/**
 * One worker's private fork target in LocalityScheduler::forkParallel():
 * a batch BinTable and GroupPool the scheduler keeps between calls,
 * and the bins the current call forked into, linked through their
 * ready links in first-fork order (the order the merge visits them).
 */
struct ForkShardState
{
    ForkShardState(unsigned dims, std::size_t buckets,
                   std::uint32_t groupCapacity)
        : table(dims, buckets), pool(groupCapacity)
    {
    }

    /** Link @p bin at the shard's ready tail (its first fork here). */
    void
    link(Bin *bin)
    {
        bin->readyNext = nullptr;
        bin->onReadyList = true;
        if (readyTail)
            readyTail->readyNext = bin;
        else
            readyHead = bin;
        readyTail = bin;
    }

    BinTable table;
    GroupPool pool;
    Bin *readyHead = nullptr;
    Bin *readyTail = nullptr;
    /** The next worker's shard. */
    std::unique_ptr<ForkShardState> next;
};

} // namespace detail

/**
 * What a LocalityScheduler::forkParallel() body forks through. In the
 * parallel phase it is one worker's shard: fork() is the inline batch
 * fork's find-bin + cursor append, into the worker's own table. In
 * the serial fallback it forwards to LocalityScheduler::fork().
 */
class ForkShard
{
  public:
    /** Schedule a thread, as LocalityScheduler::fork() does. */
    [[gnu::always_inline]] void fork(ThreadFn fn, void *arg1, void *arg2,
                                     Hint hint1 = 0, Hint hint2 = 0,
                                     Hint hint3 = 0);

  private:
    friend class LocalityScheduler;

    ForkShard(LocalityScheduler *serial, detail::ForkShardState *state,
              unsigned dims, unsigned shift, Hint surplusHint2,
              Hint surplusHint3)
        : serial_(serial), state_(state), dims_(dims), shift_(shift),
          surplusHint2_(surplusHint2), surplusHint3_(surplusHint3)
    {
    }

    /** A null function or a non-zero surplus hint: what fork() does
     *  with them (a failed assertion, a UsageError). */
    [[gnu::noinline]] void rejectFork(ThreadFn fn, Hint hint2,
                                      Hint hint3) const;

    /** Non-null in the serial fallback: fork() forwards here. */
    LocalityScheduler *serial_;
    detail::ForkShardState *state_;
    unsigned dims_;
    unsigned shift_;
    Hint surplusHint2_;
    Hint surplusHint3_;
};

/** The locality-scheduling thread package. */
class LocalityScheduler
{
  public:
    /** Build with the given configuration. */
    explicit LocalityScheduler(const SchedulerConfig &config = {});

    /** Parks and joins the worker pool, if one was ever created. */
    ~LocalityScheduler();

    LocalityScheduler(const LocalityScheduler &) = delete;
    LocalityScheduler &operator=(const LocalityScheduler &) = delete;

    /**
     * Reconfigure (the paper's th_init, which "can be called more
     * than once to change those sizes"). Throws ConfigError on an
     * unusable configuration and UsageError while threads are pending
     * or running; the previous configuration is retained either way.
     */
    void configure(const SchedulerConfig &config);

    /** Current configuration. */
    const SchedulerConfig &config() const { return config_; }

    /**
     * Create and schedule a thread (the paper's th_fork). Hints are
     * the addresses of the data the thread will reference; unused
     * hints are 0.
     *
     * The hint span is adapted to config().dims explicitly: with
     * dims > 3 the missing trailing dimensions behave as hint 0
     * (zero-extension, as the paper's th_fork documents); with
     * dims < 3 the surplus hints are truncated, which is a UsageError
     * when a truncated hint is non-zero — it would otherwise be
     * silently ignored.
     *
     * The batch fast path is inline: one predictable test sends every
     * rare case — a stream or running tour, tracing on, a
     * placement other than power-of-two block hash (dims <= 3), a
     * non-zero surplus hint, a null function, a parallel worker — to
     * the checked fork() below. Otherwise the block coordinates come
     * from the cached block shift in place and the thread goes
     * through the same find-bin + append body the checked case uses.
     */
    [[gnu::always_inline]] void
    fork(ThreadFn fn, void *arg1, void *arg2, Hint hint1 = 0,
         Hint hint2 = 0, Hint hint3 = 0)
    {
        const bool checked =
            running_ | !forkFast_ | obs::traceOn() |
            detail::t_inParallelWorker | (fn == nullptr) |
            (((hint2 & surplusHint2_) | (hint3 & surplusHint3_)) != 0);
        if (checked) [[unlikely]] {
            forkTruncated(fn, arg1, arg2, hint1, hint2, hint3);
            return;
        }
        const std::uint64_t coords[3] = {hint1 >> forkShift_,
                                         hint2 >> forkShift_,
                                         hint3 >> forkShift_};
        appendThread(table_
                         .findOrCreateHashed(coords,
                                             hashCoords(coords, 3),
                                             kNoSuperBin)
                         .first,
                     fn, arg1, arg2);
    }

    /**
     * Fork with an arbitrary hint vector (k-dimensional case). This is
     * also the checked case of the three-hint fork: diagnostics,
     * streaming admission, PlacementPolicy::place() and the trace
     * events, around the same find-bin + append body. No metric is
     * touched per fork: stats() derives the fork and bin totals.
     */
    void fork(ThreadFn fn, void *arg1, void *arg2,
              std::span<const Hint> hints);

    /**
     * Run every scheduled thread, bins in creation order, threads
     * within a bin in fork order (the paper's th_run). With @p keep the
     * specifications survive for re-execution; otherwise all bins and
     * groups are recycled. Returns the number of threads executed.
     *
     * Exceptions escaping user threads are handled per
     * config().onError; after a StopTour rethrow (or any unwind) the
     * scheduler is back in a clean, reusable state with no pending
     * threads.
     */
    std::uint64_t run(bool keep = false);

    /**
     * Fork phase on the pool: call @p body(k, shard) for every k in
     * [0, count) and leave exactly the schedule the serial loop
     * `for k: body(k, shard)` with shard.fork() = fork() builds — the
     * same bins, bin ids, ready order, per-bin thread order and counts
     * (DESIGN.md §9). Worker w of W = min(@p workers, count) runs the
     * contiguous range [w·count/W, (w+1)·count/W) and forks through
     * its shard into its own batch table; after the join the caller
     * merges the shards in worker order. Whatever else a body does
     * runs in parallel, so bodies must not depend on each other.
     * @p workers == 0 picks hardware_concurrency.
     *
     * The serial loop itself runs, on the caller, with one worker,
     * the Serial backend, a degraded overload governor, tracing on,
     * or a placement the inline fork() does not take (RoundRobin,
     * adaptive, hierarchical, symmetric hints, dims > 3). A body that
     * throws there leaves the threads forked before it pending.
     *
     * In the parallel phase, a body's fork(), run(), runParallel(),
     * forkParallel(), configure() and clear() on this scheduler throw
     * UsageError. The first exception from any body stops the other
     * workers at their next k and is rethrown once on the caller after
     * the join, with every shard's threads dropped: the pending
     * threads and the ready list are as before the call.
     *
     * Throws UsageError during a stream or a run. Implemented in
     * execution.cc.
     */
    void forkParallel(
        unsigned workers, std::size_t count,
        const std::function<void(std::size_t, ForkShard &)> &body);

    /**
     * SMP extension (paper Section 7 notes the idea "can be extended
     * in a straightforward manner to ... symmetric multiprocessors"):
     * distribute the bin tour over @p workers OS threads, each worker
     * running whole bins so per-bin locality is preserved on its CPU.
     * User threads must be mutually independent. Forking from inside
     * a running thread is not supported here — it is detected and
     * fatal, naming the restriction. Exceptions from user threads are
     * handled per config().onError; config().watchdogMillis arms a
     * stall watchdog. Returns the number of threads executed.
     * Implemented in execution.cc.
     */
    std::uint64_t runParallel(unsigned workers, bool keep = false);

    /**
     * Streaming extension (the server-shaped mode): open a
     * fork-while-run session. Until streamEnd(), fork() is safe from
     * any OS thread concurrently and admitted threads are drained by
     * @p workers pool helpers as bins seal — there is no barrier
     * between forking and running. @p workers == 0 picks
     * hardware_concurrency; with the Serial backend no helpers run
     * and all draining happens on producers (backpressure) and in
     * streamEnd(). Throws UsageError mid-run, mid-stream, or with
     * batch threads pending.
     */
    void streamBegin(unsigned workers = 0);

    /**
     * Close the session opened by streamBegin(): seals and drains
     * everything still pending, stops the helpers, folds the
     * session's counters into the scheduler's lifetime statistics,
     * and (under StopTour) rethrows the first contained exception
     * exactly once. Returns the number of threads the stream
     * executed.
     */
    std::uint64_t streamEnd();

    /**
     * Convenience wrapper: streamBegin(workers), run @p producer on
     * @p producers OS threads (index 0 runs on the caller), then
     * streamEnd(). A throwing producer still closes the stream before
     * its exception is rethrown.
     */
    std::uint64_t
    runStream(unsigned workers, unsigned producers,
              const std::function<void(unsigned)> &producer);

    /** True between streamBegin() and streamEnd(). */
    bool streaming() const { return stream_ != nullptr; }

    /** Live session counters, or lifetime totals when idle. */
    StreamStats
    streamStats() const
    {
        return stream_ ? stream_->stats() : lifetimeStream_;
    }

    /** Per-bin totals of the most recent finished stream. */
    const std::vector<StreamBinReport> &lastStreamBins() const
    {
        return lastStreamBins_;
    }

    /** Drop all pending threads without running them. */
    void clear();

    /** Number of threads waiting to run. */
    std::uint64_t pendingThreads() const { return pendingThreads_; }

    /** Bins allocated so far. */
    std::uint64_t binCount() const { return table_.binCount(); }

    /**
     * Snapshot of the scheduler's statistics. With metrics
     * collection on, every snapshot is also published as obs gauges,
     * one per row of threads/stat_fields.hh.
     */
    SchedulerStats stats() const;

    /**
     * Publish a stats() snapshot as obs gauges; a no-op while
     * metrics collection is off. run(), runParallel() and
     * streamEnd() call it as they return, so a --metrics dump
     * carries the final values whether or not the program ever
     * calls stats().
     */
    void publishMetrics() const;

    /** Per-bin thread counts in ready order (for tests/reports). */
    std::vector<std::uint64_t> binOccupancy() const;

    /** One ready bin as readyList() reports it. */
    struct ReadyBin
    {
        std::uint32_t id = 0;
        BlockCoords coords{};
        std::uint64_t threads = 0;

        bool operator==(const ReadyBin &) const = default;
    };

    /** The ready list: each bin's id, coordinates and thread count,
     *  in tour order (for tests/reports). */
    std::vector<ReadyBin> readyList() const;

    /**
     * Faults contained during the most recent run()/runParallel()
     * (at most FaultCtx::kMaxRecordedFaults retained in detail).
     */
    const std::vector<ThreadFault> &lastFaults() const
    {
        return lastFaults_;
    }

    /** Total faults in the most recent run, including past the cap. */
    std::uint64_t lastFaultCount() const { return lastFaultsTotal_; }

    /** Slabs each forkParallel() worker shard's group pool has
     *  carved, by worker (tests: flat across warm calls). */
    std::vector<std::size_t> forkShardSlabs() const;

    /**
     * Lifetime worker-pool statistics, including pools already retired
     * by reconfiguration. threadsSpawned stays flat across warm tours
     * — the observable proof that repeated runParallel() calls create
     * no OS threads after the first.
     */
    WorkerPoolStats workerPoolStats() const
    {
        WorkerPoolStats s = retiredPoolStats_;
        if (workerPool_)
            s += workerPool_->stats();
        return s;
    }

    /**
     * Block coordinates a given hint vector maps to (for tests and
     * stats). A pure inspection: routed through PlacementPolicy::peek,
     * so a stateful placement (RoundRobin's cursor) is *not* advanced
     * — calling this can never perturb where real forks land.
     */
    BlockCoords
    coordsFor(std::span<const Hint> hints) const
    {
        return placement_->peek(hints).coords;
    }

    /** The active placement policy (inspection; tests). */
    const PlacementPolicy &placementPolicy() const { return *placement_; }

    /**
     * Give an adaptive placement (placement == Adaptive) a chance to
     * retune from the profiler's attribution right now, in addition to
     * the automatic hooks (end of run()/runParallel(), streamBegin/
     * streamEnd, the stream monitor's tick). For benches and tests
     * that feed Profiler::recordSample() between tours. Legal while
     * idle or streaming; throws UsageError mid-run (a tour must place
     * against fixed parameters). Returns true when the parameters
     * changed; always false for non-adaptive placements.
     */
    bool pollAdaptivePlacement();

    /** Current overload-governor state (Healthy when disabled). */
    RecoveryState recoveryState() const { return governor_.state(); }

    /**
     * The resolved cache topology, or null when the config forced
     * "flat" (or auto-discovery found nothing and fell back). Shared:
     * callers may hold it past a reconfigure.
     */
    std::shared_ptr<const machine::CacheTopology> topologyTree() const
    {
        return topo_;
    }

    /** Lifetime recovery counters (also embedded in stats()). */
    RecoverySnapshot
    recoverySnapshot() const
    {
        RecoverySnapshot s = recovery_.snapshot();
        s.state = governor_.state();
        return s;
    }

  private:
    friend struct detail::RunGuard;

    std::vector<Bin *> readyBins() const;

    /** Link @p bin at the ready list's tail. */
    void
    appendReady(Bin *bin)
    {
        bin->readyNext = nullptr;
        bin->onReadyList = true;
        if (readyTail_)
            readyTail_->readyNext = bin;
        else
            readyHead_ = bin;
        readyTail_ = bin;
    }

    /** The append half of the one fork body: write the spec through
     *  the bin's cursor, opening a new tail group when it is full. */
    void
    appendThread(Bin *bin, ThreadFn fn, void *arg1, void *arg2)
    {
        bin->append(pool_, fn, arg1, arg2);
        ++pendingThreads_;
        if (!bin->onReadyList) [[unlikely]]
            appendReady(bin);
    }

    /** Zero the pending count, folding it into the forked total, and
     *  rewind the group pools, the fork shards' too (every site that
     *  drops or finishes the pending threads: each has recycled every
     *  bin's groups, so all of them are back on their free lists). */
    void
    retirePending()
    {
        retiredForks_ += pendingThreads_;
        pendingThreads_ = 0;
        pool_.rewind();
        for (detail::ForkShardState *shard = forkShards_.get(); shard;
             shard = shard->next.get())
            shard->pool.rewind();
    }

    /** The persistent worker pool, created at its first use. */
    WorkerPool &workerPool();

    /** Throw UsageError naming @p call when the calling thread runs a
     *  forkParallel() body. */
    static void rejectInForkPhase(const char *call);

    /** forkParallel()'s merge: every bin the shards forked into, in
     *  worker order, joins the main table and ready list. */
    void mergeForkShards();

    /** Recycle every shard bin's chain and empty the shard ready
     *  lists (a failed fork phase). */
    void dropForkShards() noexcept;

    /** Return the groups of every bin on the list [@p head, @p tail]
     *  to their pools, unlink the bins and empty the list. */
    static void dropReadyList(Bin *&head, Bin *&tail) noexcept;

    /** Publish every ready bin's cursor (run()/runParallel() entry). */
    void publishReadyTails();

    /** Checked case of the three-hint fork: the surplus-hint check,
     *  then the span fork. */
    [[gnu::noinline]] void forkTruncated(ThreadFn fn, void *arg1,
                                         void *arg2, Hint hint1,
                                         Hint hint2, Hint hint3);

    /**
     * Re-read placement_->hotPolicy() and the fast-path state derived
     * from it (block shift, surplus-hint masks). Every site that
     * builds or retunes the placement calls this, so the cached
     * policy and the cached shift never disagree.
     */
    void refreshHotPlacement();
    /**
     * Reset to a clean idle state after an abandoned run: recycles
     * @p inFlight (a bin already unlinked by the streaming loop) and
     * every bin still on the ready list, then zeroes the pending count
     * and the running flag. noexcept — runs during unwinds.
     */
    void abandonRun(Bin *inFlight) noexcept;

    /**
     * Resolved cache topology; null when flat. Declared before
     * config_: the constructor resolves it as an out-parameter of the
     * same validated() call that initializes config_, so it must be
     * constructed first.
     */
    std::shared_ptr<const machine::CacheTopology> topo_;
    SchedulerConfig config_;
    /** The placement layer: hint vector → bin decision. */
    std::unique_ptr<PlacementPolicy> placement_;
    /** Cached placement_->hotPolicy(): the batch fork path dispatches
     *  straight to the adaptive wrapper's inner generation, so a
     *  quiescent tuner adds nothing per fork. Set, with the fields
     *  below, only by refreshHotPlacement(). */
    PlacementPolicy *placeHot_ = nullptr;
    /** placeHot_ is a power-of-two, non-symmetric block hash and
     *  dims <= 3: the inline fork may shift hints itself. */
    bool forkFast_ = false;
    /** The hot block hash's log2(blockBytes) when forkFast_. */
    unsigned forkShift_ = 0;
    /** All ones when hint 2 (3) lies past dims, else 0: a non-zero
     *  masked hint sends the fork to the checked case's UsageError. */
    Hint surplusHint2_ = 0;
    Hint surplusHint3_ = 0;
    BinTable table_;
    GroupPool pool_;
    /** forkParallel()'s per-worker shards, worker 0's first, linked
     *  through ForkShardState::next; kept between calls so their
     *  pools stop carving once warm. One pointer, not a vector: a
     *  larger scheduler object moved where the C heap placed later
     *  allocations, and with it perfbench stream_admit's peak RSS. */
    std::unique_ptr<detail::ForkShardState> forkShards_;
    /** Persistent parallel workers; created at first runParallel(). */
    std::unique_ptr<WorkerPool> workerPool_;
    /** Stats of pools retired by reconfiguration. */
    WorkerPoolStats retiredPoolStats_;

    Bin *readyHead_ = nullptr;
    Bin *readyTail_ = nullptr;

    std::uint64_t pendingThreads_ = 0;
    /** Threads forked before the last retirePending() and by
     *  finished streams; the forked total adds pendingThreads_ and
     *  the open stream's admissions. */
    std::uint64_t retiredForks_ = 0;
    /** Bins of replaced batch tables and finished streams. */
    std::uint64_t retiredBins_ = 0;
    /** run(), pooled runParallel() and streamBegin() calls. */
    std::uint64_t runs_ = 0;
    std::uint64_t executedThreads_ = 0;
    std::uint64_t faultedThreads_ = 0;
    std::vector<ThreadFault> lastFaults_;
    std::uint64_t lastFaultsTotal_ = 0;
    bool running_ = false;
    bool nestedForkOk_ = false;

    /**
     * Active streaming session; non-null exactly while streaming().
     * Declared after workerPool_ so teardown finishes the stream
     * (stopping the drain helpers) before the pool is destroyed.
     */
    std::unique_ptr<StreamSession> stream_;
    /** Accumulated counters of finished streams. */
    StreamStats lifetimeStream_;
    std::vector<StreamBinReport> lastStreamBins_;

    /** Domain shape of the most recent topology-aware parallel tour
     *  (0 until one runs); surfaced via stats().topology. */
    std::uint32_t lastTourDomains_ = 0;
    std::uint32_t lastTourDomainWorkers_ = 0;

    /** Lifetime recovery counters (deadlines, cancels, sheds). */
    detail::RecoveryStats recovery_;
    /** Overload → degrade → recover state machine; disabled unless
     *  config_.overloadEpochs > 0. */
    OverloadGovernor governor_;
};

inline void
ForkShard::fork(ThreadFn fn, void *arg1, void *arg2, Hint hint1,
                Hint hint2, Hint hint3)
{
    if (serial_) {
        serial_->fork(fn, arg1, arg2, hint1, hint2, hint3);
        return;
    }
    if ((fn == nullptr) |
        (((hint2 & surplusHint2_) | (hint3 & surplusHint3_)) != 0))
        [[unlikely]]
        rejectFork(fn, hint2, hint3);
    const std::uint64_t coords[3] = {hint1 >> shift_, hint2 >> shift_,
                                     hint3 >> shift_};
    Bin *bin = state_->table
                   .findOrCreateHashed(coords, hashCoords(coords, 3),
                                       kNoSuperBin)
                   .first;
    bin->append(state_->pool, fn, arg1, arg2);
    if (!bin->onReadyList) [[unlikely]]
        state_->link(bin);
}

namespace detail
{

/**
 * Unwind protection for run()/runParallel(): unless the run commits,
 * destruction abandons it — every ready bin is recycled, the pending
 * count zeroed, and the running flag dropped — so a throw (user
 * exception under Abort, StopTour rethrow, injected allocation
 * failure) can never leave the scheduler stuck with running_ == true.
 */
struct RunGuard
{
    LocalityScheduler &scheduler;
    /** Bin the streaming loop has unlinked but not finished. */
    Bin **inFlight = nullptr;
    bool committed = false;

    /** Normal completion: the run loop restored state itself. */
    void
    commit()
    {
        committed = true;
        scheduler.running_ = false;
        scheduler.nestedForkOk_ = false;
    }

    ~RunGuard()
    {
        if (!committed)
            scheduler.abandonRun(inFlight ? *inFlight : nullptr);
    }
};

} // namespace detail

} // namespace lsched::threads

#endif // LSCHED_THREADS_SCHEDULER_HH
