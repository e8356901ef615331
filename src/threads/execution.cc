/**
 * @file
 * The execution layer (execution.hh): the serial tour walk, the pool
 * callbacks, runParallel() — the SMP extension of the locality
 * scheduler (paper Section 7) — and the --placement/--backend/--sched
 * CLI hook.
 *
 * Bins are the unit of distribution: a worker always runs a whole bin
 * so the per-bin working-set property carries over to each CPU's own
 * cache. runParallel() takes the ready list as its tour (grouping
 * super-bins together under a hierarchical placement), arms the
 * optional stall watchdog, and hands the tour to the persistent
 * work-stealing pool (worker_pool.hh) — or, with backend=serial or one
 * worker, to run()'s serial walk. All bin execution, fault
 * containment (ErrorPolicy), tracing, and fail-point sites live in the
 * one executeBin() routine (bin_exec.hh) both paths share.
 *
 * The tour monitor (threads/recovery.hh) supervises each parallel
 * tour: SchedulerConfig::deadlineMillis arms a hard deadline whose
 * expiry requests cooperative cancellation through the tour's
 * CancelToken, and watchdogMillis a periodic stall report that — with
 * watchdogAction == cancel — escalates to the same token. When the
 * overload governor is degraded, pooled tours step down to the serial
 * path until it recovers.
 */

#include "threads/execution.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/profile.hh"
#include "support/cli.hh"
#include "support/error.hh"
#include "support/panic.hh"
#include "threads/bin_exec.hh"
#include "threads/config_keys.hh"
#include "threads/placement.hh"
#include "threads/recovery.hh"
#include "threads/sched_obs.hh"
#include "threads/scheduler.hh"
#include "threads/worker_pool.hh"

namespace lsched::threads
{

namespace
{

/**
 * The pool callback (PoolJob::execute) behind every parallel tour.
 * The thread-local marker covers exactly the span where user threads
 * run, so fork() can reject the unsynchronized-ready-list race from
 * any pool worker. Under ErrorPolicy::Abort executeBin() does not
 * contain: an escaped exception hits the worker-thread boundary
 * (std::terminate on a helper; rethrown on the caller for worker 0).
 */
std::uint64_t
poolExecute(Bin *bin, unsigned worker, void *ctxRaw)
{
    auto *fault = static_cast<detail::FaultCtx *>(ctxRaw);
    detail::ParallelWorkerScope in_worker;
    return detail::executeBin(bin, *fault, worker);
}

/** PoolJob::cancelledBin — account a bin the cancellation dropped. */
void
poolCancelled(Bin *bin, void *ctxRaw)
{
    auto *fault = static_cast<detail::FaultCtx *>(ctxRaw);
    if (bin->threadCount > 0)
        detail::noteCancelledBin(*fault, bin->id, 0, bin->threadCount);
}

std::vector<std::pair<std::string, std::string>> g_schedOverrides;

/**
 * Validate and record one (key, value) override. All three flags
 * funnel through here so a typo dies at the command line — against a
 * scratch config, since the real ones don't exist yet — instead of
 * surfacing as a ConfigError from whichever scheduler is configured
 * first.
 */
void
addSchedOverride(const char *flag, const std::string &key,
                 const std::string &value)
{
    SchedulerConfig scratch;
    std::string error;
    if (!applyConfigKey(scratch, key, value, &error))
        LSCHED_FATAL(flag, ": ", error);
    g_schedOverrides.emplace_back(key, value);
}

/** Receiver for the built-in --placement/--backend/--sched values. */
void
applyCliSched(const std::string &placement, const std::string &backend,
              const std::string &sched)
{
    if (!placement.empty())
        addSchedOverride("--placement", "placement", placement);
    if (!backend.empty())
        addSchedOverride("--backend", "backend", backend);
    // --sched is comma-separated key=value pairs, later pairs winning
    // (they replay in order).
    std::size_t pos = 0;
    while (pos < sched.size()) {
        std::size_t comma = sched.find(',', pos);
        if (comma == std::string::npos)
            comma = sched.size();
        const std::string pair = sched.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            LSCHED_FATAL("--sched: expected key=value, got '", pair,
                         "'");
        }
        addSchedOverride("--sched", pair.substr(0, eq),
                         pair.substr(eq + 1));
    }
}

/**
 * Install the hook at static-initialization time, mirroring the obs
 * library's --trace/--metrics registration: any binary linking the
 * scheduler honours --placement/--backend with no per-program code.
 */
[[maybe_unused]] const bool g_cliSchedHookInstalled =
    (lsched::setCliSchedHook(&applyCliSched), true);

} // namespace

namespace detail
{

const std::vector<std::pair<std::string, std::string>> &
schedOverrides()
{
    return g_schedOverrides;
}

std::uint64_t
runSerialTour(const std::vector<Bin *> &tour, FaultCtx &fault)
{
    // No ParallelWorkerScope: a serial tour runs on the caller, where
    // nested fork() is a recoverable UsageError (or legal, in run()'s
    // streaming mode) — not the parallel data race the marker exists
    // to make fatal.
    std::uint64_t executed = 0;
    std::size_t next = 0;
    for (; next < tour.size() && !fault.stopRequested(); ++next)
        executed += executeBin(tour[next], fault, 0);
    if (fault.cancelRequested()) {
        // Account the un-walked tail, as the pool does with its
        // post-join deque sweep.
        for (; next < tour.size(); ++next)
            poolCancelled(tour[next], &fault);
    }
    return executed;
}

} // namespace detail

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Serial:
        return "serial";
      case BackendKind::Pooled:
        return "pooled";
    }
    return "?";
}

bool
tryBackendFromName(const std::string &name, BackendKind *out)
{
    if (name == "serial")
        *out = BackendKind::Serial;
    else if (name == "pooled")
        *out = BackendKind::Pooled;
    else
        return false;
    return true;
}

WorkerPool &
LocalityScheduler::workerPool()
{
    if (!workerPool_) {
        workerPool_ = std::make_unique<WorkerPool>(
            config_.pinWorkers,
            topo_ ? topo_->pinPlan() : std::vector<unsigned>{});
    }
    return *workerPool_;
}

namespace
{

/**
 * One forkParallel() phase, shared by its workers: worker w runs the
 * body over its contiguous range of k into shards[w].
 */
struct ForkPhase
{
    const std::function<void(std::size_t, ForkShard &)> *body;
    ForkShard *shards;
    std::size_t count;
    unsigned workers;
    /** Raised by the first throwing body; the others stop at their
     *  next k. */
    std::atomic<bool> stop{false};
    std::mutex mutex;
    std::exception_ptr first;

    /** [begin, end) of worker @p w: [w·count/W, (w+1)·count/W),
     *  computed without overflowing w·count. */
    std::size_t
    bound(std::size_t w) const
    {
        return count / workers * w + count % workers * w / workers;
    }

    /** The helper body (HelperJob::body); the caller runs worker 0. */
    static void
    main(unsigned worker, void *ctx)
    {
        auto &phase = *static_cast<ForkPhase *>(ctx);
        detail::ParallelWorkerScope inWorker;
        detail::t_inForkPhase = true;
        const std::size_t end = phase.bound(worker + 1);
        try {
            for (std::size_t k = phase.bound(worker);
                 k < end && !phase.stop.load(std::memory_order_relaxed);
                 ++k)
                (*phase.body)(k, phase.shards[worker]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(phase.mutex);
            if (!phase.first)
                phase.first = std::current_exception();
            phase.stop.store(true, std::memory_order_relaxed);
        }
        detail::t_inForkPhase = false;
    }
};

} // namespace

void
LocalityScheduler::forkParallel(
    unsigned workers, std::size_t count,
    const std::function<void(std::size_t, ForkShard &)> &body)
{
    rejectInForkPhase("forkParallel()");
    if (detail::inParallelWorker()) {
        LSCHED_FATAL("forkParallel() from a thread running under "
                     "runParallel() or a streaming drain helper is not "
                     "supported: the ready list is not synchronized "
                     "during a parallel tour.");
    }
    if (stream_) {
        throw lsched::UsageError("forkParallel() during an active "
                                 "stream; close it with streamEnd() "
                                 "first");
    }
    if (running_)
        throw lsched::UsageError("forkParallel() during run()");
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    if (count < workers)
        workers = static_cast<unsigned>(count);
    // The shards fork as the inline fork() does, so they take only the
    // placements it takes: a plain block hash (not adaptive, whose
    // hot policy can be one), with no trace events to emit.
    const bool inlinePlacement =
        forkFast_ && placeHot_ == placement_.get() && !obs::traceOn();
    if (workers <= 1 || config_.backend == BackendKind::Serial ||
        governor_.degraded() || !inlinePlacement) {
        ForkShard forward(this, nullptr, config_.dims, 0, 0, 0);
        for (std::size_t k = 0; k < count; ++k)
            body(k, forward);
        return;
    }

    std::vector<ForkShard> shards;
    shards.reserve(workers);
    std::unique_ptr<detail::ForkShardState> *state = &forkShards_;
    for (unsigned w = 0; w < workers; ++w, state = &(*state)->next) {
        if (!*state) {
            *state = std::make_unique<detail::ForkShardState>(
                config_.dims, config_.hashBuckets, config_.groupCapacity);
        }
        shards.push_back(ForkShard(nullptr, state->get(), config_.dims,
                                   forkShift_, surplusHint2_,
                                   surplusHint3_));
    }
    ForkPhase phase;
    phase.body = &body;
    phase.shards = shards.data();
    phase.count = count;
    phase.workers = workers;
    detail::HelperJob job;
    job.body = &ForkPhase::main;
    job.ctx = &phase;
    job.workers = workers - 1;

    WorkerPool &pool = workerPool();
    running_ = true;
    try {
        pool.beginHelpers(job);
    } catch (...) {
        running_ = false;
        throw;
    }
    ForkPhase::main(0, &phase);
    pool.endHelpers();
    running_ = false;

    if (!phase.first) {
        try {
            mergeForkShards();
        } catch (...) {
            phase.first = std::current_exception();
        }
    }
    if (phase.first) {
        dropForkShards();
        std::rethrow_exception(phase.first);
    }
}

void
LocalityScheduler::mergeForkShards()
{
    // Shards past this call's workers forked nothing: their lists are
    // empty, as every call leaves them.
    //
    // Pass 1 creates every missing bin, in shard order and each
    // shard's first-fork order: the order serial forks would have.
    // The only step that can throw (a bin allocation); a throw leaves
    // empty bins behind, but no thread.
    for (detail::ForkShardState *shard = forkShards_.get(); shard;
         shard = shard->next.get()) {
        for (Bin *bin = shard->readyHead; bin; bin = bin->readyNext) {
            table_.findOrCreateHashed(bin->coords.data(), bin->hashVal,
                                      bin->superBin);
        }
    }
    // Pass 2 moves each shard bin's chain behind its main bin's and
    // puts main bins that were not ready at the ready tail.
    for (detail::ForkShardState *shard = forkShards_.get(); shard;
         shard = shard->next.get()) {
        for (Bin *bin = shard->readyHead; bin;) {
            Bin *next = bin->readyNext;
            Bin *into = table_.findHashed(bin->coords.data(), bin->hashVal);
            pendingThreads_ += bin->threadCount;
            bin->publishTail();
            into->publishTail();
            into->takeChain(*bin);
            bin->readyNext = nullptr;
            bin->onReadyList = false;
            if (!into->onReadyList)
                appendReady(into);
            bin = next;
        }
        shard->readyHead = nullptr;
        shard->readyTail = nullptr;
    }
}

void
LocalityScheduler::dropForkShards() noexcept
{
    for (detail::ForkShardState *shard = forkShards_.get(); shard;
         shard = shard->next.get())
        dropReadyList(shard->readyHead, shard->readyTail);
}

std::uint64_t
LocalityScheduler::runParallel(unsigned workers, bool keep)
{
    rejectInForkPhase("runParallel()");
    if (stream_) {
        throw lsched::UsageError("runParallel() during an active "
                                 "stream; close it with streamEnd() "
                                 "first");
    }
    LSCHED_ASSERT(!running_, "recursive run()");
    if (workers == 0)
        workers = std::thread::hardware_concurrency();
    if (workers > 1 && config_.backend != BackendKind::Serial &&
        governor_.degraded()) {
        // Graceful degradation: while the governor is degraded, the
        // tour steps down to the serial path (which still arms the
        // deadline) instead of fanning out over a pool that is not
        // keeping up. run() feeds the governor, so sustained healthy
        // tours step back up.
        recovery_.degradedTours.fetch_add(1, std::memory_order_relaxed);
        LSCHED_WARN("overload governor degraded: runParallel(", workers,
                    ") stepping down to the serial path");
        LSCHED_TRACE_EVENT(
            obs::EventType::LoadShed, 0, pendingThreads_, workers);
        workers = 1;
    }
    if (workers <= 1 || config_.backend == BackendKind::Serial) {
        // One worker — or the serial backend, whose tour is exactly
        // run()'s ordered walk (no helpers, so no watchdog either).
        return run(keep);
    }

    publishReadyTails();
    running_ = true;
    nestedForkOk_ = false;
    lastFaults_.clear();
    lastFaultsTotal_ = 0;

    detail::RunGuard guard{*this, nullptr};
    detail::FaultCtx ctx(config_.onError, &lastFaults_);
    ctx.recovery = &recovery_;
    CancelToken cancelToken;
    if (config_.deadlineMillis > 0 ||
        (config_.watchdogMillis > 0 &&
         config_.watchdogAction == WatchdogAction::Cancel)) {
        ctx.cancel = &cancelToken;
    }

    std::vector<Bin *> tour = readyBins();
    const bool superBins = placement_->hierarchical();
    if (superBins)
        tour = groupBySuperBins(std::move(tour));

    // Topology-aware domain partition: with a resolved cache tree that
    // exposes more than one L2 group, deal super-bins across cache
    // domains and split the workers into matching teams, so each
    // super-bin's blocks execute on workers pinned inside one domain.
    // Gated on pinWorkers — without pinning the teams would be
    // arbitrary thread subsets with no cache in common.
    std::vector<std::uint32_t> binDomain;
    std::vector<std::uint32_t> workerDomain;
    std::uint32_t domains = 0;
    lastTourDomains_ = 0;
    lastTourDomainWorkers_ = 0;
    if (superBins && topo_ && topo_->l2Groups() > 1 && workers > 1 &&
        config_.pinWorkers) {
        domains = std::min<std::uint32_t>(topo_->l2Groups(), workers);
        // Stable, so super-bin groups stay contiguous inside their
        // domain's run — the pool's partition requires one contiguous
        // range per domain.
        std::stable_sort(
            tour.begin(), tour.end(),
            [domains](const Bin *a, const Bin *b) {
                return TopologyPlacement::domainOf(a->superBin, a->id,
                                                   domains) <
                       TopologyPlacement::domainOf(b->superBin, b->id,
                                                   domains);
            });
        binDomain.reserve(tour.size());
        for (const Bin *bin : tour) {
            binDomain.push_back(TopologyPlacement::domainOf(
                bin->superBin, bin->id, domains));
        }
        workerDomain.resize(workers);
        for (unsigned w = 0; w < workers; ++w)
            workerDomain[w] = w % domains;
        lastTourDomains_ = domains;
        lastTourDomainWorkers_ = (workers + domains - 1) / domains;
    }

    LSCHED_TRACE_EVENT(obs::EventType::RunBegin, pendingThreads_,
                       table_.binCount(), workers);
    obs::profileNoteEpoch();
    ++runs_;
    if (obs::metricsOn()) {
        // Hops of the nominal tour; interleaving across workers is
        // visible in the trace, not the histogram.
        detail::recordTourHops(tour, config_.dims);
    }

    const std::unique_ptr<std::atomic<std::int64_t>[]> currentBin(
        new std::atomic<std::int64_t>[workers]);
    for (unsigned w = 0; w < workers; ++w)
        currentBin[w].store(detail::kWorkerIdle,
                            std::memory_order_relaxed);

    detail::PoolJob job;
    job.tour = tour.data();
    job.bins = tour.size();
    job.workers = workers;
    job.execute = &poolExecute;
    job.ctx = &ctx;
    job.stop = ctx.policy == ErrorPolicy::StopTour ? &ctx.stop : nullptr;
    job.cancel = ctx.cancel;
    job.cancelledBin = &poolCancelled;
    job.currentBin = currentBin.get();
    job.honorSuperBins = superBins;
    if (domains > 0) {
        job.binDomain = binDomain.data();
        job.workerDomain = workerDomain.data();
        job.domains = domains;
    }

    {
        detail::TourMonitorSpec mspec;
        mspec.deadlineMillis = config_.deadlineMillis;
        mspec.watchdogMillis = config_.watchdogMillis;
        mspec.watchdogAction = config_.watchdogAction;
        mspec.cancel = &cancelToken;
        mspec.recovery = &recovery_;
        mspec.currentBin = currentBin.get();
        mspec.workers = workers;
        detail::TourMonitor monitor(mspec);
        workerPool().runTour(job);
    }
    const std::uint64_t executed =
        job.executed.load(std::memory_order_relaxed);

    const bool cancelled = ctx.cancelRequested();
    if (governor_.enabled())
        governor_.observe(cancelled);
    const bool faultedStop = ctx.first != nullptr;
    if (!keep && !faultedStop) {
        for (Bin *bin : tour) {
            GroupPool::recycleChain(bin->groupsHead);
            bin->clearGroups();
            bin->readyNext = nullptr;
            bin->onReadyList = false;
        }
        readyHead_ = nullptr;
        readyTail_ = nullptr;
        retirePending();
    }

    executedThreads_ += executed;
    lastFaultsTotal_ = ctx.totalFaults;
    faultedThreads_ += lastFaultsTotal_;
    if (faultedStop) {
        // StopTour: all workers have finished the tour; rethrow the
        // first user exception exactly once on the caller. The guard's
        // unwind path recycles every bin and zeroes the pending count.
        std::rethrow_exception(ctx.first);
    }
    if (cancelled && config_.onError != ErrorPolicy::ContinueAndCollect) {
        // Deadline/watchdog cancellation under Abort/StopTour: all
        // workers have joined and the dropped work is accounted;
        // surface a recoverable error on the caller.
        throw DeadlineError(lsched::detail::concatMessage(
            "parallel tour cancelled (",
            cancelReasonName(cancelToken.why()), ") after ",
            cancelToken.why() == CancelReason::Watchdog
                ? config_.watchdogMillis
                : config_.deadlineMillis,
            " ms: ",
            ctx.cancelledBins.load(std::memory_order_relaxed),
            " bin(s), ",
            ctx.cancelledThreads.load(std::memory_order_relaxed),
            " thread(s) dropped"));
    }
    // Tour boundary: let the adaptive placement re-derive its block
    // dims from this tour's profiler feedback before the next run.
    placement_->maybeRetune();
    refreshHotPlacement();
    guard.commit();
    publishMetrics();
    LSCHED_TRACE_EVENT(obs::EventType::RunEnd, executed);
    return executed;
}

} // namespace lsched::threads
