#include "scheduler.hh"

#include <cstdlib>
#include <mutex>
#include <thread>

#include "support/error.hh"
#include "support/panic.hh"
#include "threads/adapt.hh"
#include "threads/bin_exec.hh"
#include "threads/config_keys.hh"
#include "threads/sched_obs.hh"
#include "threads/stat_fields.hh"

namespace lsched::threads
{

namespace detail
{

const SchedInstruments &
schedInstruments()
{
    static const SchedInstruments ins = [] {
        obs::Registry &r = obs::Registry::global();
        return SchedInstruments{
            &r.histogram("sched.bin.threads"),
            &r.histogram("sched.bin.dwell_ns"),
            &r.histogram("sched.tour.hop_distance"),
        };
    }();
    return ins;
}

void
noteFault(FaultCtx &ctx, std::uint32_t binId, unsigned worker)
{
    std::string message = "unknown exception";
    try {
        throw;
    } catch (const std::exception &e) {
        message = e.what();
    } catch (...) {
    }

    {
        std::lock_guard<std::mutex> lock(ctx.mutex);
        ++ctx.totalFaults;
        if (ctx.faults &&
            ctx.faults->size() < FaultCtx::kMaxRecordedFaults)
            ctx.faults->push_back({binId, worker, std::move(message)});
        if (ctx.policy == ErrorPolicy::StopTour && !ctx.first)
            ctx.first = std::current_exception();
    }
    if (ctx.policy == ErrorPolicy::StopTour)
        ctx.stop.store(true, std::memory_order_relaxed);

    LSCHED_TRACE_EVENT(obs::EventType::ThreadFault, binId, worker);
}

void
noteCancelledBin(FaultCtx &ctx, std::uint32_t binId, unsigned worker,
                 std::uint64_t threads)
{
    ctx.cancelledBins.fetch_add(1, std::memory_order_relaxed);
    ctx.cancelledThreads.fetch_add(threads, std::memory_order_relaxed);
    if (ctx.recovery) {
        ctx.recovery->cancelledBins.fetch_add(
            1, std::memory_order_relaxed);
        ctx.recovery->cancelledThreads.fetch_add(
            threads, std::memory_order_relaxed);
    }
    if (ctx.policy == ErrorPolicy::ContinueAndCollect) {
        // This run returns normally, so the dropped work must be
        // visible where contained faults are: one recorded fault per
        // cancelled bin, counting every dropped thread.
        const CancelReason reason =
            ctx.cancel ? ctx.cancel->why() : CancelReason::None;
        std::lock_guard<std::mutex> lock(ctx.mutex);
        ctx.totalFaults += threads;
        if (ctx.faults &&
            ctx.faults->size() < FaultCtx::kMaxRecordedFaults) {
            ctx.faults->push_back(
                {binId, worker,
                 lsched::detail::concatMessage(
                     "bin cancelled (", cancelReasonName(reason), "): ",
                     threads, " thread(s) dropped")});
        }
    }
    LSCHED_TRACE_EVENT(obs::EventType::BinCancelled, binId, worker,
                       threads);
}

} // namespace detail

namespace
{

/** The placement instance a validated configuration selects. */
std::unique_ptr<PlacementPolicy>
placementFor(const SchedulerConfig &config)
{
    if (config.placement == PlacementKind::Adaptive)
        return makeAdaptivePlacement(config);
    return makePlacement(config.placement, config.dims,
                         config.blockBytes, config.symmetricHints,
                         config.roundRobinBins, config.superBinFan);
}

/**
 * Resolve the topology config key into a tree (machine/topology.hh):
 * null for "flat" (and for failed auto-discovery — the legacy
 * single-domain behavior), a discovered tree for "auto", a synthetic
 * one for a spec string. The LSCHED_TOPOLOGY environment variable
 * overrides *only* "auto" — configs that pinned a spec (tests,
 * benches) are immune to the CI matrix forcing a path.
 */
std::shared_ptr<const machine::CacheTopology>
resolveTopology(const SchedulerConfig &config)
{
    std::string spec = config.topology.empty() ? "auto" : config.topology;
    bool fromEnv = false;
    if (spec == "auto") {
        if (const char *env = std::getenv("LSCHED_TOPOLOGY");
            env != nullptr && *env != '\0') {
            spec = env;
            fromEnv = true;
        }
    }
    if (spec == "flat")
        return nullptr;
    if (spec != "auto") {
        auto topo = std::make_shared<machine::CacheTopology>();
        std::string error;
        if (machine::CacheTopology::fromSpec(spec, topo.get(), &error))
            return topo;
        if (!fromEnv) {
            throw ConfigError(
                lsched::detail::concatMessage("topology: ", error));
        }
        // A broken environment override must not take schedulers down;
        // warn and fall through to real discovery.
        LSCHED_WARN("ignoring LSCHED_TOPOLOGY: ", error);
    }
    auto topo = std::make_shared<machine::CacheTopology>();
    if (machine::CacheTopology::fromSysfs("/sys/devices/system/cpu",
                                          topo.get()))
        return topo;
    return nullptr;
}

/**
 * Normalize defaults and reject unusable configurations. The zeros
 * that the paper's th_init documents as "pick the default" stay
 * defaults (blockBytes, hashBuckets); everything that would flow into
 * a div-by-zero or a degenerate block map is a ConfigError. When
 * @p topoOut is non-null it receives the resolved cache topology,
 * which also fills in what the knobs left at 0: cacheBytes from the
 * discovered L2 size, superBinFan (hierarchical placements, multi-L2
 * trees) from the groups-per-cluster ratio.
 */
SchedulerConfig
validated(SchedulerConfig config,
          std::shared_ptr<const machine::CacheTopology> *topoOut = nullptr)
{
    // Process-wide --placement/--backend/--sched overrides beat
    // per-scheduler settings, mirroring how --trace turns tracing on
    // globally. The list was already validated at parse time, so a
    // failure here means the tables drifted.
    for (const auto &[key, value] : detail::schedOverrides()) {
        std::string error;
        if (!applyConfigKey(config, key, value, &error))
            throw ConfigError(error);
    }
    if (config.dims < 1 || config.dims > kMaxDims) {
        throw ConfigError(lsched::detail::concatMessage(
            "dims must be in [1, ", kMaxDims, "], got ", config.dims));
    }
    const std::shared_ptr<const machine::CacheTopology> topo =
        resolveTopology(config);
    if (config.cacheBytes == 0 && topo && topo->l2Bytes() > 0) {
        // The knob said "whatever the hardware has": size blocks to
        // the discovered per-core L2, the cache bins actually live in.
        config.cacheBytes = topo->l2Bytes();
    }
    if (config.cacheBytes == 0)
        throw ConfigError("cacheBytes must be non-zero");
    if (config.groupCapacity == 0)
        throw ConfigError("groupCapacity must be non-zero");
    const bool hierarchicalish =
        config.placement == PlacementKind::Hierarchical ||
        (config.placement == PlacementKind::Adaptive &&
         config.adaptBase == PlacementKind::Hierarchical);
    if (config.superBinFan == 0 && hierarchicalish && topo &&
        topo->l2Groups() > 1) {
        // Super-bins spread over L3 clusters: one super-bin spans as
        // many blocks per dimension as the cluster has L2 domains, so
        // a cluster's worth of bins is one scheduling unit. The
        // adaptive tuner starts from this value (makeAdaptivePlacement
        // reads the materialized config) and stays bounded by
        // cacheBytes, which the same tree sized to one L2 domain.
        config.superBinFan = topo->groupsPerCluster();
    }
    if (topoOut)
        *topoOut = topo;
    if (config.blockBytes == 0)
        config.blockBytes = config.cacheBytes / config.dims;
    if (config.blockBytes == 0) {
        throw ConfigError(lsched::detail::concatMessage(
            "cacheBytes (", config.cacheBytes, ") too small for ",
            config.dims, " dimensions"));
    }
    if (config.blockBytes > config.cacheBytes) {
        // Legal but almost certainly a mistake outside deliberate
        // degradation experiments (Figure 4 sweeps past the cache on
        // purpose), so this warns instead of rejecting.
        LSCHED_WARN("blockBytes (", config.blockBytes,
                    ") exceeds cacheBytes (", config.cacheBytes,
                    "); every bin will overflow the cache");
    }
    if (config.hashBuckets == 0)
        config.hashBuckets = 4096;
    if (config.adaptBase == PlacementKind::Adaptive) {
        throw ConfigError(
            "adapt.base must name a concrete policy "
            "(blockhash|roundrobin|hierarchical), not adaptive");
    }
    if (config.placement == PlacementKind::Adaptive) {
        if (config.adaptHighMiss < config.adaptTargetMiss) {
            throw ConfigError(lsched::detail::concatMessage(
                "adapt.high_miss (", config.adaptHighMiss,
                ") must be >= adapt.target_miss (",
                config.adaptTargetMiss, ")"));
        }
        if (config.adaptEpochs == 0)
            throw ConfigError("adapt.epochs must be non-zero");
        if (config.adaptMinBlock == 0)
            throw ConfigError("adapt.min_block must be non-zero");
    }
    return config;
}

/**
 * The number of hints a three-hint fork passes on under @p dims: all
 * three, or @p dims when fewer. A non-zero hint past dims would be
 * silently ignored (it never reaches the block map), which is always
 * a caller bug, so it is a UsageError. dims > 3: the block map
 * zero-extends the missing trailing dimensions, per the paper's
 * th_fork.
 */
unsigned
checkedHintCount(unsigned dims, const Hint (&hints)[3])
{
    if (dims >= 3)
        return 3;
    for (unsigned d = dims; d < 3; ++d) {
        if (hints[d] != 0) {
            throw UsageError(lsched::detail::concatMessage(
                "fork: hint ", d + 1, " is non-zero but the "
                "scheduler has only ", dims,
                " dimension(s); pass 0 or raise dims"));
        }
    }
    return dims;
}

} // namespace

void
ForkShard::rejectFork(ThreadFn fn, Hint hint2, Hint hint3) const
{
    LSCHED_ASSERT(fn != nullptr, "fork of a null thread function");
    const Hint hints[3] = {0, hint2, hint3};
    checkedHintCount(dims_, hints);
}

LocalityScheduler::LocalityScheduler(const SchedulerConfig &config)
    : config_(validated(config, &topo_)),
      placement_(placementFor(config_)),
      table_(config_.dims, config_.hashBuckets),
      pool_(config_.groupCapacity)
{
    refreshHotPlacement();
    governor_.configure(config_.overloadEpochs, config_.recoverEpochs,
                        &recovery_);
}

LocalityScheduler::~LocalityScheduler() = default;

void
LocalityScheduler::configure(const SchedulerConfig &config)
{
    if (running_) {
        // Placement geometry (blockBytes, superBinFan, placement kind)
        // is load-bearing while a stream is open: bins already placed
        // under the old dims would stop matching new forks. Reject
        // rather than silently remap.
        throw UsageError(stream_
                             ? "cannot reconfigure while a stream is "
                               "open; close it with streamEnd() first"
                             : "cannot reconfigure a running scheduler");
    }
    if (pendingThreads_ != 0) {
        throw UsageError(lsched::detail::concatMessage(
            "cannot reconfigure with ", pendingThreads_,
            " threads pending; run or clear them first"));
    }
    // Validate before touching anything so a bad config leaves the
    // previous one fully intact.
    std::shared_ptr<const machine::CacheTopology> nextTopo;
    const SchedulerConfig next = validated(config, &nextTopo);
    config_ = next;
    topo_ = std::move(nextTopo);
    lastTourDomains_ = 0;
    lastTourDomainWorkers_ = 0;
    placement_ = placementFor(config_);
    refreshHotPlacement();
    retiredBins_ += table_.binCount();
    table_ = BinTable(config_.dims, config_.hashBuckets);
    pool_ = GroupPool(config_.groupCapacity);
    forkShards_.reset();
    readyHead_ = nullptr;
    readyTail_ = nullptr;
    // Retire the worker pool so pool-affecting knobs (pinWorkers,
    // topology) take effect on the next parallel tour; its lifetime
    // counters carry over.
    if (workerPool_) {
        retiredPoolStats_ += workerPool_->stats();
        workerPool_.reset();
    }
    // Re-arming the governor resets its state machine to Healthy; the
    // lifetime recovery counters are deliberately preserved.
    governor_.configure(config_.overloadEpochs, config_.recoverEpochs,
                        &recovery_);
}

void
LocalityScheduler::refreshHotPlacement()
{
    placeHot_ = placement_->hotPolicy();
    int shift = -1;
    if (placeHot_->kind() == PlacementKind::BlockHash) {
        const BlockMap &map =
            static_cast<const BlockHashPlacement *>(placeHot_)->blockMap();
        if (!map.symmetric())
            shift = map.shift();
    }
    forkFast_ = shift >= 0 && config_.dims <= 3;
    forkShift_ = forkFast_ ? static_cast<unsigned>(shift) : 0;
    surplusHint2_ = config_.dims < 2 ? ~Hint{0} : 0;
    surplusHint3_ = config_.dims < 3 ? ~Hint{0} : 0;
}

void
LocalityScheduler::publishReadyTails()
{
    for (Bin *bin = readyHead_; bin; bin = bin->readyNext)
        bin->publishTail();
}

void
LocalityScheduler::forkTruncated(ThreadFn fn, void *arg1, void *arg2,
                                 Hint hint1, Hint hint2, Hint hint3)
{
    const Hint hints[3] = {hint1, hint2, hint3};
    fork(fn, arg1, arg2,
         std::span<const Hint>(hints, checkedHintCount(config_.dims,
                                                       hints)));
}

void
LocalityScheduler::fork(ThreadFn fn, void *arg1, void *arg2,
                        std::span<const Hint> hints)
{
    LSCHED_ASSERT(fn != nullptr, "fork of a null thread function");
    if (detail::inParallelWorker()) {
        // A fork phase catches what its bodies throw.
        rejectInForkPhase("fork()");
        // Checked via thread-local state *before* touching the ready
        // list: reading scheduler fields from a worker would itself be
        // the data race this diagnostic exists to prevent. fatal, not
        // throw — unwinding a worker mid-tour is not safe here.
        LSCHED_FATAL(
            "fork() from a thread running under runParallel() or a "
            "streaming drain helper is not supported: the ready list "
            "is not synchronized during a parallel tour. Fork before "
            "runParallel(), use run() with keep == false for nested "
            "forking, or fork from producer threads in a stream.");
    }
    if (stream_) {
        // Streaming mode: admission goes to the calling producer's
        // own table, which is safe from any OS thread (and may block
        // at the backpressure bound).
        stream_->fork(fn, arg1, arg2, hints);
        return;
    }
    if (running_ && !nestedForkOk_) {
        throw UsageError("fork during run() requires keep == false");
    }

    const PlacementDecision where = placeHot_->place(hints);
    const auto [bin, created] = table_.findOrCreateHashed(
        where.coords.data(), hashCoords(where.coords.data(), config_.dims),
        where.superBin);
    if (obs::traceOn()) [[unlikely]] {
        if (created) {
            LSCHED_TRACE_EVENT(obs::EventType::BinCreate, bin->id,
                               where.coords[0], where.coords[1]);
        }
        LSCHED_TRACE_EVENT(obs::EventType::ThreadFork, bin->id,
                           where.coords[0], where.coords[1]);
    }
    appendThread(bin, fn, arg1, arg2);
    if (running_) {
        // Nested fork: the running bin's GroupCursor reads counts, not
        // the cursor, so publish now for it to pick the thread up.
        bin->publishTail();
    }
}

void
LocalityScheduler::rejectInForkPhase(const char *call)
{
    if (detail::t_inForkPhase) {
        throw UsageError(lsched::detail::concatMessage(
            call, " inside a forkParallel() body; fork through the "
                  "body's ForkShard and run after forkParallel() "
                  "returns"));
    }
}

std::uint64_t
LocalityScheduler::run(bool keep)
{
    rejectInForkPhase("run()");
    if (stream_) {
        // Recoverable misuse, unlike a recursive run(): a batch run
        // has no tour to walk while admission streams past it.
        throw UsageError("run() during an active stream; close it "
                         "with streamEnd() first");
    }
    LSCHED_ASSERT(!running_, "recursive run()");
    publishReadyTails();
    running_ = true;
    nestedForkOk_ = !keep;
    lastFaults_.clear();
    lastFaultsTotal_ = 0;
    std::uint64_t executed = 0;

    Bin *inFlight = nullptr;
    detail::RunGuard guard{*this, &inFlight};
    detail::FaultCtx ctx(config_.onError, &lastFaults_);
    ctx.recovery = &recovery_;
    CancelToken cancelToken;
    if (config_.deadlineMillis > 0)
        ctx.cancel = &cancelToken;

    LSCHED_TRACE_EVENT(obs::EventType::RunBegin, pendingThreads_,
                       table_.binCount(), 1);
    obs::profileNoteEpoch();
    ++runs_;

    // Deadline monitor for the serial tour (runParallel arms its own,
    // with the watchdog on top). The monitor's dtor joins before the
    // guard runs, so a cancel can never race the unwind path.
    detail::TourMonitorSpec mspec;
    mspec.deadlineMillis = config_.deadlineMillis;
    mspec.cancel = &cancelToken;
    mspec.recovery = &recovery_;
    detail::TourMonitor monitor(mspec);

    if (nestedForkOk_) {
        // Streaming traversal: pop bins off the ready list as they
        // run; nested forks may append bins (including already-run
        // ones) at the tail and are executed before we return.
        const Bin *prev = nullptr;
        while (readyHead_ && !ctx.stopRequested()) {
            Bin *bin = readyHead_;
            readyHead_ = bin->readyNext;
            if (!readyHead_)
                readyTail_ = nullptr;
            bin->readyNext = nullptr;
            bin->onReadyList = false;
            inFlight = bin;
            if (obs::metricsOn()) {
                if (prev) {
                    detail::schedInstruments().tourHop->record(
                        detail::hopDistance(prev, bin, config_.dims));
                }
                prev = bin;
            }
            executed += detail::executeBin(bin, ctx, 0);
            GroupPool::recycleChain(bin->groupsHead);
            bin->clearGroups();
            inFlight = nullptr;
        }
        if (ctx.stopRequested()) {
            if (ctx.cancelRequested()) {
                // Account the bins the cancellation left on the ready
                // list (the backend sweeps only bins it was handed).
                for (Bin *bin = readyHead_; bin; bin = bin->readyNext) {
                    if (bin->threadCount > 0) {
                        detail::noteCancelledBin(ctx, bin->id, 0,
                                                 bin->threadCount);
                    }
                }
                if (config_.onError == ErrorPolicy::ContinueAndCollect) {
                    // This path returns normally: drop the remainder
                    // now so the scheduler comes back clean.
                    abandonRun(nullptr);
                    running_ = true; // guard.commit() clears it
                }
            }
            // Otherwise un-run bins stay on the ready list; the
            // rethrow below lets the guard recycle them.
        } else {
            LSCHED_ASSERT(pendingThreads_ <=
                              executed + ctx.totalFaults,
                          "pending threads outlived the streaming run");
            retirePending();
        }
    } else {
        // keep: the ready list survives, so walk a snapshot of it —
        // exactly a one-worker tour, the serial backend's walk
        // (execution.hh).
        const std::vector<Bin *> tour = readyBins();
        if (obs::metricsOn())
            detail::recordTourHops(tour, config_.dims);
        executed += detail::runSerialTour(tour, ctx);
    }

    executedThreads_ += executed;
    lastFaultsTotal_ = ctx.totalFaults;
    faultedThreads_ += lastFaultsTotal_;
    const bool cancelled = ctx.cancelRequested();
    if (governor_.enabled())
        governor_.observe(cancelled);
    if (ctx.first) {
        // StopTour: rethrow the first user exception exactly once on
        // the caller; the guard's unwind path drops what never ran.
        std::rethrow_exception(ctx.first);
    }
    if (cancelled && config_.onError != ErrorPolicy::ContinueAndCollect) {
        // Abort/StopTour surface the cancellation as a recoverable
        // error; the guard's unwind path drops what never ran.
        throw DeadlineError(lsched::detail::concatMessage(
            "run cancelled (", cancelReasonName(cancelToken.why()),
            ") after ", config_.deadlineMillis, " ms: ",
            ctx.cancelledBins.load(std::memory_order_relaxed),
            " bin(s), ",
            ctx.cancelledThreads.load(std::memory_order_relaxed),
            " thread(s) dropped"));
    }
    // Tour boundary: the one place a serial tour lets the adaptive
    // placement re-derive its block dims from profiler feedback.
    placement_->maybeRetune();
    refreshHotPlacement();
    guard.commit();
    publishMetrics();
    LSCHED_TRACE_EVENT(obs::EventType::RunEnd, executed);
    return executed;
}

void
LocalityScheduler::streamBegin(unsigned workers)
{
    if (running_) {
        throw UsageError(stream_
                             ? "streamBegin during an active stream"
                             : "streamBegin during run()");
    }
    if (pendingThreads_ != 0) {
        throw UsageError(lsched::detail::concatMessage(
            "streamBegin with ", pendingThreads_,
            " batch threads pending; run or clear them first"));
    }
    WorkerPool *pool = nullptr;
    unsigned helpers = 0;
    if (config_.backend != BackendKind::Serial) {
        helpers = workers
                      ? workers
                      : std::max(1u,
                                 std::thread::hardware_concurrency());
        pool = &workerPool();
    }
    lastFaults_.clear();
    lastFaultsTotal_ = 0;
    // Safe boundary: no bins exist yet, so a retune here only changes
    // where the upcoming stream's forks land.
    placement_->maybeRetune();
    refreshHotPlacement();
    LSCHED_TRACE_EVENT(obs::EventType::RunBegin, 0, 0, helpers);
    obs::profileNoteEpoch();
    ++runs_;
    stream_ = std::make_unique<StreamSession>(config_, *placement_,
                                              pool, helpers, &recovery_,
                                              &governor_);
    running_ = true;
}

std::uint64_t
LocalityScheduler::streamEnd()
{
    if (!stream_)
        throw UsageError("streamEnd without an active stream");
    std::exception_ptr abortError;
    try {
        stream_->finish();
    } catch (...) {
        // ErrorPolicy::Abort fault from the caller-side tail drain:
        // restore scheduler state below, then let it propagate.
        abortError = std::current_exception();
    }
    const StreamStats s = stream_->stats();
    lifetimeStream_ += s;
    executedThreads_ += s.executed;
    lastFaults_ = stream_->faults();
    lastFaultsTotal_ = stream_->faultCount();
    faultedThreads_ += lastFaultsTotal_;
    lastStreamBins_ = stream_->binReports();
    retiredForks_ += s.forked;
    retiredBins_ += stream_->binsCreated();
    const std::exception_ptr first = stream_->firstFault();
    const CancelReason streamCancel = stream_->cancelReason();
    stream_.reset();
    running_ = false;
    // The stream just drained: fold its profiler epochs into the
    // adaptive placement before the next run begins.
    placement_->maybeRetune();
    refreshHotPlacement();
    publishMetrics();
    LSCHED_TRACE_EVENT(obs::EventType::RunEnd, s.executed);
    if (abortError)
        std::rethrow_exception(abortError);
    if (first) {
        // StopTour: the first contained exception, exactly once.
        std::rethrow_exception(first);
    }
    if (streamCancel != CancelReason::None &&
        config_.onError != ErrorPolicy::ContinueAndCollect) {
        // The epoch deadline cancelled the stream; surface it here,
        // after the session's counters were folded in.
        throw DeadlineError(lsched::detail::concatMessage(
            "stream cancelled (", cancelReasonName(streamCancel),
            "): no epoch progress within ", config_.deadlineMillis,
            " ms"));
    }
    return s.executed;
}

std::uint64_t
LocalityScheduler::runStream(
    unsigned workers, unsigned producers,
    const std::function<void(unsigned)> &producer)
{
    if (producers == 0)
        producers = 1;
    streamBegin(workers);
    std::mutex errMutex;
    std::exception_ptr producerError;
    const auto body = [&](unsigned index) {
        try {
            producer(index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(errMutex);
            if (!producerError)
                producerError = std::current_exception();
        }
    };
    {
        std::vector<std::thread> extras;
        extras.reserve(producers - 1);
        for (unsigned i = 1; i < producers; ++i)
            extras.emplace_back(body, i);
        body(0);
        for (std::thread &t : extras)
            t.join();
    }
    if (producerError) {
        try {
            streamEnd();
        } catch (...) {
            // The producer's own failure is the primary error.
        }
        std::rethrow_exception(producerError);
    }
    return streamEnd();
}

void
LocalityScheduler::dropReadyList(Bin *&head, Bin *&tail) noexcept
{
    for (Bin *bin = head; bin;) {
        Bin *next = bin->readyNext;
        GroupPool::recycleChain(bin->groupsHead);
        bin->clearGroups();
        bin->readyNext = nullptr;
        bin->onReadyList = false;
        bin = next;
    }
    head = nullptr;
    tail = nullptr;
}

void
LocalityScheduler::abandonRun(Bin *inFlight) noexcept
{
    if (inFlight && !inFlight->onReadyList) {
        GroupPool::recycleChain(inFlight->groupsHead);
        inFlight->clearGroups();
        inFlight->readyNext = nullptr;
    }
    dropReadyList(readyHead_, readyTail_);
    retirePending();
    running_ = false;
    nestedForkOk_ = false;
}

void
LocalityScheduler::clear()
{
    if (running_)
        throw UsageError("clear() during run()");
    dropReadyList(readyHead_, readyTail_);
    retirePending();
}

std::vector<Bin *>
LocalityScheduler::readyBins() const
{
    std::vector<Bin *> bins;
    for (Bin *bin = readyHead_; bin; bin = bin->readyNext)
        bins.push_back(bin);
    return bins;
}

std::vector<LocalityScheduler::ReadyBin>
LocalityScheduler::readyList() const
{
    std::vector<ReadyBin> bins;
    for (const Bin *bin = readyHead_; bin; bin = bin->readyNext)
        bins.push_back({bin->id, bin->coords, bin->threadCount});
    return bins;
}

std::vector<std::size_t>
LocalityScheduler::forkShardSlabs() const
{
    std::vector<std::size_t> slabs;
    for (const detail::ForkShardState *shard = forkShards_.get(); shard;
         shard = shard->next.get())
        slabs.push_back(shard->pool.slabCount());
    return slabs;
}

std::vector<std::uint64_t>
LocalityScheduler::binOccupancy() const
{
    std::vector<std::uint64_t> counts;
    for (const Bin *bin = readyHead_; bin; bin = bin->readyNext)
        counts.push_back(bin->threadCount);
    return counts;
}

SchedulerStats
LocalityScheduler::stats() const
{
    SchedulerStats s;
    s.pendingThreads = pendingThreads_;
    s.executedThreads = executedThreads_;
    s.runs = runs_;
    s.faultedThreads = faultedThreads_;
    s.lastFaultCount = lastFaultsTotal_;
    s.bins = table_.binCount();
    s.maxHashChain = table_.maxChainLength();
    const std::vector<Bin *> bins = readyBins();
    for (const Bin *bin : bins) {
        if (bin->threadCount > 0) {
            ++s.occupiedBins;
            s.threadsPerBin.add(static_cast<double>(bin->threadCount));
        }
    }
    s.tourLength = tourLength(bins, config_.dims);
    s.pool = workerPoolStats();
    s.stream = streamStats();
    s.forkedThreads = retiredForks_ + pendingThreads_ +
                      (stream_ ? s.stream.forked : 0);
    s.binsCreated = retiredBins_ + table_.binCount() +
                    (stream_ ? stream_->binsCreated() : 0);
    s.recover = recoverySnapshot();
    s.adapt = placement_->adaptSnapshot();
    s.topology.active = topo_ != nullptr;
    if (topo_) {
        s.topology.source = static_cast<std::uint8_t>(topo_->source());
        s.topology.packages = topo_->packages();
        s.topology.l3Clusters = topo_->l3Clusters();
        s.topology.l2Groups = topo_->l2Groups();
        s.topology.cpus = topo_->cpus();
        s.topology.smtPerCore = topo_->smtPerCore();
        s.topology.l2Bytes = topo_->l2Bytes();
        s.topology.l3Bytes = topo_->l3Bytes();
        s.topology.derivedFan =
            topo_->l2Groups() > 1 ? topo_->groupsPerCluster() : 0;
        s.topology.summary = topo_->summary();
    }
    s.topology.domains = lastTourDomains_;
    s.topology.domainWorkers = lastTourDomainWorkers_;

    if (obs::metricsOn()) {
        obs::Registry &r = obs::Registry::global();
        for (const StatField &field : statFields())
            r.gauge(field.name).set(field.value(s, config_));
    }
    return s;
}

void
LocalityScheduler::publishMetrics() const
{
    if (obs::metricsOn())
        stats(); // publishes the snapshot it takes
}

bool
LocalityScheduler::pollAdaptivePlacement()
{
    if (running_ && !stream_) {
        throw UsageError(
            "pollAdaptivePlacement during run(); retuning happens at "
            "tour boundaries only");
    }
    const bool changed = placement_->maybeRetune();
    // Producers may be forking: the fast-path fields they test are
    // refreshed by streamEnd() instead.
    if (!stream_)
        refreshHotPlacement();
    return changed;
}

} // namespace lsched::threads
