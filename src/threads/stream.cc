/**
 * @file
 * StreamSession implementation: per-producer intake tables, the
 * cross-producer seal/epoch hand-off, ticket backpressure, and the
 * drain loops. See stream.hh and DESIGN.md §16 for the design.
 */

#include "threads/stream.hh"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "support/error.hh"
#include "support/panic.hh"
#include "support/prng.hh"
#include "threads/bin_exec.hh"
#include "threads/hash_table.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

/** Backpressure backoff: first wait, doubling per no-progress round. */
constexpr std::uint64_t kBackoffBaseUs = 500;
/** Backoff ceiling, so a long stall still polls for liveness. */
constexpr std::uint64_t kBackoffCapUs = 50'000;
/** Governor tick when no deadline sets the epoch length. */
constexpr std::uint32_t kGovernorTickMillis = 20;
/** Warn every this many no-progress rounds when retries are ∞. */
constexpr unsigned kStallWarnPeriod = 32;
/**
 * Open bins one forced seal takes, fullest first. One scan of the
 * table (a lock per bin) then pays for this many seals: with one seal
 * per scan, perfbench's stream_admit shape at seal threshold 64 ran
 * about 2M forks/s, with 32 about 6M.
 */
constexpr std::size_t kForcedSealBins = 32;

/**
 * True while this producer thread is draining a sealed bin inline
 * (backpressure help or queue-full relief). Nested forks from the
 * user threads it runs bypass the maxPending bound — blocking would
 * deadlock the one thread doing the draining.
 */
thread_local bool t_inInlineDrain = false;

struct InlineDrainScope
{
    InlineDrainScope() { t_inInlineDrain = true; }
    ~InlineDrainScope() { t_inInlineDrain = false; }
};

/**
 * Sessions a thread-local producer handle may still refund into, by
 * generation. A session leaves it when finish() starts; the mutex
 * keeps it alive while a handle refunds. Never destroyed: thread
 * exits can outlive static destruction order.
 */
struct LiveSessions
{
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, StreamSession *>> sessions;
};

LiveSessions &
liveSessions()
{
    static LiveSessions *live = new LiveSessions;
    return *live;
}

std::uint64_t
nextSessionGeneration()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

namespace detail
{

/**
 * The calling thread's producer record, keyed to one session by
 * generation, so a record of a finished session is never
 * dereferenced. Leaving the session — thread exit, or forking into
 * another session — refunds the record's unused tickets if that
 * session is still live; a finished one already refunded them.
 */
struct ProducerHandle
{
    std::uint64_t generation = 0;
    StreamProducer *producer = nullptr;

    ~ProducerHandle() { release(); }

    void
    release() noexcept
    {
        if (!generation)
            return;
        LiveSessions &live = liveSessions();
        std::lock_guard<std::mutex> lock(live.mutex);
        for (const auto &[gen, session] : live.sessions) {
            if (gen == generation) {
                session->releaseProducer(*producer);
                break;
            }
        }
        generation = 0;
        producer = nullptr;
    }
};

} // namespace detail

namespace
{

thread_local detail::ProducerHandle t_producer;

} // namespace

StreamSession::StreamSession(const SchedulerConfig &config,
                             PlacementPolicy &placement,
                             WorkerPool *pool, unsigned drainWorkers,
                             detail::RecoveryStats *recovery,
                             OverloadGovernor *governor)
    : dims_(config.dims),
      sealThreshold_(config.streamSealThreshold),
      maxPending_(config.streamMaxPending),
      chunk_(maxPending_ ? std::clamp<std::uint64_t>(
                               maxPending_ / kChunkDivisor, 1, kMaxChunk)
                         : kMaxChunk),
      generation_(nextSessionGeneration()),
      sealShare_(config.streamSealThreshold),
      buckets_(config.hashBuckets),
      // An epoch seals at the threshold, so a stream group never needs
      // more slots than that: producer groups stay small.
      groupCapacity_(static_cast<std::uint32_t>(
          sealThreshold_ ? std::min<std::uint64_t>(config.groupCapacity,
                                                   sealThreshold_)
                         : config.groupCapacity)),
      deadlineMillis_(config.deadlineMillis),
      admitRetries_(config.streamAdmitRetries),
      placement_(placement),
      placementStateless_(placement.stateless()),
      placementAdaptive_(placement.kind() == PlacementKind::Adaptive),
      fault_(config.onError, &faults_),
      pool_(pool),
      recovery_(recovery),
      governor_(governor)
{
    fault_.recovery = recovery_;
    if (deadlineMillis_ > 0)
        fault_.cancel = &cancel_;
    if (pool_) {
        job_.body = &StreamSession::drainMain;
        job_.ctx = this;
        job_.workers = std::max(1u, drainWorkers);
        job_.countsAsTour = true;
        pool_->beginHelpers(job_);
        helpersRunning_ = true;
    }
    {
        LiveSessions &live = liveSessions();
        std::lock_guard<std::mutex> lock(live.mutex);
        live.sessions.emplace_back(generation_, this);
    }
    if (deadlineMillis_ > 0 || (governor_ && governor_->enabled()) ||
        placementAdaptive_)
        monitor_ = std::thread(&StreamSession::monitorMain, this);
}

StreamSession::~StreamSession()
{
    try {
        finish();
    } catch (...) {
        // Teardown without a streamEnd(): there is nobody left to
        // rethrow a final inline-drain fault to.
    }
    for (detail::StreamProducer *p =
             producers_.load(std::memory_order_relaxed);
         p;) {
        detail::StreamProducer *next = p->link;
        delete p;
        p = next;
    }
}

std::uint64_t
StreamSession::backlog() const
{
    // Retirements first: the acquire makes every ticket behind them
    // visible, so the difference never underflows on a live read.
    const std::uint64_t retired =
        retiredThreads_.load(std::memory_order_acquire);
    return tickets_.load(std::memory_order_relaxed) - retired;
}

std::uint64_t
StreamSession::admitted() const
{
    std::uint64_t sum = 0;
    for (const detail::StreamProducer *p =
             producers_.load(std::memory_order_acquire);
         p; p = p->link)
        sum += p->admitted.load(std::memory_order_relaxed);
    return sum;
}

detail::StreamProducer &
StreamSession::producer()
{
    detail::ProducerHandle &h = t_producer;
    if (h.generation == generation_) [[likely]]
        return *h.producer;
    return attachProducer();
}

detail::StreamProducer &
StreamSession::attachProducer()
{
    detail::ProducerHandle &h = t_producer;
    // A record of another session: its unused tickets go back there.
    h.release();
    const std::thread::id me = std::this_thread::get_id();
    std::lock_guard<std::mutex> lock(producersMutex_);
    detail::StreamProducer *p = producers_.load(std::memory_order_relaxed);
    while (p && p->owner != me)
        p = p->link;
    if (!p) {
        // Disjoint id spaces per producer table (and away from the
        // batch table's 0-based ids) keep trace/fault bin ids
        // unambiguous.
        p = new detail::StreamProducer(dims_, buckets_,
                                       ++registered_ << 24,
                                       groupCapacity_);
        p->owner = me;
        p->link = producers_.load(std::memory_order_relaxed);
        producers_.store(p, std::memory_order_release);
    }
    ++liveProducers_;
    updateSealShare();
    h.generation = generation_;
    h.producer = p;
    return *p;
}

void
StreamSession::releaseProducer(detail::StreamProducer &p)
{
    refund(p.end - p.next);
    p.next = p.end;
    std::lock_guard<std::mutex> lock(producersMutex_);
    --liveProducers_;
    updateSealShare();
}

void
StreamSession::updateSealShare()
{
    // Producers spread a bin's epoch over their tables, so each seals
    // at its share: a single producer keeps the exact threshold.
    const std::uint64_t live = std::max(liveProducers_, 1u);
    sealShare_.store((sealThreshold_ + live - 1) / live,
                     std::memory_order_relaxed);
}

void
StreamSession::refund(std::uint64_t n)
{
    if (!n)
        return;
    // Retirements first, so a reader that sees the refund also sees
    // the retirement and forked/backlog never underflow.
    retiredThreads_.fetch_add(n, std::memory_order_release);
    refunds_.fetch_add(n, std::memory_order_release);
}

void
StreamSession::notePeak(std::uint64_t backlog)
{
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (backlog > peak &&
           !peak_.compare_exchange_weak(peak, backlog,
                                        std::memory_order_relaxed))
        ;
}

void
StreamSession::takeTickets(detail::StreamProducer &p)
{
    if (!maxPending_) {
        // No bound: a full chunk, one shared write per kMaxChunk forks.
        const std::uint64_t first =
            tickets_.fetch_add(chunk_, std::memory_order_relaxed);
        p.next = first + 1;
        p.end = first + chunk_;
        const std::uint64_t retired =
            retiredThreads_.load(std::memory_order_relaxed);
        notePeak(p.end < retired ? 0 : p.end - retired);
        return;
    }
    if (!t_inInlineDrain) {
        // A chunk of only as many tickets as fit under the bound right
        // now: every ticket in it passes on this one check, so the
        // chunk never holds a ticket the gate has not admitted.
        // Queued gate waiters hold lower tickets, so a chunk is taken
        // only once they fit too (FIFO holds).
        std::uint64_t first = tickets_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t retired =
                retiredThreads_.load(std::memory_order_acquire);
            const std::uint64_t limit = retired + maxPending_;
            if (first >= limit)
                break;
            const std::uint64_t n = std::min(chunk_, limit - first);
            if (tickets_.compare_exchange_weak(
                    first, first + n, std::memory_order_relaxed,
                    std::memory_order_relaxed)) {
                p.next = first + 1;
                p.end = first + n;
                notePeak(p.end - retired);
                return;
            }
        }
    }
    // No room (or a nested fork bypassing the bound): one ticket.
    // Bypassed admissions count against the gate arithmetic too, so
    // gated producers absorb any overshoot they caused.
    const std::uint64_t ticket =
        tickets_.fetch_add(1, std::memory_order_relaxed);
    // The gate: this ticket fits under the bound once the drain has
    // retired enough threads. Tickets pass in FIFO order and the
    // admitted-unretired backlog can never exceed the bound.
    std::uint64_t retired =
        retiredThreads_.load(std::memory_order_acquire);
    if (!t_inInlineDrain && ticket >= retired + maxPending_)
        retired = waitAtGate(p, ticket);
    p.next = p.end = ticket + 1;
    notePeak(ticket < retired ? 0 : ticket + 1 - retired);
}

std::uint64_t
StreamSession::waitAtGate(detail::StreamProducer &self,
                          std::uint64_t ticket)
{
    unsigned noProgress = 0;
    std::uint64_t waitUs = kBackoffBaseUs;
    // Seeded per ticket: independent jitter, no shared seed counter.
    Prng jitter(0x5bd1e995u + ticket);
    for (;;) {
        const std::uint64_t retired =
            retiredThreads_.load(std::memory_order_acquire);
        if (ticket < retired + maxPending_)
            return retired;
        if (fault_.stopRequested()) {
            // Stopping: drainers are discarding, so holding producers
            // at the gate could wait on progress that never comes.
            return retired;
        }
        LSCHED_TRACE_EVENT(obs::EventType::Backpressure, backlog(),
                           maxPending_);
        // First choice: help. An inline drain or a force-seal is
        // forward progress this producer made itself.
        if (tryHelp(self)) {
            noProgress = 0;
            waitUs = kBackoffBaseUs;
            continue;
        }
        if (degraded_.load(std::memory_order_relaxed)) {
            // Load shedding: a degraded session never blocks its
            // producers — admission overshoots the bound (soft) and
            // the governor's force-seals keep the drain fed.
            return retired;
        }
        // The backlog is entirely in flight on the drain workers: back
        // off with a timed, jittered exponential sleep instead of the
        // historic unbounded condvar wait, so a wedged pool surfaces
        // as a diagnosable timeout rather than a hang — and no lock is
        // shared with the admission fast path.
        bpWaits_.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t sleepUs =
            waitUs / 2 + jitter.nextBelow(waitUs / 2 + 1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(sleepUs));
        if (retiredThreads_.load(std::memory_order_relaxed) !=
            retired) {
            // The drain moved; reset the retry budget and the backoff.
            noProgress = 0;
            waitUs = kBackoffBaseUs;
            continue;
        }
        ++noProgress;
        if (recovery_) {
            recovery_->admissionRetries.fetch_add(
                1, std::memory_order_relaxed);
        }
        if (admitRetries_ && noProgress >= admitRetries_) {
            if (recovery_) {
                recovery_->admissionTimeouts.fetch_add(
                    1, std::memory_order_relaxed);
            }
            const std::uint64_t cur = backlog();
            LSCHED_TRACE_EVENT(obs::EventType::AdmissionTimeout, cur,
                               maxPending_, noProgress);
            // This ticket never retires on its own: refund it so the
            // gate stays consistent (release pairs with stats()).
            refund(1);
            throw AdmissionTimeout(lsched::detail::concatMessage(
                "stream admission timed out after ", noProgress,
                " no-progress backoff round(s): ", cur,
                " thread(s) backlogged at bound ", maxPending_));
        }
        if (!admitRetries_ && noProgress % kStallWarnPeriod == 0) {
            LSCHED_WARN("stream admission stalled: ", noProgress,
                        " no-progress wait(s) at bound ", maxPending_,
                        " (streamAdmitRetries == 0 retries forever)");
        }
        waitUs = std::min(waitUs * 2, kBackoffCapUs);
    }
}

bool
StreamSession::tryHelp(detail::StreamProducer &self)
{
    // Become the drain: one sealed bin run inline frees at least one
    // admission slot without waiting on anyone.
    detail::SealedBin item;
    if (queue_.tryPop(item)) {
        inlineDrains_.fetch_add(1, std::memory_order_relaxed);
        InlineDrainScope inDrain;
        drainOne(item, 0);
        return true;
    }
    // Nothing sealed yet: the backlog is sitting in open bins. Seal
    // the fullest so the drain (pool or our next pass) gets the most
    // work per seal.
    return forceSealFullest(self);
}

bool
StreamSession::seal(const std::uint64_t *coords, std::uint64_t h,
                    detail::StreamProducer *self)
{
    detail::SealedBin item;
    // Collects the producers' chains in producer order.
    Bin chain;
    bool queued = false;
    // Hand over hand: the next table's bin is locked before the last
    // one is released, and the push happens under the last. Two seals
    // of the same coordinates therefore pass every table, and reach
    // the ring, in one order, so a producer's threads of one bin drain
    // in fork order across epochs too.
    Bin *held = nullptr;
    for (detail::StreamProducer *p = firstProducer(); p; p = p->link) {
        Bin *bin = nullptr;
        if (p == self) {
            bin = p->table.findHashed(coords, h);
        } else {
            std::lock_guard<SpinLock> lock(p->tableLock);
            bin = p->table.findHashed(coords, h);
        }
        if (!bin)
            continue;
        bin->lock.lock();
        if (held)
            held->lock.unlock();
        held = bin;
        if (bin->threadCount) {
            if (!chain.groupsHead) {
                // The first chain's bin leads the seal: it carries the
                // epoch count and names the work item.
                ++bin->sealEpochs;
                item.binId = bin->id;
                item.superBin = bin->superBin;
            }
            bin->sealedThreads += bin->threadCount;
            // The producer's fork keeps its tail count current.
            chain.takeChain(*bin);
        }
        // Each seal of these coordinates was led by exactly one bin,
        // so the sum is this seal's 1-based epoch.
        item.epoch += bin->sealEpochs;
    }
    item.groups = chain.groupsHead;
    item.threads = chain.threadCount;
    if (item.groups)
        queued = queue_.tryPush(item);
    if (held)
        held->lock.unlock();
    if (!item.groups)
        return false;
    LSCHED_TRACE_EVENT(obs::EventType::StreamSeal, item.binId, item.epoch,
                       item.threads);
    while (!queued && !queue_.tryPush(item)) {
        // Ring full: relieve it ourselves instead of spinning — in
        // the inline-only mode (no pool) nobody else ever would.
        detail::SealedBin victim;
        if (!queue_.tryPop(victim))
            continue; // racing consumers made room already
        try {
            if (fault_.stopRequested()) {
                discard(victim);
            } else {
                InlineDrainScope inDrain;
                drainOne(victim, 0);
            }
        } catch (...) {
            // Abort unwinding: retire our own chain too so the
            // backlog accounting stays sane.
            discard(item);
            throw;
        }
    }
    return true;
}

bool
StreamSession::forceSealFullest(detail::StreamProducer &self)
{
    std::vector<std::pair<std::uint64_t, Bin *>> open;
    const auto scan = [&](detail::StreamProducer &p) {
        p.table.forEachBin([&](Bin &bin) {
            std::lock_guard<SpinLock> lock(bin.lock);
            if (bin.threadCount)
                open.emplace_back(bin.threadCount, &bin);
        });
    };
    // The caller's own bins first: they sit in this CPU's cache, where
    // every bin of another table is a miss. The others are scanned
    // only when the caller has nothing open (its backlog is theirs).
    scan(self);
    for (detail::StreamProducer *p = firstProducer(); p && open.empty();
         p = p->link) {
        if (p != &self) {
            std::lock_guard<SpinLock> lock(p->tableLock);
            scan(*p);
        }
    }
    // Fullest first; a bin's coordinates and hash never change, so
    // they are read without its lock.
    const std::size_t n = std::min(open.size(), kForcedSealBins);
    std::partial_sort(open.begin(), open.begin() + n, open.end(),
                      [](const auto &a, const auto &b) {
                          return a.first > b.first;
                      });
    bool sealed = false;
    for (std::size_t i = 0; i < n; ++i) {
        const Bin &bin = *open[i].second;
        sealed |= seal(bin.coords.data(), bin.hashVal, &self);
    }
    return sealed;
}

void
StreamSession::fork(ThreadFn fn, void *arg1, void *arg2,
                    std::span<const Hint> hints)
{
    LSCHED_ASSERT(fn != nullptr, "fork of a null thread function");
    detail::StreamProducer &self = producer();
    // A ticket from the producer's own chunk (already past the gate);
    // the shared counters move only once the chunk runs out.
    if (self.next != self.end)
        ++self.next;
    else
        takeTickets(self);

    PlacementDecision where;
    std::uint64_t h = 0;
    bool doSeal = false;
    bool created = false;
    std::uint32_t binId = 0;
    try {
        if (placementStateless_) {
            where = placement_.place(hints);
        } else {
            std::lock_guard<std::mutex> lock(placementMutex_);
            where = placement_.place(hints);
        }
        h = hashCoords(where.coords.data(), dims_);
        // The batch fork body, in this producer's own table. Only this
        // thread changes the table, so it finds a bin without the
        // table lock, and takes it to create one.
        Bin *bin = self.table.findHashed(where.coords.data(), h);
        if (!bin) {
            std::lock_guard<SpinLock> lock(self.tableLock);
            bin = self.table
                      .findOrCreateHashed(where.coords.data(), h,
                                          where.superBin)
                      .first;
            created = true;
        }
        binId = bin->id;
        std::lock_guard<SpinLock> lock(bin->lock);
        bin->append(self.pool, fn, arg1, arg2);
        // The tail group is this producer's own line: keeping its count
        // current here spares a sealer a write to it.
        bin->publishTail();
        const std::uint64_t share =
            sealShare_.load(std::memory_order_relaxed);
        doSeal = share && bin->threadCount >= share;
    } catch (...) {
        // The admission slot was reserved up front; hand it back with
        // the rest of the chunk, so an allocation failure can wedge
        // neither the gate nor the backlog.
        refund(1 + self.end - self.next);
        self.next = self.end;
        throw;
    }
    self.admitted.store(self.admitted.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);

    if (obs::traceOn()) [[unlikely]] {
        if (created) {
            LSCHED_TRACE_EVENT(obs::EventType::BinCreate, binId,
                               where.coords[0], where.coords[1]);
        }
        LSCHED_TRACE_EVENT(obs::EventType::ThreadFork, binId,
                           where.coords[0], where.coords[1]);
    }
    // Never under the bin's lock: the push may drain inline, and the
    // threads it runs fork into this same table.
    if (doSeal)
        seal(where.coords.data(), h, &self);
}

void
StreamSession::drainOne(const detail::SealedBin &item, unsigned worker)
{
    std::uint64_t done = 0;
    try {
        done = detail::executeBin(item.binId, item.threads, fault_,
                                  worker, detail::GroupCursor(item.groups),
                                  item.superBin, item.epoch);
    } catch (...) {
        // ErrorPolicy::Abort: still retire the chain so the backlog
        // accounting (and any producer backed off on it) stays sane
        // while the exception unwinds.
        retire(item);
        throw;
    }
    executed_.fetch_add(done, std::memory_order_relaxed);
    retire(item);
}

void
StreamSession::discard(const detail::SealedBin &item)
{
    if (fault_.cancelRequested() && item.threads > 0) {
        // Cancellation (not a StopTour fault) dropped this chain:
        // account it like any cancelled bin.
        detail::noteCancelledBin(fault_, item.binId, 0, item.threads);
    }
    retire(item);
}

void
StreamSession::retire(const detail::SealedBin &item)
{
    // Each group goes back to the producer that carved it.
    GroupPool::giveBackChain(item.groups);
    retiredThreads_.fetch_add(item.threads, std::memory_order_release);
}

void
StreamSession::drainMain(unsigned worker, void *ctx)
{
    auto *self = static_cast<StreamSession *>(ctx);
    if (obs::traceOn()) {
        obs::TraceSession::global().setLaneName(
            "stream drain " + std::to_string(worker));
    }
    obs::profileWorkerAttach(worker);
    // Same marker as tour workers: fork() from a user thread running
    // on a drain helper is the unsupported (fatal) case; producers
    // fork from their own threads.
    detail::ParallelWorkerScope inWorker;
    detail::SealedBin item;
    while (self->queue_.waitPop(item)) {
        if (self->fault_.stopRequested())
            self->discard(item);
        else
            self->drainOne(item, worker);
    }
}

void
StreamSession::monitorMain()
{
    if (obs::traceOn())
        obs::TraceSession::global().setLaneName("stream monitor");
    const auto tick = std::chrono::milliseconds(
        deadlineMillis_ > 0 ? deadlineMillis_ : kGovernorTickMillis);
    std::uint64_t lastRetired = 0;
    bool sawBacklog = false;
    std::unique_lock<std::mutex> lock(monMutex_);
    while (!monCv_.wait_for(lock, tick, [&] { return monDone_; })) {
        const std::uint64_t pend = backlog();
        // Progress is retirements net of refunds, loaded first so each
        // refund's own retirement is visible too (no underflow).
        const std::uint64_t refunds =
            refunds_.load(std::memory_order_acquire);
        const std::uint64_t ret =
            retiredThreads_.load(std::memory_order_relaxed) - refunds;
        if (deadlineMillis_ > 0 && !cancel_.requested()) {
            // Admitted threads not yet retired: reserved chunk tickets
            // are not work, so an idle producer's chunk never reads
            // as a wedged epoch.
            const std::uint64_t forked = admitted();
            const std::uint64_t queued = forked > ret ? forked - ret : 0;
            if (sawBacklog && queued > 0 && ret == lastRetired) {
                // A standing backlog retired nothing for a whole
                // deadline period: the epoch is wedged. Cancel
                // cooperatively; drains discard, backed-off producers
                // notice through stopRequested() within one backoff.
                LSCHED_WARN("stream deadline: backlog of ", queued,
                            " thread(s) made no progress for ",
                            deadlineMillis_,
                            " ms; cancelling the stream");
                LSCHED_TRACE_EVENT(
                    obs::EventType::DeadlineExpire, deadlineMillis_,
                    static_cast<std::uint64_t>(CancelReason::Deadline),
                    queued);
                if (recovery_) {
                    recovery_->deadlines.fetch_add(
                        1, std::memory_order_relaxed);
                }
                cancel_.request(CancelReason::Deadline);
            }
            sawBacklog = queued > 0;
        }
        lastRetired = ret;
        if (governor_ && governor_->enabled()) {
            const bool overloaded =
                cancel_.requested() ||
                (maxPending_ > 0 && pend >= maxPending_);
            const RecoveryState state = governor_->observe(overloaded);
            const bool nowDegraded =
                state == RecoveryState::Degraded;
            if (nowDegraded &&
                !degraded_.load(std::memory_order_relaxed)) {
                // Backed-off producers poll degraded_ each round, so
                // the flag alone unblocks them within one backoff.
                degraded_.store(true, std::memory_order_relaxed);
                shedLoad();
            } else if (!nowDegraded &&
                       degraded_.load(std::memory_order_relaxed)) {
                degraded_.store(false, std::memory_order_relaxed);
            }
        }
        if (placementAdaptive_) {
            // Stream epoch tick: a safe retune boundary. The adaptive
            // placement serializes against concurrent producers on its
            // own internal mutex; already-placed bins keep their
            // coordinates, so only subsequent forks land in the new
            // geometry.
            placement_.maybeRetune();
        }
    }
}

void
StreamSession::stopMonitor()
{
    if (!monitor_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(monMutex_);
        monDone_ = true;
    }
    monCv_.notify_one();
    monitor_.join();
}

std::uint64_t
StreamSession::sealAll()
{
    std::uint64_t sealed = 0;
    std::vector<std::pair<BlockCoords, std::uint64_t>> open;
    for (detail::StreamProducer *p = firstProducer(); p; p = p->link) {
        open.clear();
        {
            std::lock_guard<SpinLock> lock(p->tableLock);
            p->table.forEachBin([&](Bin &bin) {
                std::lock_guard<SpinLock> chain(bin.lock);
                if (bin.threadCount)
                    open.emplace_back(bin.coords, bin.hashVal);
            });
        }
        // A bin an earlier seal emptied (it held these coordinates
        // too) seals nothing.
        for (const auto &[coords, h] : open)
            sealed += seal(coords.data(), h, nullptr);
    }
    return sealed;
}

std::vector<StreamBinReport>
StreamSession::mergedBins() const
{
    std::vector<StreamBinReport> all;
    for (detail::StreamProducer *p = firstProducer(); p; p = p->link) {
        std::lock_guard<SpinLock> lock(p->tableLock);
        p->table.forEachBin([&](Bin &bin) {
            std::lock_guard<SpinLock> chain(bin.lock);
            all.push_back({bin.coords, bin.sealEpochs, bin.sealedThreads});
        });
    }
    std::sort(all.begin(), all.end(),
              [](const StreamBinReport &a, const StreamBinReport &b) {
                  return a.coords < b.coords;
              });
    std::vector<StreamBinReport> merged;
    for (const StreamBinReport &r : all) {
        if (!merged.empty() && merged.back().coords == r.coords) {
            merged.back().epochs += r.epochs;
            merged.back().threads += r.threads;
        } else {
            merged.push_back(r);
        }
    }
    return merged;
}

void
StreamSession::shedLoad()
{
    const std::uint64_t shedBins = sealAll();
    if (recovery_)
        recovery_->loadSheds.fetch_add(1, std::memory_order_relaxed);
    LSCHED_WARN("stream overload: degraded; force-sealed ", shedBins,
                " open bin(s) for the drain");
    LSCHED_TRACE_EVENT(obs::EventType::LoadShed, shedBins, backlog(),
                       maxPending_);
}

void
StreamSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // The monitor must stop before the tail drain: finish()'s own
    // sealing and draining would otherwise read as one more wedged
    // (or overloaded) epoch.
    stopMonitor();

    // Producers have stopped (the owner's contract). Leave the live
    // list first, so no exiting thread refunds into this session any
    // more; every record's unused tickets are refunded at the end.
    {
        LiveSessions &live = liveSessions();
        std::lock_guard<std::mutex> lock(live.mutex);
        std::erase_if(live.sessions, [this](const auto &entry) {
            return entry.second == this;
        });
    }

    // Seal every open chain so the tail of the stream drains like any
    // other epoch.
    sealAll();

    queue_.finish();
    if (helpersRunning_) {
        pool_->endHelpers();
        helpersRunning_ = false;
    }
    // Inline-only mode (no pool): the caller drains the whole tail as
    // worker 0. With helpers the queue is already empty — they only
    // exit waitPop once it is. Threads drained here may fork again,
    // into the caller's table: seal what they leave open and go on
    // until nothing is.
    detail::SealedBin item;
    do {
        while (queue_.tryPop(item)) {
            if (fault_.stopRequested()) {
                discard(item);
            } else {
                InlineDrainScope inDrain;
                drainOne(item, 0);
            }
        }
    } while (sealAll());
    // After the drain, which may have taken tickets for nested forks.
    for (detail::StreamProducer *p = firstProducer(); p; p = p->link) {
        refund(p->end - p->next);
        p->next = p->end;
    }

    bins_ = mergedBins();
    binsCreated_ = bins_.size();
    // A bin whose first fork failed to get a group holds no thread.
    std::erase_if(bins_, [](const StreamBinReport &r) {
        return r.threads == 0;
    });
}

StreamStats
StreamSession::stats() const
{
    StreamStats s;
    s.backlog = backlog();
    s.forked = admitted();
    s.executed = executed_.load(std::memory_order_relaxed);
    s.seals = queue_.pushes();
    s.backpressureWaits = bpWaits_.load(std::memory_order_relaxed);
    s.inlineDrains = inlineDrains_.load(std::memory_order_relaxed);
    s.peakBacklog = peak_.load(std::memory_order_relaxed);
    s.drainParks = queue_.parks();
    return s;
}

std::uint64_t
StreamSession::binsCreated() const
{
    return finished_ ? binsCreated_ : mergedBins().size();
}

} // namespace lsched::threads
