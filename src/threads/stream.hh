/**
 * @file
 * Streaming admission: fork-while-run (the tentpole past the paper's
 * batch model).
 *
 * The paper's package is strictly fork-everything-then-th_run; its §7
 * leaves concurrency as future work. A StreamSession removes the
 * barrier: any OS thread may fork while the pool drains, so admission
 * overlaps execution and the machine never idles waiting for bins to
 * be built.
 *
 * Structure (producer tables — see DESIGN.md §16):
 *
 *  - Each producer thread forks into its *own* batch BinTable and
 *    GroupPool, the same find-bin + cursor append a batch fork runs.
 *    Only the owner changes its table, so it finds a bin without a
 *    lock; it takes the table's lock to create one, and the bin's own
 *    one-byte lock to append. Only a seal takes either from another
 *    thread, so the owner's are uncontended on the fork path.
 *    Producer k's table numbers its bins from (k + 1) << 24, away from
 *    the batch table's 0-based ids.
 *
 *  - Bins gain *seal/epoch* semantics: sealing coordinates X detaches
 *    X's chain from every producer table that holds it and
 *    concatenates the chains in producer order into one SealedBin, so
 *    each producer's forks keep their order within the epoch. The
 *    seal locks X's bins hand over hand and queues the chain under the
 *    last lock, so seals of one bin reach the drain in detach order. A
 *    bin seals when one producer's open threads in it reach its share
 *    of streamSealThreshold (the whole threshold for a single
 *    producer), when a producer held at the gate force-seals the
 *    fullest open bins, or at finish(). Drain workers execute *sealed*
 *    chains only — the seal is the hand-off point, after which the
 *    chain is exclusively the drainer's — and give each retired group
 *    back to the producer that carved it, through a lock-free return
 *    stack in that producer's GroupPool.
 *
 *  - Backpressure bounds memory through a *ticket gate*: every
 *    admission uses a ticket. A producer reserves a chunk of tickets
 *    with one CAS, and only as many as fit under streamMaxPending at
 *    that moment, so a whole chunk passes the gate on one check and
 *    each fork in it touches only the producer's own record. With no
 *    room left, a producer takes one ticket (one fetch_add) and waits
 *    until the drain has retired enough threads that it fits, which
 *    keeps the backlog exactly bounded and FIFO-fair. Unused chunk
 *    tickets are refunded when the producer thread exits and at
 *    finish(). A producer held at the gate first tries to drain one
 *    sealed bin inline (becoming worker 0 for that bin), then to
 *    force-seal the fullest open bins of its own table (of the other
 *    tables when it has none open), and only then backs off with a
 *    timed, jittered exponential sleep — the slow path that preserves
 *    the stream_admit_retries / AdmissionTimeout semantics. No lock is
 *    held across a drain: nested forks from a thread *being drained
 *    inline* land in the draining producer's own table and bypass the
 *    bound — blocking there would deadlock the very producer doing
 *    the draining — so for workloads that fork from user threads the
 *    bound is a soft target, exact otherwise.
 *
 * Draining is the third execution mode next to serial and pooled
 * tours: there is no tour to partition — work arrives
 * incrementally — so the pool's helpers loop on the sealed queue
 * (WorkerPool::beginHelpers) and every chain still runs through THE
 * one executeBin() routine (bin_exec.hh), keeping ErrorPolicy
 * containment, tracing, and dwell metrics identical to batch runs.
 */

#ifndef LSCHED_THREADS_STREAM_HH
#define LSCHED_THREADS_STREAM_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "support/spin_lock.hh"
#include "threads/fault.hh"
#include "threads/hash_table.hh"
#include "threads/hints.hh"
#include "threads/placement.hh"
#include "threads/recovery.hh"
#include "threads/thread_group.hh"
#include "threads/worker_pool.hh"

namespace lsched::threads
{

struct SchedulerConfig;

/** Counters of one streaming session (also lifetime-accumulated). */
struct StreamStats
{
    /** Threads admitted (live: the sum of per-producer counts, so
     *  reserved-but-unused and refunded tickets never count). */
    std::uint64_t forked = 0;
    /** Threads executed by the drain (inline or pool). */
    std::uint64_t executed = 0;
    /** Sealed-chain work items produced. */
    std::uint64_t seals = 0;
    /** Times a producer backed off at the maxPending bound. */
    std::uint64_t backpressureWaits = 0;
    /** Sealed bins a producer drained inline under backpressure. */
    std::uint64_t inlineDrains = 0;
    /** Tickets not yet retired (live): gate waiters and reserved
     *  chunk tickets included. */
    std::uint64_t backlog = 0;
    /** Highest ticket + 1 − retired at admission (≤ bound if gated). */
    std::uint64_t peakBacklog = 0;
    /** Times a drain worker parked on an empty sealed queue. */
    std::uint64_t drainParks = 0;

    StreamStats &
    operator+=(const StreamStats &o)
    {
        forked += o.forked;
        executed += o.executed;
        seals += o.seals;
        backpressureWaits += o.backpressureWaits;
        inlineDrains += o.inlineDrains;
        drainParks += o.drainParks;
        backlog = o.backlog;
        peakBacklog = std::max(peakBacklog, o.peakBacklog);
        return *this;
    }
};

/** Per-bin outcome of a finished stream (tests, reports). */
struct StreamBinReport
{
    /** The bin's block coordinates. */
    BlockCoords coords{};
    /** Seal epochs the bin went through. */
    std::uint32_t epochs = 0;
    /** Threads admitted to the bin across all epochs. */
    std::uint64_t threads = 0;
};

namespace detail
{

/** One sealed chain: a bin epoch's threads, ready to drain. */
struct SealedBin
{
    std::uint32_t binId = 0;
    std::uint32_t epoch = 0;
    /** The bin's super-bin group (profiling attribution). */
    std::uint32_t superBin = 0xffffffffu;
    std::uint64_t threads = 0;
    ThreadGroup *groups = nullptr;
};

/**
 * One producer thread's admission state in one session. Its thread
 * alone writes the ticket fields, its table's structure and its pool.
 * Other threads probe the table under tableLock, which the owner takes
 * only to create a bin; a bin's group chain is guarded by the bin's
 * own lock, which the owner takes to fork into it and a sealer to
 * detach the chain. Drain workers give groups back to pool lock-free.
 */
struct alignas(64) StreamProducer
{
    StreamProducer(unsigned dims, std::size_t buckets,
                   std::uint32_t idBase, std::uint32_t groupCapacity)
        : table(dims, buckets, idBase), pool(groupCapacity, &returned)
    {
    }

    /** Unused tickets of the current chunk, [next, end); every one of
     *  them already passed the gate. */
    std::uint64_t next = 0;
    std::uint64_t end = 0;
    /** Threads this producer admitted; live forked is their sum. */
    std::atomic<std::uint64_t> admitted{0};
    /** The thread that owns the record (found again on re-attach). */
    std::thread::id owner;
    /** Next record of the session's list (producer order); fixed
     *  before publication. */
    StreamProducer *link = nullptr;

    /** Orders other threads' probes of table after the owner's
     *  changes to it. On its own line: sealers write it. */
    alignas(64) SpinLock tableLock;
    /** This producer's open bins, as a batch fork builds them. */
    BinTable table;
    /** Groups for table's bins; the drain gives them back here. */
    GroupPool pool;
    /** pool's return stack. On its own line: the drain's pushes stay
     *  off the lines the owner writes. */
    alignas(64) std::atomic<ThreadGroup *> returned{nullptr};
};

/** The calling thread's producer record (thread-local). */
struct ProducerHandle;

/**
 * MPMC FIFO of sealed chains between producers and drain workers.
 * Draining in seal order is the streaming analogue of the ready
 * list's creation-order tour.
 *
 * The ring is Vyukov's bounded MPMC queue: per-cell sequence numbers
 * carry the acquire/release hand-off, so push and pop are lock-free.
 * An idle drain helper first polls the ring for a bounded spin, then
 * parks. The mutex exists only for parking: a push touches it solely
 * when the sleepers count says somebody is (about to be) parked, so
 * the admission path stays mutex-free while the queue has active
 * consumers. The missed-wakeup race (sleeper registering while a
 * pusher checks) is closed Dekker-style with seq_cst fences on both
 * sides of the counter.
 */
class SealedQueue
{
  public:
    /** Ring capacity (power of two). On full, callers drain inline. */
    static constexpr std::size_t kCells = 4096;
    /** Empty polls before a drain helper parks (a few tens of µs):
     *  the gap between two seals, so a busy stream rarely parks. */
    static constexpr unsigned kSpinPolls = 1024;

    SealedQueue()
    {
        for (std::size_t i = 0; i < kCells; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    /** Lock-free push; false when the ring is full. */
    bool
    tryPush(const SealedBin &item)
    {
        std::size_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & (kCells - 1)];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
        Cell &cell = cells_[pos & (kCells - 1)];
        cell.item = item;
        cell.seq.store(pos + 1, std::memory_order_release);
        wakeOne();
        return true;
    }

    /** Lock-free non-blocking pop (inline drains, finish tail). */
    bool
    tryPop(SealedBin &out)
    {
        std::size_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells_[pos & (kCells - 1)];
            const std::size_t seq =
                cell.seq.load(std::memory_order_acquire);
            const std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // empty (or the pusher mid-publish)
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
        Cell &cell = cells_[pos & (kCells - 1)];
        out = cell.item;
        cell.seq.store(pos + kCells, std::memory_order_release);
        return true;
    }

    /** Park until an item arrives or finish(); false = stream over. */
    bool
    waitPop(SealedBin &out)
    {
        for (;;) {
            for (unsigned i = 0; i < kSpinPolls; ++i) {
                if (tryPop(out))
                    return true;
                if (finished_.load(std::memory_order_relaxed))
                    break;
                lsched::cpuRelax();
            }
            if (tryPop(out))
                return true;
            std::unique_lock<std::mutex> lock(mutex_);
            sleepers_.fetch_add(1, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_seq_cst);
            // Re-check after registering: a pusher that missed our
            // registration must have published before our fence, so
            // this pop sees its item.
            if (tryPop(out)) {
                sleepers_.fetch_sub(1, std::memory_order_relaxed);
                return true;
            }
            if (finished_.load(std::memory_order_acquire)) {
                sleepers_.fetch_sub(1, std::memory_order_relaxed);
                // Every push happened before finish(); one last pop
                // sweeps anything a racing helper has not claimed.
                return tryPop(out);
            }
            parks_.fetch_add(1, std::memory_order_relaxed);
            cv_.wait(lock);
            sleepers_.fetch_sub(1, std::memory_order_relaxed);
        }
    }

    /** Items ever pushed: every seal is queued exactly once, so this
     *  is the one home of the seal count. */
    std::uint64_t
    pushes() const
    {
        return tail_.load(std::memory_order_relaxed);
    }

    /** Times a waitPop parked (the one home of drainParks). */
    std::uint64_t
    parks() const
    {
        return parks_.load(std::memory_order_relaxed);
    }

    /** No more pushes will come; unblocks every waitPop. */
    void
    finish()
    {
        finished_.store(true, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(mutex_);
        }
        cv_.notify_all();
    }

  private:
    struct alignas(64) Cell
    {
        std::atomic<std::size_t> seq{0};
        SealedBin item;
    };

    void
    wakeOne()
    {
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (sleepers_.load(std::memory_order_relaxed) > 0) {
            // Pass through the lock so a sleeper between its re-check
            // and its wait cannot miss this notify.
            {
                std::lock_guard<std::mutex> lock(mutex_);
            }
            cv_.notify_one();
        }
    }

    std::unique_ptr<Cell[]> cells_ =
        std::make_unique<Cell[]>(kCells);
    alignas(64) std::atomic<std::size_t> tail_{0};
    alignas(64) std::atomic<std::size_t> head_{0};
    alignas(64) std::atomic<unsigned> sleepers_{0};
    std::atomic<bool> finished_{false};
    std::atomic<std::uint64_t> parks_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
};

} // namespace detail

/**
 * One fork-while-run session (th_stream_begin .. th_stream_end).
 * Created by LocalityScheduler::streamBegin(), which also flips the
 * scheduler into streaming mode so fork() routes here. fork() is safe
 * from any number of OS threads concurrently; every other method is
 * the owning scheduler's to call.
 */
class StreamSession
{
  public:
    /** Largest ticket chunk a producer reserves at once. */
    static constexpr std::uint64_t kMaxChunk = 64;
    /** A gated chunk is at most streamMaxPending / this, so an idle
     *  producer's reserved tickets hold under 1/16 of the bound. */
    static constexpr std::uint64_t kChunkDivisor = 16;

    /**
     * @param config the owning scheduler's validated configuration.
     * @param placement the scheduler's placement policy. Stateless
     *        policies (BlockHash) are called lock-free from producers;
     *        stateful ones are serialized on an internal mutex.
     * @param pool the scheduler's worker pool, or nullptr for the
     *        inline-only mode (Serial backend): no drain helpers, all
     *        execution happens on producers and at finish().
     * @param drainWorkers helper threads draining sealed bins
     *        (ignored when @p pool is null).
     * @param recovery the owning scheduler's recovery counters; may be
     *        null (standalone tests).
     * @param governor the owning scheduler's overload governor; may be
     *        null. When enabled, the session's monitor feeds it one
     *        observation per tick and sheds load while it is degraded.
     */
    StreamSession(const SchedulerConfig &config,
                  PlacementPolicy &placement, WorkerPool *pool,
                  unsigned drainWorkers,
                  detail::RecoveryStats *recovery = nullptr,
                  OverloadGovernor *governor = nullptr);

    /** Finishes the stream if the owner never did (teardown path). */
    ~StreamSession();

    StreamSession(const StreamSession &) = delete;
    StreamSession &operator=(const StreamSession &) = delete;

    /** Admit one thread (thread-safe; may block under backpressure). */
    void fork(ThreadFn fn, void *arg1, void *arg2,
              std::span<const Hint> hints);

    /**
     * Seal every open bin, drain the backlog to empty, and stop the
     * helpers. Idempotent. Does not rethrow — the owner decides what
     * to do with firstFault() after restoring its own state.
     */
    void finish();

    /** Live (or final) counters. */
    StreamStats stats() const;

    /** Distinct bin coordinates the producers' tables created. */
    std::uint64_t binsCreated() const;

    /** Per-bin totals; valid after finish(). */
    const std::vector<StreamBinReport> &binReports() const
    {
        return bins_;
    }

    /** Contained faults; valid after finish(). */
    const std::vector<ThreadFault> &faults() const { return faults_; }

    /** Total faults including past the recording cap. */
    std::uint64_t faultCount() const { return fault_.totalFaults; }

    /** First StopTour exception, for the owner to rethrow. */
    std::exception_ptr firstFault() const { return fault_.first; }

    /** Why the stream was cancelled (None while healthy). The owner
     *  turns a non-None reason into a DeadlineError at streamEnd(). */
    CancelReason cancelReason() const { return cancel_.why(); }

    /** Is the session currently shedding load (governor degraded)? */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

  private:
    friend struct detail::ProducerHandle;

    static void drainMain(unsigned worker, void *ctx);

    /** The calling thread's record in this session (attach on first
     *  use). */
    detail::StreamProducer &producer();
    /** Register (or find again) the calling thread's record. */
    detail::StreamProducer &attachProducer();
    /** Refund @p p's unused tickets; it stops counting as live. */
    void releaseProducer(detail::StreamProducer &p);
    /** Seal share from the live producer count (mutex held). */
    void updateSealShare();
    /** Take a chunk of tickets that fits the gate, or one ticket and
     *  wait out the maxPending gate. */
    void takeTickets(detail::StreamProducer &p);
    /** Gate slow path of @p self's @p ticket; returns the retired
     *  count it passed on. */
    std::uint64_t waitAtGate(detail::StreamProducer &self,
                             std::uint64_t ticket);
    /** Raise peak_ to @p backlog if it is higher. */
    void notePeak(std::uint64_t backlog);
    /** Hand @p n tickets back: retired first, then refunds_. */
    void refund(std::uint64_t n);
    /** Sum of the producers' admitted counts. */
    std::uint64_t admitted() const;
    /** tickets − retired threads (never underflows). */
    std::uint64_t backlog() const;
    /** Help at the bound: inline-drain a sealed bin or force-seal an
     *  open one. False when the backlog is entirely in flight. */
    bool tryHelp(detail::StreamProducer &self);
    /** The first producer record (the newest). */
    detail::StreamProducer *firstProducer() const
    {
        return producers_.load(std::memory_order_acquire);
    }
    /** Seal @p coords: detach its open chains from every producer
     *  table as one work item and queue it (drains inline when the
     *  ring is full, so a push can never deadlock); false when
     *  nothing was open. @p self is the caller's own record, if it
     *  is a producer. */
    bool seal(const std::uint64_t *coords, std::uint64_t h,
              detail::StreamProducer *self);
    /** Seal and queue every open bin; returns how many. */
    std::uint64_t sealAll();
    /** Seal the coordinates of the fullest open bins (up to
     *  kForcedSealBins) of @p self's table, or of the other tables
     *  when @p self has none open. */
    bool forceSealFullest(detail::StreamProducer &self);
    /** Every producer table's bins, one report per coordinate
     *  (sorted, including bins that hold no thread). */
    std::vector<StreamBinReport> mergedBins() const;
    /** Execute one sealed chain as @p worker and retire it. */
    void drainOne(const detail::SealedBin &item, unsigned worker);
    /** Retire a chain without running it (StopTour/cancel discard). */
    void discard(const detail::SealedBin &item);
    /** Return the chain to the pool and shrink the backlog. */
    void retire(const detail::SealedBin &item);
    /** Epoch-progress monitor body (deadline + overload governor). */
    void monitorMain();
    /** Stop and join the monitor thread (idempotent). */
    void stopMonitor();
    /** Degraded: force-seal every open bin so the drain has it all. */
    void shedLoad();

    const unsigned dims_;
    const std::uint64_t sealThreshold_;
    const std::uint64_t maxPending_;
    /** Tickets per chunk (kMaxChunk, or less under a tight bound). */
    const std::uint64_t chunk_;
    /** Identity checked by the thread-local producer handles. */
    const std::uint64_t generation_;
    /** Open threads of one producer that seal a bin: sealThreshold_
     *  over the live producers, rounded up; 0 = never. */
    std::atomic<std::uint64_t> sealShare_{0};
    /** Each producer table's starting slot count. */
    const std::size_t buckets_;
    /** Threads per group in the producers' pools. */
    const std::uint32_t groupCapacity_;
    /** Epoch deadline: cancel when a standing backlog retires nothing
     *  for a full period. 0 = no deadline. */
    const std::uint32_t deadlineMillis_;
    /** No-progress backoff rounds before AdmissionTimeout; 0 = ∞. */
    const std::uint32_t admitRetries_;

    PlacementPolicy &placement_;
    /** Serializes place() for stateful policies; unused otherwise. */
    std::mutex placementMutex_;
    const bool placementStateless_;
    /** Adaptive placement: the monitor ticks maybeRetune(). */
    const bool placementAdaptive_;

    detail::SealedQueue queue_;

    /** Every producer record, newest first; freed with the session.
     *  Seals walk it in this order. */
    std::atomic<detail::StreamProducer *> producers_{nullptr};
    /** Serializes attach/release bookkeeping (rare). */
    std::mutex producersMutex_;
    unsigned registered_ = 0;
    unsigned liveProducers_ = 0;

    std::vector<ThreadFault> faults_;
    detail::FaultCtx fault_;

    /**
     * One home per counter, one cache line per writer. A fork writes
     * only its producer's record and table;
     * tickets_ moves once per chunk. forked is the sum of the records'
     * admitted counts, the backlog tickets_ − retiredThreads_ (gate
     * waiters and reserved chunks included). A ticket passes once
     * ticket < retiredThreads_ + maxPending_, which bounds the
     * admitted backlog by maxPending_ exactly; peak_ records it only
     * when it rises.
     */
    alignas(64) std::atomic<std::uint64_t> tickets_{0};

    /** Drain: threads retired (+ refunds) and executed. */
    alignas(64) std::atomic<std::uint64_t> retiredThreads_{0};
    std::atomic<std::uint64_t> executed_{0};

    /** Rare: refunds (fork rollback, AdmissionTimeout), the peak
     *  (written only when it rises), and slow-path tallies. */
    alignas(64) std::atomic<std::uint64_t> refunds_{0};
    std::atomic<std::uint64_t> peak_{0};
    std::atomic<std::uint64_t> bpWaits_{0};
    std::atomic<std::uint64_t> inlineDrains_{0};

    WorkerPool *pool_;
    detail::HelperJob job_;
    bool helpersRunning_ = false;

    std::vector<StreamBinReport> bins_;
    /** Distinct coordinates created, fixed by finish(). */
    std::uint64_t binsCreated_ = 0;
    bool finished_ = false;

    /** Raised by the monitor on epoch-deadline expiry; fault_.cancel
     *  points here when a deadline is armed, so drains and backed-off
     *  producers observe it through stopRequested(). */
    CancelToken cancel_;
    /** True while the governor holds the session degraded: producers
     *  stop blocking (soft bound) and open bins are force-sealed. */
    std::atomic<bool> degraded_{false};
    detail::RecoveryStats *recovery_;
    OverloadGovernor *governor_;
    std::mutex monMutex_;
    std::condition_variable monCv_;
    bool monDone_ = false;
    std::thread monitor_;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_STREAM_HH
