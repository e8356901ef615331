/**
 * @file
 * WorkerPool implementation: parking protocol, occupancy-weighted
 * contiguous partitioning, and the take/steal worker loop. See
 * worker_pool.hh for the design rationale.
 */

#include "threads/worker_pool.hh"

#include <string>

#include "obs/profile.hh"
#include "obs/trace.hh"
#include "support/panic.hh"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace lsched::threads
{

namespace
{

/** Pin the calling thread to one CPU; false when the affinity
 *  syscall failed (or the platform has none). */
bool
pinToCpu(unsigned cpu)
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
    (void)cpu;
    return false;
#endif
}

} // namespace

WorkerPool::WorkerPool(bool pinWorkers, std::vector<unsigned> pinPlan)
    : pin_(pinWorkers), pinPlan_(std::move(pinPlan))
{
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : helpers_)
        t.join();
}

WorkerPoolStats
WorkerPool::stats() const
{
    WorkerPoolStats s;
    s.threadsSpawned = spawned_.load(std::memory_order_relaxed);
    s.tours = tours_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    s.crossSteals = crossSteals_.load(std::memory_order_relaxed);
    s.pinFailed = pinFailed_.load(std::memory_order_relaxed);
    return s;
}

unsigned
WorkerPool::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<unsigned>(helpers_.size());
}

void
WorkerPool::ensureWorkers(unsigned workers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Helpers index slots_ without the lock only while running a tour,
    // and runTour (the sole caller, between tours) waits for every
    // participant before returning — but grow under mutex_ anyway so
    // the safety is structural, not inherited from the caller.
    while (slots_.size() < workers)
        slots_.push_back(std::make_unique<WorkerSlot>());
    while (helpers_.size() + 1 < workers) {
        const unsigned helperIndex =
            static_cast<unsigned>(helpers_.size());
        // A helper born between tours must not mistake the *previous*
        // epoch for a fresh one (its job pointer is dead) nor treat
        // the upcoming epoch as already seen: hand it the epoch as of
        // its spawn so it waits for the next bump exactly.
        helpers_.emplace_back(&WorkerPool::helperMain, this,
                              helperIndex, epoch_);
        spawned_.fetch_add(1, std::memory_order_relaxed);
    }
}

/**
 * Contiguous, occupancy-weighted partition: worker w's segment ends
 * where the running thread count reaches (w+1)/workers of the total.
 * Contiguity preserves tour-order locality; the occupancy weighting
 * pre-balances skewed workloads (N-body) so stealing is the fallback,
 * not the common case.
 */
void
WorkerPool::splitSegment(const detail::PoolJob &job, std::size_t first,
                         std::size_t last, const unsigned *workers,
                         unsigned count)
{
    std::uint64_t total = 0;
    for (std::size_t i = first; i < last; ++i)
        total += job.tour[i]->threadCount;

    std::size_t start = first;
    std::uint64_t seen = 0;
    for (unsigned k = 0; k < count; ++k) {
        std::size_t end;
        if (k + 1 == count) {
            end = last;
        } else {
            const std::uint64_t want = total * (k + 1) / count;
            end = start;
            while (end < last && seen < want) {
                seen += job.tour[end]->threadCount;
                ++end;
            }
            if (job.honorSuperBins) {
                // Snap the boundary forward so a super-bin — bins a
                // topology placement pinned together — never splits
                // across two workers' segments.
                while (end > start && end < last &&
                       job.tour[end]->superBin != kNoSuperBin &&
                       job.tour[end]->superBin ==
                           job.tour[end - 1]->superBin) {
                    seen += job.tour[end]->threadCount;
                    ++end;
                }
            }
        }
        slots_[workers[k]]->deque.reset(
            job.tour + start, static_cast<std::uint32_t>(end - start));
        start = end;
    }
}

void
WorkerPool::partition(const detail::PoolJob &job)
{
    const bool domainAware = job.binDomain != nullptr &&
                             job.workerDomain != nullptr &&
                             job.domains > 0;
    if (!domainAware) {
        std::vector<unsigned> everyone(job.workers);
        for (unsigned w = 0; w < job.workers; ++w)
            everyone[w] = w;
        splitSegment(job, 0, job.bins, everyone.data(), job.workers);
        return;
    }

    // Domain-aware: the caller sorted the tour so each domain's bins
    // are one contiguous run; split each run only among the workers
    // pinned into that domain. Validate the shape first (one run per
    // domain, every populated domain has a worker) and fall back to
    // the flat split when it doesn't hold — mispartitioning would
    // strand bins, and correctness beats affinity.
    std::vector<std::vector<unsigned>> byDomain(job.domains);
    for (unsigned w = 0; w < job.workers; ++w)
        byDomain[job.workerDomain[w] % job.domains].push_back(w);
    std::vector<std::size_t> runStart(job.domains, job.bins);
    std::vector<std::size_t> runEnd(job.domains, job.bins);
    bool valid = true;
    for (std::size_t i = 0; i < job.bins && valid; ++i) {
        const std::uint32_t d = job.binDomain[i] % job.domains;
        if (runStart[d] == job.bins) {
            runStart[d] = i;
            runEnd[d] = i + 1;
            valid = !byDomain[d].empty();
        } else if (runEnd[d] == i) {
            runEnd[d] = i + 1;
        } else {
            valid = false; // second run of the same domain
        }
    }
    if (!valid) {
        std::vector<unsigned> everyone(job.workers);
        for (unsigned w = 0; w < job.workers; ++w)
            everyone[w] = w;
        splitSegment(job, 0, job.bins, everyone.data(), job.workers);
        return;
    }
    for (unsigned w = 0; w < job.workers; ++w)
        slots_[w]->deque.reset(nullptr, 0);
    for (std::uint32_t d = 0; d < job.domains; ++d) {
        if (runStart[d] == job.bins)
            continue; // domain got no bins this tour
        splitSegment(job, runStart[d], runEnd[d], byDomain[d].data(),
                     static_cast<unsigned>(byDomain[d].size()));
    }
}

void
WorkerPool::runTour(detail::PoolJob &job)
{
    LSCHED_ASSERT(job.workers >= 1, "tour with zero workers");
    LSCHED_ASSERT(job.bins <= 0xffffffffu, "tour too long for a deque");

    ensureWorkers(job.workers);
    partition(job);

    if (job.workers > 1) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            tourWorkers_ = job.workers;
            helperPhase_ = false;
            ++epoch_;
            active_ = job.workers - 1;
        }
        wakeCv_.notify_all();
    }

    try {
        workerLoop(0, job);
    } catch (...) {
        // Worker 0 ran the caller's thread: let its exception reach
        // the caller (ErrorPolicy::Abort), but only after the helpers
        // are done with the tour's stack-allocated state.
        if (job.workers > 1) {
            std::unique_lock<std::mutex> lock(mutex_);
            doneCv_.wait(lock, [&] { return active_ == 0; });
        }
        tours_.fetch_add(1, std::memory_order_relaxed);
        throw;
    }

    if (job.workers > 1) {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return active_ == 0; });
    }
    tours_.fetch_add(1, std::memory_order_relaxed);

    if (job.cancel && job.cancel->requested() && job.cancelledBin) {
        // Every worker has joined, so the deques are quiescent: drain
        // the unclaimed remainder and account each dropped bin.
        for (unsigned w = 0; w < job.workers; ++w) {
            while (Bin *bin = slots_[w]->deque.take())
                job.cancelledBin(bin, job.ctx);
        }
    }
}

void
WorkerPool::beginHelpers(detail::HelperJob &job)
{
    LSCHED_ASSERT(job.workers >= 1, "helper phase with zero workers");
    ensureWorkers(job.workers + 1); // job.workers helpers; 0 = caller
    {
        std::lock_guard<std::mutex> lock(mutex_);
        helperJob_ = &job;
        helperWorkers_ = job.workers;
        helperPhase_ = true;
        ++epoch_;
        active_ = job.workers;
    }
    wakeCv_.notify_all();
}

void
WorkerPool::endHelpers()
{
    bool tour = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&] { return active_ == 0; });
        // helperPhase_ deliberately stays true (see the member
        // comment); the wait above just proved every participant is
        // past the body, and non-participants never deref helperJob_,
        // so clearing the pointer is safe even though the job itself
        // dies with its owner.
        tour = helperJob_->countsAsTour;
        helperJob_ = nullptr;
    }
    if (tour)
        tours_.fetch_add(1, std::memory_order_relaxed);
}

void
WorkerPool::helperMain(unsigned helperIndex, std::uint64_t startEpoch)
{
    const unsigned id = helperIndex + 1;
    if (pin_) {
        unsigned cpu;
        if (!pinPlan_.empty()) {
            cpu = pinPlan_[id % pinPlan_.size()];
        } else {
            const unsigned cpus =
                std::max(1u, std::thread::hardware_concurrency());
            cpu = id % cpus;
        }
        if (!pinToCpu(cpu)) {
            // Recoverable: the worker runs unpinned; cluster-aware
            // partitioning degrades to plain stealing. Count every
            // failure, diagnose once per process.
            pinFailed_.fetch_add(1, std::memory_order_relaxed);
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true, std::memory_order_relaxed)) {
                LSCHED_WARN("pinning worker ", id, " to cpu ", cpu,
                            " failed; workers run unpinned "
                            "(sched.pool.pin_failed counts these)");
            }
        }
    }

    std::uint64_t seen = startEpoch;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (!shutdown_ && epoch_ == seen) {
            parks_.fetch_add(1, std::memory_order_relaxed);
            LSCHED_TRACE_EVENT(obs::EventType::WorkerPark, id, seen);
            wakeCv_.wait(lock,
                         [&] { return shutdown_ || epoch_ != seen; });
        }
        if (shutdown_)
            return;
        seen = epoch_;
        if (helperPhase_) {
            // Helper phase. Same discipline as the tour branch below:
            // participation comes from helperWorkers_ under mutex_,
            // and only participants — whom endHelpers waits for via
            // active_ — may deref helperJob_.
            if (id > helperWorkers_)
                continue;
            detail::HelperJob &job = *helperJob_;
            lock.unlock();
            job.body(id, job.ctx);
            lock.lock();
            if (--active_ == 0)
                doneCv_.notify_one();
            continue;
        }
        // Participation is decided under mutex_ from tourWorkers_,
        // never by dereferencing job_: the job lives on runTour's
        // caller's stack and the active_ handshake keeps it alive only
        // for helpers the tour waits on. A helper woken past the
        // tour's width (notify_all wakes everyone) re-parks without
        // touching it — reading the dead previous job here was a
        // use-after-free whenever a tour shrank the worker count.
        if (id >= tourWorkers_)
            continue;
        detail::PoolJob &job = *job_;
        lock.unlock();

        // An exception escaping here (a user thread under
        // ErrorPolicy::Abort) unwinds out of the thread function:
        // std::terminate, the documented Abort-parallel behavior.
        workerLoop(id, job);

        lock.lock();
        if (--active_ == 0)
            doneCv_.notify_one();
    }
}

Bin *
WorkerPool::trySteal(unsigned id, const detail::PoolJob &job,
                     unsigned *victim)
{
    // Same-cache-domain victims first (topology-aware tours): a steal
    // within the thief's L2 domain keeps the bin's working set in a
    // cache the thief already shares. Only when the whole domain is
    // dry does the thief go cross-domain.
    if (job.workerDomain != nullptr && job.domains > 0) {
        const std::uint32_t mine = job.workerDomain[id];
        for (unsigned i = 1; i < job.workers; ++i) {
            const unsigned v = (id + i) % job.workers;
            if (job.workerDomain[v] != mine)
                continue;
            if (Bin *bin = slots_[v]->deque.steal()) {
                *victim = v;
                return bin;
            }
        }
    }
    // One full pass over the other workers. Segments are never
    // refilled mid-tour, so observing every deque empty means the
    // remaining bins are already being executed — this worker is done.
    for (unsigned i = 1; i < job.workers; ++i) {
        const unsigned v = (id + i) % job.workers;
        if (Bin *bin = slots_[v]->deque.steal()) {
            *victim = v;
            return bin;
        }
    }
    return nullptr;
}

void
WorkerPool::workerLoop(unsigned id, detail::PoolJob &job)
{
    if (obs::traceOn()) {
        obs::TraceSession::global().setLaneName(
            "worker " + std::to_string(id));
    }
    // Pre-open this worker's HW counter group so the first bin's
    // profiling window doesn't pay the perf_event_open cost.
    obs::profileWorkerAttach(id);

    detail::BinDeque &mine = slots_[id]->deque;
    std::uint64_t ran = 0;
    for (;;) {
        if (job.stop && job.stop->load(std::memory_order_relaxed))
            break;
        if (job.cancel && job.cancel->requested())
            break;
        unsigned victim = id;
        Bin *bin = mine.take();
        if (!bin)
            bin = trySteal(id, job, &victim);
        if (!bin)
            break;

        if (job.currentBin) {
            job.currentBin[id].store(bin->id,
                                     std::memory_order_relaxed);
        }
        if (victim != id) {
            steals_.fetch_add(1, std::memory_order_relaxed);
            LSCHED_TRACE_EVENT(obs::EventType::StealBin, bin->id,
                               victim, id);
            if (job.workerDomain != nullptr && job.domains > 0 &&
                job.workerDomain[victim] != job.workerDomain[id]) {
                crossSteals_.fetch_add(1, std::memory_order_relaxed);
            }
        }
        LSCHED_TRACE_EVENT(obs::EventType::WorkerClaimBin, bin->id,
                           victim, id);

        ran += job.execute(bin, id, job.ctx);

        if (job.currentBin) {
            job.currentBin[id].store(detail::kWorkerIdle,
                                     std::memory_order_relaxed);
        }
    }
    job.executed.fetch_add(ran, std::memory_order_relaxed);
    if (job.currentBin) {
        job.currentBin[id].store(detail::kWorkerDone,
                                 std::memory_order_relaxed);
    }
}

} // namespace lsched::threads
