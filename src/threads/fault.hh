/**
 * @file
 * Fault containment for user threads.
 *
 * The paper's package ran trusted batch code: an exception escaping a
 * thread body killed the process (std::terminate from a worker, or a
 * scheduler left stuck with running_ == true). A production embedder
 * must survive misbehaving user threads, so run()/runParallel()
 * execute thread bodies under a configurable ErrorPolicy, and every
 * containment path records a ThreadFault for reporting.
 */

#ifndef LSCHED_THREADS_FAULT_HH
#define LSCHED_THREADS_FAULT_HH

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <vector>

namespace lsched::threads
{

/** What run()/runParallel() does with an exception from a thread. */
enum class ErrorPolicy : std::uint8_t
{
    /**
     * Do not contain (the package's historic behavior): the exception
     * propagates out of run() on the caller, or out of a worker
     * thread — std::terminate — under runParallel(). The run-guard
     * still restores scheduler state when the caller-side unwind is
     * catchable.
     */
    Abort,
    /**
     * Stop the tour: no further bins are claimed, in-flight bins
     * drain, and the first exception is rethrown exactly once on the
     * calling thread after all workers join. Un-run threads are
     * dropped; the scheduler is immediately reusable.
     */
    StopTour,
    /**
     * Run everything: each faulted thread is recorded and the rest of
     * the tour executes normally. run() returns the count of threads
     * that completed; lastFaults() reports the faults.
     */
    ContinueAndCollect,
};

/** Printable name of a policy. */
inline const char *
errorPolicyName(ErrorPolicy policy)
{
    switch (policy) {
      case ErrorPolicy::Abort:              return "Abort";
      case ErrorPolicy::StopTour:           return "StopTour";
      case ErrorPolicy::ContinueAndCollect: return "ContinueAndCollect";
    }
    return "?";
}

/** One contained user-thread failure. */
struct ThreadFault
{
    /** Bin the faulted thread belonged to. */
    std::uint32_t binId = 0;
    /** Worker that ran it (0 for sequential run()). */
    unsigned worker = 0;
    /** what() of the escaped exception ("unknown exception" else). */
    std::string message;
};

/** Why a tour or stream epoch was cooperatively cancelled. */
enum class CancelReason : std::uint8_t
{
    None = 0,
    /** The deadlineMillis deadline expired. */
    Deadline,
    /** The watchdog fired with watchdogAction == cancel. */
    Watchdog,
    /** The overload governor shed the work. */
    Overload,
};

/** Printable name of a cancel reason. */
inline const char *
cancelReasonName(CancelReason reason)
{
    switch (reason) {
      case CancelReason::None:     return "none";
      case CancelReason::Deadline: return "deadline";
      case CancelReason::Watchdog: return "watchdog";
      case CancelReason::Overload: return "overload";
    }
    return "?";
}

/**
 * Cooperative cancellation token shared by one tour (or stream) and
 * its monitors. Workers observe it at bin and thread boundaries and
 * stop claiming work once it is raised; the first request wins, so the
 * recorded reason names what actually pulled the trigger.
 */
struct CancelToken
{
    std::atomic<std::uint8_t> reason{0};

    /** Has a cancellation been requested? */
    bool
    requested() const
    {
        return reason.load(std::memory_order_relaxed) != 0;
    }

    /** The winning reason (None while not cancelled). */
    CancelReason
    why() const
    {
        return static_cast<CancelReason>(
            reason.load(std::memory_order_relaxed));
    }

    /** Raise the token; only the first caller's reason sticks. */
    void
    request(CancelReason r)
    {
        std::uint8_t expected = 0;
        reason.compare_exchange_strong(
            expected, static_cast<std::uint8_t>(r),
            std::memory_order_relaxed);
    }
};

namespace detail
{

struct RunGuard;      // RAII unwind protection, defined in scheduler.cc
struct RecoveryStats; // per-scheduler recovery counters (recovery.hh)

/** Shared fault-collection state for one run()/runParallel() call. */
struct FaultCtx
{
    ErrorPolicy policy = ErrorPolicy::Abort;
    /** Set under StopTour once a fault is seen; workers stop claiming. */
    std::atomic<bool> stop{false};
    std::mutex mutex;
    /** First escaped exception (StopTour rethrows it on the caller). */
    std::exception_ptr first;
    /** Recorded faults (capped at kMaxRecordedFaults). */
    std::vector<ThreadFault> *faults = nullptr;
    /** Total faults, including those past the cap. */
    std::uint64_t totalFaults = 0;
    /** Cancellation token of the tour's monitors; null = no deadline
     *  armed, and every cancel check folds to one pointer test. */
    const CancelToken *cancel = nullptr;
    /** Owning scheduler's recovery counters; may be null (tests). */
    RecoveryStats *recovery = nullptr;
    /** Bins dropped (whole or mid-bin) by a cancellation. */
    std::atomic<std::uint64_t> cancelledBins{0};
    /** User threads dropped un-run by a cancellation. */
    std::atomic<std::uint64_t> cancelledThreads{0};

    /** Faults retained with full detail per run. */
    static constexpr std::size_t kMaxRecordedFaults = 64;

    FaultCtx(ErrorPolicy p, std::vector<ThreadFault> *sink)
        : policy(p), faults(sink)
    {
    }

    /** Has a monitor cancelled this tour? */
    bool
    cancelRequested() const
    {
        return cancel && cancel->requested();
    }

    /** Should this worker stop claiming bins? */
    bool
    stopRequested() const
    {
        return cancelRequested() ||
               (policy == ErrorPolicy::StopTour &&
                stop.load(std::memory_order_relaxed));
    }
};

/**
 * Record the in-flight exception (call from a catch block only) as a
 * fault of @p binId on @p worker; under StopTour also captures the
 * first exception and raises the stop flag. Defined in scheduler.cc.
 */
void noteFault(FaultCtx &ctx, std::uint32_t binId, unsigned worker);

/**
 * Account @p threads of @p binId dropped un-run by a cancellation:
 * bumps the context's cancelled counters (and the scheduler's recovery
 * stats through ctx.recovery), emits a BinCancelled trace event, and —
 * under ContinueAndCollect, where the run returns normally — records
 * one ThreadFault naming the cancel reason so lastFaults() reports
 * what was dropped. Defined in scheduler.cc next to noteFault.
 */
void noteCancelledBin(FaultCtx &ctx, std::uint32_t binId,
                      unsigned worker, std::uint64_t threads);

/**
 * True on a thread currently executing bins for runParallel() or a
 * streaming drain. fork() uses it to reject the silent ready-list data
 * race that forking from inside a parallel tour would be. constinit,
 * so the inline batch fork reads it with one thread-local load — no
 * init guard, no call.
 */
inline constinit thread_local bool t_inParallelWorker = false;

/**
 * True on a thread running a forkParallel() body (set together with
 * t_inParallelWorker). There a body's scheduler call is a recoverable
 * UsageError instead of a tour worker's fatal error: the phase catches
 * it and rethrows it on the caller.
 */
inline constinit thread_local bool t_inForkPhase = false;

/** Whether the calling thread is inside a ParallelWorkerScope. */
inline bool
inParallelWorker()
{
    return t_inParallelWorker;
}

/**
 * Scoped thread-local marker for parallel worker bodies — the span
 * where inParallelWorker() answers true. Shared by the pool callback
 * behind every parallel backend and the streaming drain loop.
 */
struct ParallelWorkerScope
{
    ParallelWorkerScope() { t_inParallelWorker = true; }
    ~ParallelWorkerScope() { t_inParallelWorker = false; }
    ParallelWorkerScope(const ParallelWorkerScope &) = delete;
    ParallelWorkerScope &operator=(const ParallelWorkerScope &) = delete;
};

} // namespace detail

} // namespace lsched::threads

#endif // LSCHED_THREADS_FAULT_HH
