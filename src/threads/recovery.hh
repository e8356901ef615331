/**
 * @file
 * The recovery layer: deadlines, watchdog escalation, and graceful
 * degradation for long-running tours and streams.
 *
 * PRs 2-6 gave the scheduler fault *containment* (ErrorPolicy) but no
 * defense against work that is merely *stuck*: a wedged worker held a
 * tour forever and a saturated stream held its producers forever. This
 * layer adds the production failure story (DESIGN.md §13):
 *
 *  - TourMonitor — one monitor thread per tour that arms the
 *    deadlineMillis deadline (expiry requests cooperative cancellation
 *    through the tour's CancelToken) and the watchdogMillis watchdog
 *    (periodic stall report; with watchdogAction == cancel it
 *    escalates to the same token). Workers observe the token at bin
 *    and thread boundaries, so cancellation is cooperative and the
 *    scheduler is immediately reusable afterwards.
 *
 *  - OverloadGovernor — the degradation state machine
 *    Healthy → Backoff → Degraded → Recovered. Fed one observation per
 *    tour or stream epoch; after overloadEpochs consecutive overloaded
 *    epochs it degrades (streams shed load by force-sealing, parallel
 *    tours step down to the serial backend) and after recoverEpochs
 *    consecutive healthy epochs it recovers.
 *
 *  - RecoveryStats — per-scheduler counters, published as the
 *    sched.recover.* statistics (stat_fields.hh), so degradation and
 *    recovery are observable in metrics dumps and th_stats.
 */

#ifndef LSCHED_THREADS_RECOVERY_HH
#define LSCHED_THREADS_RECOVERY_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "threads/fault.hh"

namespace lsched::threads
{

/** What the runParallel watchdog does when its deadline passes. */
enum class WatchdogAction : std::uint8_t
{
    /** Warn and emit a WatchdogStall event (the historic behavior). */
    Event,
    /** Escalate: request cancellation through the tour's token, as a
     *  deadline expiry would. */
    Cancel,
};

/** Printable token of a watchdog action ("event" / "cancel"). */
const char *watchdogActionName(WatchdogAction action);

/** Parse a watchdog action; false (and *out untouched) when unknown. */
bool tryWatchdogActionFromName(const std::string &name,
                               WatchdogAction *out);

/** Overload-governor states (DESIGN.md §13 state machine). */
enum class RecoveryState : std::uint8_t
{
    /** No overload observed. */
    Healthy,
    /** Overloaded epochs accumulating toward the degrade threshold. */
    Backoff,
    /** Degraded: load is shed and parallel tours step down. */
    Degraded,
    /** Just recovered; behaves as Healthy on the next observation. */
    Recovered,
};

/** Printable name of a recovery state. */
const char *recoveryStateName(RecoveryState state);

/** Plain-value snapshot of RecoveryStats (SchedulerStats::recover). */
struct RecoverySnapshot
{
    /** Tour/epoch deadlines that expired. */
    std::uint64_t deadlines = 0;
    /** Watchdog firings that escalated to a cancellation. */
    std::uint64_t watchdogCancels = 0;
    /** Bins (whole or mid-bin tails) dropped by cancellations. */
    std::uint64_t cancelledBins = 0;
    /** User threads dropped un-run by cancellations. */
    std::uint64_t cancelledThreads = 0;
    /** Backoff rounds producers waited at the admission bound. */
    std::uint64_t admissionRetries = 0;
    /** Producers that exhausted streamAdmitRetries (AdmissionTimeout). */
    std::uint64_t admissionTimeouts = 0;
    /** Times the governor shed streaming load by force-sealing. */
    std::uint64_t loadSheds = 0;
    /** Parallel tours stepped down to the serial backend. */
    std::uint64_t degradedTours = 0;
    /** Degraded → Recovered transitions. */
    std::uint64_t recoveries = 0;
    /** Governor state at snapshot time. */
    RecoveryState state = RecoveryState::Healthy;
};

namespace detail
{

/**
 * Per-scheduler recovery counters. Atomics because monitors, workers,
 * and producers all write concurrently; snapshot() is the read side.
 * Forward-declared in fault.hh so FaultCtx can carry a pointer.
 */
struct RecoveryStats
{
    std::atomic<std::uint64_t> deadlines{0};
    std::atomic<std::uint64_t> watchdogCancels{0};
    std::atomic<std::uint64_t> cancelledBins{0};
    std::atomic<std::uint64_t> cancelledThreads{0};
    std::atomic<std::uint64_t> admissionRetries{0};
    std::atomic<std::uint64_t> admissionTimeouts{0};
    std::atomic<std::uint64_t> loadSheds{0};
    std::atomic<std::uint64_t> degradedTours{0};
    std::atomic<std::uint64_t> recoveries{0};

    /** Plain-value copy (state is filled in by the governor owner). */
    RecoverySnapshot
    snapshot() const
    {
        RecoverySnapshot s;
        s.deadlines = deadlines.load(std::memory_order_relaxed);
        s.watchdogCancels =
            watchdogCancels.load(std::memory_order_relaxed);
        s.cancelledBins =
            cancelledBins.load(std::memory_order_relaxed);
        s.cancelledThreads =
            cancelledThreads.load(std::memory_order_relaxed);
        s.admissionRetries =
            admissionRetries.load(std::memory_order_relaxed);
        s.admissionTimeouts =
            admissionTimeouts.load(std::memory_order_relaxed);
        s.loadSheds = loadSheds.load(std::memory_order_relaxed);
        s.degradedTours =
            degradedTours.load(std::memory_order_relaxed);
        s.recoveries = recoveries.load(std::memory_order_relaxed);
        return s;
    }
};

/** Everything one tour hands its monitor. */
struct TourMonitorSpec
{
    /** Tour deadline in ms; 0 = no deadline. */
    std::uint32_t deadlineMillis = 0;
    /** Watchdog period in ms; 0 = no watchdog. */
    std::uint32_t watchdogMillis = 0;
    WatchdogAction watchdogAction = WatchdogAction::Event;
    /** Token cancellation is requested through (required when either
     *  the deadline or a cancelling watchdog is armed). */
    CancelToken *cancel = nullptr;
    /** Recovery counters to bump; may be null. */
    RecoveryStats *recovery = nullptr;
    /** Watchdog slots for the stall report; may be null. */
    const std::atomic<std::int64_t> *currentBin = nullptr;
    unsigned workers = 1;
};

/**
 * RAII tour monitor: one thread armed when the spec asks for a
 * deadline or a watchdog, always stopped and joined on scope exit —
 * including the unwind when a worker-0 exception propagates out of
 * the tour. Replaces the observation-only WatchdogGuard.
 */
class TourMonitor
{
  public:
    explicit TourMonitor(const TourMonitorSpec &spec);
    ~TourMonitor();

    TourMonitor(const TourMonitor &) = delete;
    TourMonitor &operator=(const TourMonitor &) = delete;

  private:
    void body();

    TourMonitorSpec spec_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread monitor_;
};

} // namespace detail

/**
 * The degradation state machine. Thread-safe: tours observe from the
 * caller, streams from their monitor thread. Disabled (permanently
 * Healthy) until configure() sets a non-zero overload threshold.
 */
class OverloadGovernor
{
  public:
    /**
     * @param overloadEpochs consecutive overloaded epochs before
     *        degrading; 0 disables the governor entirely.
     * @param recoverEpochs consecutive healthy epochs before a
     *        degraded scheduler recovers (clamped to >= 1).
     * @param stats recovery counters to bump; may be null.
     */
    void configure(unsigned overloadEpochs, unsigned recoverEpochs,
                   detail::RecoveryStats *stats);

    /** Is the governor armed at all? */
    bool enabled() const;

    /**
     * Feed one tour/epoch outcome; returns the state after the
     * transition (RecoveryStep trace events make them observable).
     */
    RecoveryState observe(bool overloaded);

    /** Current state. */
    RecoveryState state() const;

    /** Convenience: state() == Degraded. */
    bool degraded() const;

  private:
    mutable std::mutex mutex_;
    unsigned overloadEpochs_ = 0;
    unsigned recoverEpochs_ = 1;
    detail::RecoveryStats *stats_ = nullptr;
    RecoveryState state_ = RecoveryState::Healthy;
    /** Consecutive epochs toward the pending transition. */
    unsigned streak_ = 0;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_RECOVERY_HH
