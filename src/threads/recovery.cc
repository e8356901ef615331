/**
 * @file
 * Recovery-layer implementation: the tour monitor (deadline +
 * watchdog escalation) and the overload governor's state machine.
 * See recovery.hh for the design.
 */

#include "threads/recovery.hh"

#include <chrono>
#include <sstream>

#include "obs/trace.hh"
#include "support/panic.hh"
#include "threads/worker_pool.hh"

namespace lsched::threads
{

const char *
watchdogActionName(WatchdogAction action)
{
    switch (action) {
      case WatchdogAction::Event:  return "event";
      case WatchdogAction::Cancel: return "cancel";
    }
    return "?";
}

bool
tryWatchdogActionFromName(const std::string &name, WatchdogAction *out)
{
    if (name == "event")
        *out = WatchdogAction::Event;
    else if (name == "cancel")
        *out = WatchdogAction::Cancel;
    else
        return false;
    return true;
}

const char *
recoveryStateName(RecoveryState state)
{
    switch (state) {
      case RecoveryState::Healthy:   return "healthy";
      case RecoveryState::Backoff:   return "backoff";
      case RecoveryState::Degraded:  return "degraded";
      case RecoveryState::Recovered: return "recovered";
    }
    return "?";
}

namespace detail
{

namespace
{

/** Warn with the stuck worker/bin ids and record a WatchdogStall. */
void
reportStall(const TourMonitorSpec &spec)
{
    std::uint64_t stalled = 0;
    std::int64_t firstStuckBin = kWorkerIdle;
    std::ostringstream who;
    if (spec.currentBin) {
        for (unsigned w = 0; w < spec.workers; ++w) {
            const std::int64_t bin =
                spec.currentBin[w].load(std::memory_order_relaxed);
            if (bin == kWorkerDone)
                continue;
            ++stalled;
            if (who.tellp() > 0)
                who << ", ";
            if (bin == kWorkerIdle)
                who << "worker " << w << " (between bins)";
            else
                who << "worker " << w << " (bin " << bin << ")";
            if (firstStuckBin == kWorkerIdle && bin >= 0)
                firstStuckBin = bin;
        }
    }
    LSCHED_WARN("runParallel watchdog: tour still running after ",
                spec.watchdogMillis, " ms deadline; ", stalled,
                " worker(s) busy: ", who.str());
    LSCHED_TRACE_EVENT(
        obs::EventType::WatchdogStall, stalled,
        firstStuckBin >= 0 ? static_cast<std::uint64_t>(firstStuckBin)
                           : 0,
        spec.watchdogMillis);
}

} // namespace

TourMonitor::TourMonitor(const TourMonitorSpec &spec)
    : spec_(spec)
{
    if (spec_.deadlineMillis == 0 && spec_.watchdogMillis == 0)
        return;
    const bool cancels =
        spec_.deadlineMillis > 0 ||
        spec_.watchdogAction == WatchdogAction::Cancel;
    LSCHED_ASSERT(!cancels || spec_.cancel != nullptr,
                  "tour monitor that cancels needs a token");
    monitor_ = std::thread(&TourMonitor::body, this);
}

TourMonitor::~TourMonitor()
{
    if (monitor_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        cv_.notify_one();
        monitor_.join();
    }
}

void
TourMonitor::body()
{
    if (obs::traceOn())
        obs::TraceSession::global().setLaneName("monitor");
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    bool deadlineArmed = spec_.deadlineMillis > 0;
    Clock::time_point deadlineAt =
        start + std::chrono::milliseconds(spec_.deadlineMillis);
    bool watchdogArmed = spec_.watchdogMillis > 0;
    const auto watchdogPeriod =
        std::chrono::milliseconds(spec_.watchdogMillis);
    Clock::time_point watchdogAt = start + watchdogPeriod;

    std::unique_lock<std::mutex> lock(mutex_);
    while (!done_) {
        if (!deadlineArmed && !watchdogArmed) {
            // Both triggers consumed; hold on until the tour joins us.
            cv_.wait(lock, [&] { return done_; });
            return;
        }
        Clock::time_point wake;
        if (deadlineArmed && watchdogArmed)
            wake = std::min(deadlineAt, watchdogAt);
        else
            wake = deadlineArmed ? deadlineAt : watchdogAt;
        if (cv_.wait_until(lock, wake, [&] { return done_; }))
            return;

        const Clock::time_point now = Clock::now();
        if (deadlineArmed && now >= deadlineAt) {
            deadlineArmed = false;
            LSCHED_WARN("tour deadline: still running after ",
                        spec_.deadlineMillis,
                        " ms; requesting cooperative cancellation");
            LSCHED_TRACE_EVENT(
                obs::EventType::DeadlineExpire, spec_.deadlineMillis,
                static_cast<std::uint64_t>(CancelReason::Deadline), 0);
            if (spec_.recovery) {
                spec_.recovery->deadlines.fetch_add(
                    1, std::memory_order_relaxed);
            }
            spec_.cancel->request(CancelReason::Deadline);
        }
        if (watchdogArmed && now >= watchdogAt) {
            reportStall(spec_);
            if (spec_.watchdogAction == WatchdogAction::Cancel) {
                watchdogArmed = false;
                if (spec_.recovery) {
                    spec_.recovery->watchdogCancels.fetch_add(
                        1, std::memory_order_relaxed);
                }
                spec_.cancel->request(CancelReason::Watchdog);
            } else {
                watchdogAt += watchdogPeriod;
            }
        }
    }
}

} // namespace detail

void
OverloadGovernor::configure(unsigned overloadEpochs,
                            unsigned recoverEpochs,
                            detail::RecoveryStats *stats)
{
    std::lock_guard<std::mutex> lock(mutex_);
    overloadEpochs_ = overloadEpochs;
    recoverEpochs_ = std::max(1u, recoverEpochs);
    stats_ = stats;
    state_ = RecoveryState::Healthy;
    streak_ = 0;
}

bool
OverloadGovernor::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overloadEpochs_ > 0;
}

RecoveryState
OverloadGovernor::state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

bool
OverloadGovernor::degraded() const
{
    return state() == RecoveryState::Degraded;
}

RecoveryState
OverloadGovernor::observe(bool overloaded)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (overloadEpochs_ == 0)
        return state_;
    const RecoveryState old = state_;
    switch (state_) {
      case RecoveryState::Healthy:
      case RecoveryState::Recovered:
        if (overloaded) {
            streak_ = 1;
            state_ = streak_ >= overloadEpochs_
                         ? RecoveryState::Degraded
                         : RecoveryState::Backoff;
        } else {
            streak_ = 0;
            state_ = RecoveryState::Healthy;
        }
        break;
      case RecoveryState::Backoff:
        if (overloaded) {
            if (++streak_ >= overloadEpochs_)
                state_ = RecoveryState::Degraded;
        } else {
            streak_ = 0;
            state_ = RecoveryState::Healthy;
        }
        break;
      case RecoveryState::Degraded:
        if (overloaded) {
            streak_ = 0;
        } else if (++streak_ >= recoverEpochs_) {
            state_ = RecoveryState::Recovered;
            if (stats_) {
                stats_->recoveries.fetch_add(1,
                                             std::memory_order_relaxed);
            }
        }
        break;
    }
    if (state_ != old) {
        if (state_ == RecoveryState::Degraded)
            streak_ = 0;
        LSCHED_WARN("overload governor: ", recoveryStateName(old),
                    " -> ", recoveryStateName(state_));
        LSCHED_TRACE_EVENT(obs::EventType::RecoveryStep,
                           static_cast<std::uint64_t>(state_),
                           static_cast<std::uint64_t>(old), streak_);
    }
    return state_;
}

} // namespace lsched::threads
