/**
 * @file
 * THE bin-execution routine — the mechanism half of the scheduler.
 *
 * Every path that runs a bin's threads routes through executeBin():
 * the serial run() (streaming and keep), every parallel backend
 * (execution.hh), and the stream drain (stream.hh). ErrorPolicy
 * containment, BinStart/ThreadStart/ThreadEnd/BinEnd tracing, the
 * per-bin dwell metrics, and the "sched.bin.execute" fail-point site
 * therefore live in exactly one place.
 *
 * The call sites differ only in where the thread-group chain comes
 * from (a ready bin or a sealed stream epoch), so the routine walks a
 * GroupCursor. It stays header-inline so all three call sites compile
 * to the same loop.
 */

#ifndef LSCHED_THREADS_BIN_EXEC_HH
#define LSCHED_THREADS_BIN_EXEC_HH

#include "obs/profile.hh"
#include "obs/trace.hh"
#include "support/failpoint.hh"
#include "threads/bin.hh"
#include "threads/fault.hh"
#include "threads/sched_obs.hh"
#include "threads/thread_group.hh"

namespace lsched::threads::detail
{

/** Cursor over a thread-group chain (a bin's, or a sealed streaming
 *  epoch's), in fork order. */
class GroupCursor
{
  public:
    explicit GroupCursor(ThreadGroup *head) : group_(head) {}

    /** Counts and links are re-read each step so threads forked into
     *  this very bin during execution (nested fork) are picked up. */
    bool
    next()
    {
        while (group_) {
            if (index_ < group_->count) {
                current_ = &group_->specs[index_++];
                return true;
            }
            group_ = group_->next;
            index_ = 0;
        }
        return false;
    }

    /** Run the current thread. May throw — containment is the
     *  caller branch's job, per ctx.policy. */
    void
    run()
    {
        current_->fn(current_->arg1, current_->arg2);
    }

  private:
    ThreadGroup *group_;
    std::uint32_t index_ = 0;
    const ThreadSpec *current_ = nullptr;
};

/**
 * Execute one bin's threads off @p cursor on @p worker.
 *
 * @p announced is the thread count recorded in the BinStart event (the
 * bin's thread count; nested forks may run more). Behavior splits on
 * ctx.policy:
 *
 *  - Abort: no containment — the historic fast path. An escaped
 *    exception (or the "sched.bin.execute" fail point, which fires
 *    before any per-bin event) propagates to the caller.
 *  - StopTour / ContinueAndCollect: each thread runs under a try/catch;
 *    faults are recorded through noteFault(). Under StopTour the rest
 *    of the bin is skipped after the first fault.
 *
 * @p superBin and @p streamEpoch only feed the profiling attribution
 * (obs/profile.hh): callers that know the bin's super-bin or the
 * stream seal epoch pass them so online miss rates aggregate the same
 * way placement did.
 *
 * Returns the number of threads that completed.
 */
inline std::uint64_t
executeBin(std::uint32_t binId, std::uint64_t announced, FaultCtx &ctx,
           unsigned worker, GroupCursor cursor,
           std::uint32_t superBin = obs::kProfileNoSuperBin,
           std::uint32_t streamEpoch = obs::kProfileCurrentEpoch)
{
    // One pointer test when no deadline/watchdog token is armed; with
    // a token, one relaxed load per user thread — the cooperative
    // cancellation boundary the recovery layer relies on.
    const CancelToken *cancelTok = ctx.cancel;
    const auto cancelled = [cancelTok] {
        return cancelTok && cancelTok->requested();
    };
    const bool contain = ctx.policy != ErrorPolicy::Abort;
    if (!contain) {
        // Under ErrorPolicy::Abort this injected failure propagates
        // like any user-thread exception would (the contained branch
        // below instead records it, after BinStart — matching where a
        // real failure at the top of bin execution would surface).
        LSCHED_FAILPOINT("sched.bin.execute");
    }

    const bool traced = obs::traceOn();
    const bool metered = obs::metricsOn();
    const std::uint64_t t0 = (traced || metered) ? obs::nowNs() : 0;
    const obs::ProfileToken ptok = obs::profileBinBegin();

    std::uint64_t executed = 0;
    if (traced) {
        obs::TraceSession::global().record(obs::EventType::BinStart,
                                           binId, announced);
    }

    // Faults of user threads: each one consumed a thread.
    std::uint64_t faulted = 0;
    if (!contain) {
        if (traced) {
            obs::TraceSession &session = obs::TraceSession::global();
            while (!cancelled() && cursor.next()) {
                session.record(obs::EventType::ThreadStart, binId);
                cursor.run();
                ++executed;
                session.record(obs::EventType::ThreadEnd, binId);
            }
        } else {
            while (!cancelled() && cursor.next()) {
                cursor.run();
                ++executed;
            }
        }
    } else {
        bool stopped = false;
        try {
            LSCHED_FAILPOINT("sched.bin.execute");
        } catch (...) {
            // Recorded, but it ran no thread: a cancelled tail below
            // still counts every thread the bin did not get to.
            noteFault(ctx, binId, worker);
            stopped = ctx.policy == ErrorPolicy::StopTour;
        }
        while (!stopped && !cancelled() && cursor.next()) {
            try {
                if (traced) {
                    obs::TraceSession::global().record(
                        obs::EventType::ThreadStart, binId);
                }
                cursor.run();
                ++executed;
                if (traced) {
                    obs::TraceSession::global().record(
                        obs::EventType::ThreadEnd, binId);
                }
            } catch (...) {
                noteFault(ctx, binId, worker);
                ++faulted;
                if (ctx.policy == ErrorPolicy::StopTour)
                    stopped = true;
            }
        }
    }
    if (cancelled() && announced > executed + faulted) {
        // The cancellation cut this bin short mid-flight: account the
        // un-run tail (bins never claimed are swept by the backends).
        noteCancelledBin(ctx, binId, worker,
                         announced - executed - faulted);
    }

    obs::profileBinEnd(ptok, binId, superBin, executed, worker,
                       streamEpoch);
    if (traced) {
        obs::TraceSession::global().record(obs::EventType::BinEnd,
                                           binId, executed);
    }
    if (metered) {
        const SchedInstruments &ins = schedInstruments();
        ins.threadsPerBin->record(executed);
        ins.binDwellNs->record(obs::nowNs() - t0);
    }
    return executed;
}

/** Execute all threads currently scheduled in @p bin. */
inline std::uint64_t
executeBin(Bin *bin, FaultCtx &ctx, unsigned worker)
{
    return executeBin(bin->id, bin->threadCount, ctx, worker,
                      GroupCursor(bin->groupsHead), bin->superBin);
}

} // namespace lsched::threads::detail

#endif // LSCHED_THREADS_BIN_EXEC_HH
