/**
 * @file
 * The descriptor table behind statFields(): one row per statistic;
 * see stat_fields.hh for the contract.
 */

#include "threads/stat_fields.hh"

#include <cmath>
#include <type_traits>

#include "threads/c_api.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

using T = th_stats_t;
using S = SchedulerStats;
using C = SchedulerConfig;

/** Integer view of a read: counts verbatim, codes cast, reals
 *  rounded to the nearest integer. */
template <class V>
std::uint64_t
asCount(V v)
{
    if constexpr (std::is_floating_point_v<V>)
        return static_cast<std::uint64_t>(std::llround(v));
    else
        return static_cast<std::uint64_t>(v);
}

/** A row th_stats_t carries in member @p Slot. @p Read is a
 *  captureless lambda over (SchedulerStats, SchedulerConfig). */
template <auto Slot, class Read>
constexpr StatField
carried(const char *name, Read)
{
    return {name,
            [](const S &s, const C &c) { return asCount(Read{}(s, c)); },
            [](T &out, const S &s, const C &c) {
                using Member = std::remove_reference_t<decltype(out.*Slot)>;
                out.*Slot = static_cast<Member>(Read{}(s, c));
            }};
}

/** A row only the named surfaces (registry, th_metric_*) carry. */
template <class Read>
constexpr StatField
named(const char *name, Read)
{
    return {name,
            [](const S &s, const C &c) { return asCount(Read{}(s, c)); },
            nullptr};
}

/** A moment of the threads-per-bin distribution; 0 with no bin. */
double
perBin(const S &s, double (Summary::*moment)() const)
{
    return s.threadsPerBin.count() > 0 ? (s.threadsPerBin.*moment)()
                                       : 0.0;
}

const StatField kFields[] = {
    carried<&T::pending_threads>("sched.pending_threads",
        [](auto &s, auto &) { return s.pendingThreads; }),
    carried<&T::executed_threads>("sched.executed_threads",
        [](auto &s, auto &) { return s.executedThreads; }),
    carried<&T::bins>("sched.bins", [](auto &s, auto &) { return s.bins; }),
    carried<&T::occupied_bins>("sched.bins.occupied",
        [](auto &s, auto &) { return s.occupiedBins; }),
    carried<&T::max_hash_chain>("sched.hash.max_chain",
        [](auto &s, auto &) { return s.maxHashChain; }),
    carried<&T::tour_length>("sched.tour.length",
        [](auto &s, auto &) { return s.tourLength; }),
    carried<&T::pool_threads_spawned>("sched.pool.threads",
        [](auto &s, auto &) { return s.pool.threadsSpawned; }),
    carried<&T::pool_steals>("sched.pool.steals",
        [](auto &s, auto &) { return s.pool.steals; }),
    carried<&T::pool_parks>("sched.pool.parks",
        [](auto &s, auto &) { return s.pool.parks; }),
    carried<&T::placement>("sched.placement",
        [](auto &, auto &c) { return c.placement; }),
    carried<&T::backend>("sched.backend",
        [](auto &, auto &c) { return c.backend; }),
    carried<&T::threads_per_bin_mean>("sched.bin.threads.mean",
        [](auto &s, auto &) { return perBin(s, &Summary::mean); }),
    carried<&T::threads_per_bin_min>("sched.bin.threads.min",
        [](auto &s, auto &) { return perBin(s, &Summary::min); }),
    carried<&T::threads_per_bin_max>("sched.bin.threads.max",
        [](auto &s, auto &) { return perBin(s, &Summary::max); }),
    carried<&T::threads_per_bin_stddev>("sched.bin.threads.stddev",
        [](auto &s, auto &) { return perBin(s, &Summary::stddev); }),
    carried<&T::faulted_threads>("sched.faulted_threads",
        [](auto &s, auto &) { return s.faultedThreads; }),
    carried<&T::last_fault_count>("sched.last_fault_count",
        [](auto &s, auto &) { return s.lastFaultCount; }),
    carried<&T::stream_forked>("sched.stream.forked",
        [](auto &s, auto &) { return s.stream.forked; }),
    carried<&T::stream_executed>("sched.stream.executed",
        [](auto &s, auto &) { return s.stream.executed; }),
    carried<&T::stream_seals>("sched.stream.seals",
        [](auto &s, auto &) { return s.stream.seals; }),
    carried<&T::stream_backpressure_waits>("sched.stream.backpressure",
        [](auto &s, auto &) { return s.stream.backpressureWaits; }),
    carried<&T::stream_inline_drains>("sched.stream.inline_drains",
        [](auto &s, auto &) { return s.stream.inlineDrains; }),
    carried<&T::stream_backlog>("sched.stream.backlog",
        [](auto &s, auto &) { return s.stream.backlog; }),
    carried<&T::stream_peak_backlog>("sched.stream.peak_backlog",
        [](auto &s, auto &) { return s.stream.peakBacklog; }),
    carried<&T::recover_deadlines>("sched.recover.deadlines",
        [](auto &s, auto &) { return s.recover.deadlines; }),
    carried<&T::recover_watchdog_cancels>("sched.recover.watchdog_cancels",
        [](auto &s, auto &) { return s.recover.watchdogCancels; }),
    carried<&T::recover_cancelled_bins>("sched.recover.cancelled_bins",
        [](auto &s, auto &) { return s.recover.cancelledBins; }),
    carried<&T::recover_cancelled_threads>("sched.recover.cancelled_threads",
        [](auto &s, auto &) { return s.recover.cancelledThreads; }),
    carried<&T::recover_admission_retries>("sched.recover.admission_retries",
        [](auto &s, auto &) { return s.recover.admissionRetries; }),
    carried<&T::recover_admission_timeouts>("sched.recover.admission_timeouts",
        [](auto &s, auto &) { return s.recover.admissionTimeouts; }),
    carried<&T::recover_load_sheds>("sched.recover.load_sheds",
        [](auto &s, auto &) { return s.recover.loadSheds; }),
    carried<&T::recover_degraded_tours>("sched.recover.degraded_tours",
        [](auto &s, auto &) { return s.recover.degradedTours; }),
    carried<&T::recover_recoveries>("sched.recover.recoveries",
        [](auto &s, auto &) { return s.recover.recoveries; }),
    carried<&T::recover_state>("sched.recover.state",
        [](auto &s, auto &) { return s.recover.state; }),
    carried<&T::adapt_retunes>("sched.adapt.retunes",
        [](auto &s, auto &) { return s.adapt.retunes; }),
    carried<&T::adapt_observations>("sched.adapt.observations",
        [](auto &s, auto &) { return s.adapt.observations; }),
    carried<&T::adapt_block_bytes>("sched.adapt.block_bytes",
        [](auto &s, auto &) { return s.adapt.blockBytes; }),
    carried<&T::adapt_super_bin_fan>("sched.adapt.super_bin_fan",
        [](auto &s, auto &) { return s.adapt.superBinFan; }),
    carried<&T::adapt_regime>("sched.adapt.regime",
        [](auto &s, auto &) { return s.adapt.regime; }),
    carried<&T::pool_pin_failed>("sched.pool.pin_failed",
        [](auto &s, auto &) { return s.pool.pinFailed; }),
    carried<&T::pool_cross_domain_steals>("sched.pool.cross_steals",
        [](auto &s, auto &) { return s.pool.crossSteals; }),

    // Rows past the frozen th_stats_t.
    named("sched.forked_threads",
        [](auto &s, auto &) { return s.forkedThreads; }),
    named("sched.runs", [](auto &s, auto &) { return s.runs; }),
    named("sched.bins.created",
        [](auto &s, auto &) { return s.binsCreated; }),
    named("sched.pool.tours", [](auto &s, auto &) { return s.pool.tours; }),
    named("sched.stream.drain_parks",
        [](auto &s, auto &) { return s.stream.drainParks; }),
    named("sched.recover.deadline_millis",
        [](auto &, auto &c) { return c.deadlineMillis; }),
    named("sched.adapt.shrinks",
        [](auto &s, auto &) { return s.adapt.shrinks; }),
    named("sched.adapt.grows", [](auto &s, auto &) { return s.adapt.grows; }),
    named("sched.adapt.reverts",
        [](auto &s, auto &) { return s.adapt.reverts; }),
    named("sched.adapt.no_signal",
        [](auto &s, auto &) { return s.adapt.noSignal; }),
    named("sched.topology.l2_groups",
        [](auto &s, auto &) { return s.topology.l2Groups; }),
    named("sched.topology.domains",
        [](auto &s, auto &) { return s.topology.domains; }),
    named("sched.topology.domain_workers",
        [](auto &s, auto &) { return s.topology.domainWorkers; }),
    named("sched.topology.cross_steals",
        [](auto &s, auto &) { return s.pool.crossSteals; }),
};

} // namespace

std::span<const StatField>
statFields()
{
    return kFields;
}

} // namespace lsched::threads
