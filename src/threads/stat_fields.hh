/**
 * @file
 * The scheduler's statistics surface as one descriptor table.
 *
 * The scheduler counts every event once, in its own always-on state
 * (SchedulerStats and the config); every outside view is derived from
 * the rows here: th_stats() fills the frozen th_stats_t from the rows
 * that carry a struct member, th_stats_() copies those same rows into
 * a Fortran array in th_stats_t declaration order, th_metric_* reads
 * every row by name, and LocalityScheduler::publishMetrics() sets
 * every row as an obs registry gauge. A new statistic needs one row.
 *
 * The registry holds no copy of these counts: a gauge under a row's
 * name is the lifetime value of whichever scheduler published last
 * (the default scheduler's value is what th_metric_get returns).
 */

#ifndef LSCHED_THREADS_STAT_FIELDS_HH
#define LSCHED_THREADS_STAT_FIELDS_HH

#include <cstdint>
#include <span>

struct th_stats_t;

namespace lsched::threads
{

struct SchedulerConfig;
struct SchedulerStats;

/** One statistic; see the file comment. */
struct StatField
{
    /** Registry / th_metric_* name ("sched.stream.seals"). */
    const char *name;
    /** The value as the named surfaces carry it (reals rounded). */
    std::uint64_t (*value)(const SchedulerStats &,
                           const SchedulerConfig &);
    /** Store the value in its th_stats_t member, in the member's own
     *  type; null for a row th_stats_t does not carry. */
    void (*fill)(th_stats_t &, const SchedulerStats &,
                 const SchedulerConfig &);
};

/**
 * Every row: first the 41 th_stats_t carries, in its declaration
 * order, then the ones only the named surfaces carry.
 */
std::span<const StatField> statFields();

} // namespace lsched::threads

#endif // LSCHED_THREADS_STAT_FIELDS_HH
