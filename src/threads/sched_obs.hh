/**
 * @file
 * Internal observability glue for the locality scheduler: the cached
 * registry histograms shared by scheduler.cc, the execution backends
 * and the stream, plus the tour-hop helpers. The instrumented
 * bin-execution loop itself lives in bin_exec.hh.
 *
 * The registry holds only the three distributions no scheduler
 * statistic can carry (threads per bin, bin dwell time, tour hop
 * distance), each recorded once per bin or per tour, never per fork.
 * Every count lives in SchedulerStats alone and reaches the registry
 * as a gauge through stat_fields.hh.
 *
 * Everything here is gated on obs::metricsOn(); with the
 * LSCHED_TRACE_ENABLED build option off that folds to constant false
 * and the instrumented branches compile away, leaving the original
 * tight loops.
 */

#ifndef LSCHED_THREADS_SCHED_OBS_HH
#define LSCHED_THREADS_SCHED_OBS_HH

#include <vector>

#include "obs/registry.hh"
#include "obs/trace.hh"
#include "threads/bin.hh"
#include "threads/fault.hh"

namespace lsched::threads::detail
{

/** The scheduler's registry histograms, resolved once. */
struct SchedInstruments
{
    obs::Histogram *threadsPerBin;
    obs::Histogram *binDwellNs;
    obs::Histogram *tourHop;
};

/** Lazily resolved singleton (defined in scheduler.cc). */
const SchedInstruments &schedInstruments();

/** Manhattan distance between two bins' block coordinates. */
inline std::uint64_t
hopDistance(const Bin *from, const Bin *to, unsigned dims)
{
    std::uint64_t hop = 0;
    for (unsigned d = 0; d < dims; ++d) {
        const std::uint64_t a = from->coords[d];
        const std::uint64_t b = to->coords[d];
        hop += a > b ? a - b : b - a;
    }
    return hop;
}

/** Histogram every hop of an ordered tour (metrics path). */
inline void
recordTourHops(const std::vector<Bin *> &tour, unsigned dims)
{
    obs::Histogram *h = schedInstruments().tourHop;
    for (std::size_t i = 1; i < tour.size(); ++i)
        h->record(hopDistance(tour[i - 1], tour[i], dims));
}

} // namespace lsched::threads::detail

#endif // LSCHED_THREADS_SCHED_OBS_HH
