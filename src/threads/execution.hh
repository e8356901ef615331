/**
 * @file
 * The execution layer: *how* an ordered bin tour is run.
 *
 * Complementing the placement layer (placement.hh — where a fork
 * goes), a tour (the ready list, in creation order) runs every bin
 * exactly once, all of them through the one executeBin() routine
 * (bin_exec.hh), on one of two backends:
 *
 *  - serial — the caller walks the tour in order (runSerialTour(),
 *    the body of run(keep = true));
 *  - pooled — the persistent work-stealing pool (worker_pool.hh):
 *    workers parked between tours, occupancy-weighted contiguous
 *    partition, tail stealing. runParallel() (defined in
 *    execution.cc) builds the pool job and dispatches it.
 *
 * SchedulerConfig::backend picks between them for runParallel() and
 * streamBegin(); there is no backend object — the two call sites
 * branch on the kind.
 */

#ifndef LSCHED_THREADS_EXECUTION_HH
#define LSCHED_THREADS_EXECUTION_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "threads/bin.hh"
#include "threads/fault.hh"

namespace lsched::threads
{

/** Selectable execution backends (SchedulerConfig::backend). */
enum class BackendKind : std::uint8_t
{
    /** The caller walks the tour alone (no helper threads). */
    Serial,
    /** Persistent work-stealing worker pool (the default). */
    Pooled,
};

/** Printable name of a backend ("serial", "pooled"). */
const char *backendName(BackendKind kind);

/** Parse a backend name; false (and *out untouched) when unknown. */
bool tryBackendFromName(const std::string &name, BackendKind *out);

namespace detail
{

/**
 * Walk @p tour in order on the caller, every bin through executeBin()
 * as worker 0, stopping at the first stop/cancel request; a cancelled
 * walk accounts the un-walked tail (noteCancelledBin) exactly as the
 * pool's post-join sweep does. Returns the threads completed.
 */
std::uint64_t runSerialTour(const std::vector<Bin *> &tour,
                            FaultCtx &fault);

/**
 * CLI overrides installed by --placement/--backend/--sched
 * (support/cli.hh's sched hook, registered from execution.cc's static
 * initializer). An ordered list of config (key, value) pairs — the
 * dedicated flags become their "placement"/"backend" keys, --sched
 * pairs follow in the order given, later entries winning — already
 * validated against applyConfigKey() at parse time. SchedulerConfig
 * validation replays the list onto every scheduler configured
 * afterwards; empty when no flag was given.
 */
const std::vector<std::pair<std::string, std::string>> &schedOverrides();

} // namespace detail

} // namespace lsched::threads

#endif // LSCHED_THREADS_EXECUTION_HH
