/**
 * @file
 * Helpers over a bin tour.
 *
 * The paper traverses bins "along some path, preferably the shortest
 * one" but implements creation order: bins run in ready-list order
 * (§2.3, §3.2), and so does this scheduler. tourLength() measures
 * that path; groupBySuperBins() regroups it for the topology-aware
 * parallel partitioner.
 */

#ifndef LSCHED_THREADS_TOUR_HH
#define LSCHED_THREADS_TOUR_HH

#include <cstdint>
#include <vector>

#include "threads/bin.hh"

namespace lsched::threads
{

/**
 * Total tour length under the L1 (Manhattan) metric in block
 * coordinates — the quantity a "shortest tour" would minimize.
 */
std::uint64_t tourLength(const std::vector<Bin *> &bins, unsigned dims);

/**
 * Regroup an ordered tour so every super-bin's bins are contiguous
 * (TopologyPlacement): stable sort by super-bin id, so the tour
 * order within each super-bin — and among bins without one, which
 * sort last — is preserved. The parallel partitioner can then hand
 * whole super-bins to one worker (PoolJob::honorSuperBins).
 */
std::vector<Bin *> groupBySuperBins(std::vector<Bin *> bins);

} // namespace lsched::threads

#endif // LSCHED_THREADS_TOUR_HH
