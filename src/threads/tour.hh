/**
 * @file
 * Bin tour strategies.
 *
 * The paper traverses bins "along some path, preferably the shortest
 * one" but implements creation order (the ready list). The alternative
 * tours here quantify how much the traversal order matters — an
 * ablation on the paper's design choice. All tours visit every ready
 * bin exactly once.
 */

#ifndef LSCHED_THREADS_TOUR_HH
#define LSCHED_THREADS_TOUR_HH

#include <string>
#include <vector>

#include "threads/bin.hh"

namespace lsched::threads
{

/** Order in which ready bins are executed. */
enum class TourPolicy
{
    /** Ready-list order — the paper's implementation. */
    CreationOrder,
    /** Lexicographic sort with alternating direction (boustrophedon). */
    SortedSnake,
    /** Greedy nearest-neighbour walk in block-coordinate space. */
    NearestNeighbor,
    /** Hilbert space-filling curve (2-D; other dims fall back to
     *  SortedSnake). */
    Hilbert,
};

/** Parse a tour name ("creation", "snake", "nearest", "hilbert");
 *  false (and *out untouched) when unknown. */
bool tryTourFromName(const std::string &name, TourPolicy *out);

/** Printable name of a policy. */
const char *tourPolicyName(TourPolicy policy);

/**
 * Order @p bins (the ready list in creation order) according to
 * @p policy for a @p dims-dimensional scheduling space.
 */
std::vector<Bin *> orderBins(TourPolicy policy,
                             std::vector<Bin *> bins, unsigned dims);

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
