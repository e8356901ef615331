#include "tour.hh"

#include <algorithm>

namespace lsched::threads
{

std::vector<Bin *>
groupBySuperBins(std::vector<Bin *> bins)
{
    // kNoSuperBin is the maximum id, so ungrouped bins sort last.
    std::stable_sort(bins.begin(), bins.end(),
                     [](const Bin *a, const Bin *b) {
                         return a->superBin < b->superBin;
                     });
    return bins;
}

std::uint64_t
tourLength(const std::vector<Bin *> &bins, unsigned dims)
{
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < bins.size(); ++i) {
        for (unsigned d = 0; d < dims; ++d) {
            const std::uint64_t a = bins[i - 1]->coords[d];
            const std::uint64_t b = bins[i]->coords[d];
            total += a > b ? a - b : b - a;
        }
    }
    return total;
}

} // namespace lsched::threads
