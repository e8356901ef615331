#include "tour.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace lsched::threads
{

bool
tryTourFromName(const std::string &name, TourPolicy *out)
{
    if (name == "creation")
        *out = TourPolicy::CreationOrder;
    else if (name == "snake")
        *out = TourPolicy::SortedSnake;
    else if (name == "nearest")
        *out = TourPolicy::NearestNeighbor;
    else if (name == "hilbert")
        *out = TourPolicy::Hilbert;
    else
        return false;
    return true;
}

const char *
tourPolicyName(TourPolicy policy)
{
    switch (policy) {
      case TourPolicy::CreationOrder:
        return "creation";
      case TourPolicy::SortedSnake:
        return "snake";
      case TourPolicy::NearestNeighbor:
        return "nearest";
      case TourPolicy::Hilbert:
        return "hilbert";
    }
    return "?";
}

namespace
{

/** Lexicographic compare over the first @p dims coordinates. */
bool
lexLess(const Bin *a, const Bin *b, unsigned dims)
{
    for (unsigned d = 0; d < dims; ++d) {
        if (a->coords[d] != b->coords[d])
            return a->coords[d] < b->coords[d];
    }
    return false;
}

std::vector<Bin *>
snakeOrder(std::vector<Bin *> bins, unsigned dims)
{
    std::sort(bins.begin(), bins.end(),
              [dims](const Bin *a, const Bin *b) {
                  return lexLess(a, b, dims);
              });
    if (dims < 2)
        return bins;
    // Reverse the direction of the last dimension within each run of
    // equal leading coordinates, alternating run to run (boustrophedon)
    // so consecutive bins stay adjacent.
    std::size_t run_start = 0;
    bool reverse = false;
    auto same_leading = [dims](const Bin *a, const Bin *b) {
        for (unsigned d = 0; d + 1 < dims; ++d)
            if (a->coords[d] != b->coords[d])
                return false;
        return true;
    };
    for (std::size_t i = 1; i <= bins.size(); ++i) {
        if (i == bins.size() ||
            !same_leading(bins[run_start], bins[i])) {
            if (reverse) {
                std::reverse(bins.begin() +
                                 static_cast<std::ptrdiff_t>(run_start),
                             bins.begin() + static_cast<std::ptrdiff_t>(i));
            }
            reverse = !reverse;
            run_start = i;
        }
    }
    return bins;
}

std::vector<Bin *>
nearestNeighborOrder(std::vector<Bin *> bins, unsigned dims)
{
    if (bins.size() < 3)
        return bins;
    std::vector<Bin *> tour;
    tour.reserve(bins.size());
    std::vector<bool> used(bins.size(), false);
    std::size_t current = 0;
    used[0] = true;
    tour.push_back(bins[0]);
    for (std::size_t step = 1; step < bins.size(); ++step) {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        std::size_t pick = 0;
        for (std::size_t j = 0; j < bins.size(); ++j) {
            if (used[j])
                continue;
            std::uint64_t dist = 0;
            for (unsigned d = 0; d < dims; ++d) {
                const std::uint64_t a = bins[current]->coords[d];
                const std::uint64_t b = bins[j]->coords[d];
                dist += a > b ? a - b : b - a;
            }
            if (dist < best) {
                best = dist;
                pick = j;
            }
        }
        used[pick] = true;
        current = pick;
        tour.push_back(bins[pick]);
    }
    return tour;
}

/** xy -> distance along a 2^order Hilbert curve (classic bit walk). */
std::uint64_t
hilbertD(std::uint64_t x, std::uint64_t y, unsigned order)
{
    std::uint64_t rx, ry, d = 0;
    for (std::uint64_t s = std::uint64_t{1} << (order - 1); s > 0;
         s >>= 1) {
        rx = (x & s) ? 1 : 0;
        ry = (y & s) ? 1 : 0;
        d += s * s * ((3 * rx) ^ ry);
        // Rotate quadrant.
        if (ry == 0) {
            if (rx == 1) {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::swap(x, y);
        }
    }
    return d;
}

std::vector<Bin *>
hilbertOrder(std::vector<Bin *> bins, unsigned dims)
{
    if (dims != 2)
        return snakeOrder(std::move(bins), dims);
    std::uint64_t max_coord = 1;
    for (const Bin *b : bins)
        max_coord = std::max({max_coord, b->coords[0], b->coords[1]});
    unsigned order = 1;
    while ((std::uint64_t{1} << order) <= max_coord)
        ++order;
    std::sort(bins.begin(), bins.end(),
              [order](const Bin *a, const Bin *b) {
                  return hilbertD(a->coords[0], a->coords[1], order) <
                         hilbertD(b->coords[0], b->coords[1], order);
              });
    return bins;
}

} // namespace

std::vector<Bin *>
orderBins(TourPolicy policy, std::vector<Bin *> bins, unsigned dims)
{
    switch (policy) {
      case TourPolicy::CreationOrder:
        return bins;
      case TourPolicy::SortedSnake:
        return snakeOrder(std::move(bins), dims);
      case TourPolicy::NearestNeighbor:
        return nearestNeighborOrder(std::move(bins), dims);
      case TourPolicy::Hilbert:
        return hilbertOrder(std::move(bins), dims);
    }
    return bins;
}

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
