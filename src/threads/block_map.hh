/**
 * @file
 * The block map: hint addresses -> block coordinates in the
 * k-dimensional scheduling space (paper Section 2.3).
 *
 * The space is divided into equally sized blocks whose dimension sizes
 * sum to (at most) the cache size, so all data of the threads in one
 * block fits in the cache. The default dimension size is cache/k. A
 * power-of-two dimension reduces the mapping to a shift, matching the
 * paper's "shift and mask" default hash.
 */

#ifndef LSCHED_THREADS_BLOCK_MAP_HH
#define LSCHED_THREADS_BLOCK_MAP_HH

#include <algorithm>
#include <cstdint>
#include <span>

#include "support/align.hh"
#include "support/panic.hh"
#include "threads/hints.hh"

namespace lsched::threads
{

/** Maps hint vectors to block coordinates. */
class BlockMap
{
  public:
    /**
     * @param dims dimensionality k of the scheduling space (1..kMaxDims).
     * @param block_bytes size of each block dimension in bytes.
     * @param symmetric fold symmetric hint permutations into one block
     *        (paper Section 2.3: (h_i, h_j) and (h_j, h_i) reference
     *        the same data, halving the bins).
     */
    BlockMap(unsigned dims, std::uint64_t block_bytes,
             bool symmetric = false)
        : dims_(dims), blockBytes_(block_bytes), symmetric_(symmetric)
    {
        LSCHED_ASSERT(dims_ >= 1 && dims_ <= kMaxDims,
                      "dims must be in [1, ", kMaxDims, "], got ", dims_);
        LSCHED_ASSERT(blockBytes_ > 0, "block size must be positive");
        shift_ = isPowerOfTwo(blockBytes_)
                     ? static_cast<int>(floorLog2(blockBytes_))
                     : -1;
    }

    /**
     * Compute the block coordinates of @p hints (missing trailing
     * dimensions behave as hint 0, per the paper's th_fork).
     */
    BlockCoords
    coordsFor(std::span<const Hint> hints) const
    {
        BlockCoords c{};
        const unsigned n =
            std::min<unsigned>(dims_, static_cast<unsigned>(hints.size()));
        if (shift_ >= 0) {
            for (unsigned d = 0; d < n; ++d)
                c[d] = static_cast<std::uint64_t>(hints[d]) >> shift_;
        } else {
            for (unsigned d = 0; d < n; ++d)
                c[d] = static_cast<std::uint64_t>(hints[d]) / blockBytes_;
        }
        if (symmetric_) {
            // Insertion sort: dims_ <= kMaxDims (8), and this avoids
            // a GCC 12 -Warray-bounds false positive in std::sort.
            for (unsigned i = 1; i < dims_ && i < kMaxDims; ++i) {
                const std::uint64_t v = c[i];
                unsigned j = i;
                while (j > 0 && c[j - 1] > v) {
                    c[j] = c[j - 1];
                    --j;
                }
                c[j] = v;
            }
        }
        return c;
    }

    /** Dimensionality k. */
    unsigned dims() const { return dims_; }

    /** Block dimension size in bytes. */
    std::uint64_t blockBytes() const { return blockBytes_; }

    /** Whether symmetric folding is enabled. */
    bool symmetric() const { return symmetric_; }

    /** log2 of the block size when it is a power of two (the mapping
     *  is then a shift), else -1. */
    int shift() const { return shift_; }

  private:
    unsigned dims_;
    std::uint64_t blockBytes_;
    bool symmetric_;
    int shift_;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_BLOCK_MAP_HH
