/**
 * @file
 * The bin hash table (paper Section 3.2): organizes bins by hashing
 * their block coordinates. The paper's implementation chained
 * collisions off fixed buckets; here the table is open-addressing
 * with linear probing over a power-of-two slot array — one cache line
 * usually covers the whole probe sequence, where a chain walk paid a
 * dependent load per collision on the hot th_fork path. The table
 * grows (and rehashes) past 3/4 load, so the configured size
 * (th_init / SchedulerConfig) is a starting point, not a ceiling.
 */

#ifndef LSCHED_THREADS_HASH_TABLE_HH
#define LSCHED_THREADS_HASH_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "support/align.hh"
#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/bin.hh"
#include "threads/hints.hh"

namespace lsched::threads
{

/**
 * Mix the first @p dims entries of @p coords into a 64-bit hash. Each
 * coordinate is multiplied by its own odd constant — independent
 * products the CPU overlaps, where a per-dimension mixing chain
 * serialized them — and their sum gets one finalizer (MurmurHash3's
 * fmix64). A zero coordinate adds nothing, so a zero-extended key
 * hashes like its first @p dims coordinates: the batch fork hashes its
 * three coordinates whatever dims (<= 3) is. A stream seal hashes
 * once and probes every producer's table with the result.
 */
inline std::uint64_t
hashCoords(const std::uint64_t *coords, unsigned dims)
{
    static constexpr std::uint64_t kMul[kMaxDims] = {
        0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full,
        0x165667b19e3779f9ull, 0xd6e8feb86659fd93ull,
        0xff51afd7ed558ccdull, 0xc4ceb9fe1a85ec53ull,
        0xbf58476d1ce4e5b9ull, 0x94d049bb133111ebull,
    };
    std::uint64_t h = 0;
    for (unsigned d = 0; d < dims; ++d)
        h += coords[d] * kMul[d];
    h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
    h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return h ^ (h >> 33);
}

/** Owns all bins and finds them by block coordinates. */
class BinTable
{
  public:
    /** Slots below this are rounded up (headroom for early growth). */
    static constexpr std::size_t kMinSlots = 16;

    /**
     * @param dims scheduling-space dimensionality.
     * @param buckets initial slot count (rounded up to a power of
     *        two, minimum kMinSlots).
     * @param idBase offset added to every bin id, so bins from several
     *        tables (the stream producers' tables) stay
     *        distinguishable in traces and fault reports.
     */
    BinTable(unsigned dims, std::size_t buckets,
             std::uint32_t idBase = 0)
        : dims_(dims), leadMask1_(dims > 1 ? ~std::uint64_t{0} : 0),
          leadMask2_(dims > 2 ? ~std::uint64_t{0} : 0), idBase_(idBase),
          mask_(roundUpPowerOfTwo(
                    buckets < kMinSlots ? kMinSlots : buckets) -
                1),
          slots_(mask_ + 1, nullptr)
    {
        LSCHED_ASSERT(dims_ >= 1 && dims_ <= kMaxDims,
                      "bad dimensionality ", dims_);
    }

    /**
     * Find the bin with coordinates @p coords, creating it on first
     * use (the scheduler "does not allocate a bin ... until it
     * schedules the first thread in it", Section 3.2). Returns the bin
     * and whether it was newly created.
     */
    std::pair<Bin *, bool>
    findOrCreate(const BlockCoords &coords)
    {
        return findOrCreateHashed(coords.data(), hash(coords),
                                  kNoSuperBin);
    }

    /**
     * findOrCreate() with the hash precomputed by the caller (via
     * hashCoords()) and the coordinates read in place: the batch fork
     * hashes its coordinates where it computed them, never building a
     * BlockCoords. @p coords holds at least max(dims, 3) coordinates;
     * a bin created here takes the first dims and @p superBin.
     */
    std::pair<Bin *, bool>
    findOrCreateHashed(const std::uint64_t *coords, std::uint64_t h,
                       std::uint32_t superBin)
    {
        std::size_t i = h & mask_;
        for (; slots_[i]; i = (i + 1) & mask_) {
            Bin *b = slots_[i];
            if (b->hashVal == h && sameCoords(b->coords, coords))
                return {b, false};
        }
        return {create(i, coords, h, superBin), true};
    }

    /** Find without creating; nullptr when absent. */
    Bin *
    find(const BlockCoords &coords)
    {
        return findHashed(coords.data(), hash(coords));
    }

    /** find() with the hash precomputed (see findOrCreateHashed()). */
    Bin *
    findHashed(const std::uint64_t *coords, std::uint64_t h)
    {
        for (std::size_t i = h & mask_; slots_[i];
             i = (i + 1) & mask_) {
            Bin *b = slots_[i];
            if (b->hashVal == h && sameCoords(b->coords, coords))
                return b;
        }
        return nullptr;
    }

    /** Call @p f on every bin, in creation order. */
    template <class F>
    void
    forEachBin(F &&f)
    {
        std::size_t left = binCount_;
        for (const auto &chunk : chunks_) {
            Bin *bins = chunkBins(chunk.get());
            for (std::size_t i = 0; i < kChunkBins && left; ++i, --left)
                f(bins[i]);
        }
    }

    /** Number of bins ever allocated. */
    std::size_t binCount() const { return binCount_; }

    /** Number of slots in the probe table. */
    std::size_t bucketCount() const { return mask_ + 1; }

    /**
     * Longest probe sequence needed to reach a bin — the collision
     * statistic the hash-size ablation reports (the open-addressing
     * successor of the chained table's longest bucket chain).
     */
    std::size_t
    maxChainLength() const
    {
        std::size_t longest = 0;
        for (std::size_t i = 0; i <= mask_; ++i) {
            const Bin *b = slots_[i];
            if (!b)
                continue;
            const std::size_t home = b->hashVal & mask_;
            const std::size_t dist = (i - home) & mask_;
            longest = std::max(longest, dist + 1);
        }
        return longest;
    }

    /** Drop every bin (slot capacity is retained). */
    void
    clear()
    {
        chunks_.clear();
        binCount_ = 0;
        std::fill(slots_.begin(), slots_.end(), nullptr);
    }

  private:
    /** @p b holds at least max(dims, 3) coordinates. */
    bool
    sameCoords(const BlockCoords &a, const std::uint64_t *b) const
    {
        // The leading three (the batch fork's whole key) in one test,
        // masked past dims; any further dimensions after.
        if (((a[0] ^ b[0]) | ((a[1] ^ b[1]) & leadMask1_) |
             ((a[2] ^ b[2]) & leadMask2_)) != 0)
            return false;
        for (unsigned d = 3; d < dims_; ++d)
            if (a[d] != b[d])
                return false;
        return true;
    }

    std::uint64_t
    hash(const BlockCoords &coords) const
    {
        return hashCoords(coords.data(), dims_);
    }

    /** Allocate the bin for a missed probe that ended at @p slot. */
    [[gnu::noinline]] Bin *
    create(std::size_t slot, const std::uint64_t *coords, std::uint64_t h,
           std::uint32_t superBin)
    {
        // Fail point standing in for a real out-of-memory from the bin
        // growth below.
        if (LSCHED_FAILPOINT_HIT("bintable.grow"))
            throw std::bad_alloc();
        Bin *b = newBin();
        std::copy_n(coords, dims_, b->coords.begin());
        b->hashVal = h;
        b->superBin = superBin;
        b->id = idBase_ + static_cast<std::uint32_t>(binCount_ - 1);
        slots_[slot] = b;
        // Keep load under 3/4 so probe sequences stay short and an
        // empty slot always terminates the probe loop.
        if ((binCount_ + 1) * 4 > (mask_ + 1) * 3)
            grow();
        return b;
    }

    /**
     * Construct the next bin in chunked storage, where it never moves.
     * Chunks are plain allocations aligned by hand, sized like
     * std::deque's 512-byte nodes. Over-aligned new goes through
     * memalign, and both its split-off fragments and larger or
     * per-bin chunks changed how the C heap reused the space a
     * destroyed scheduler freed: perfbench sim_matmul's peak RSS rose
     * by half a megabyte in many runs.
     */
    Bin *
    newBin()
    {
        const std::size_t index = binCount_ % kChunkBins;
        if (index == 0) {
            chunks_.push_back(
                std::unique_ptr<std::byte[]>(new std::byte[kChunkBytes]));
        }
        ++binCount_;
        return new (chunkBins(chunks_.back().get()) + index) Bin();
    }

    /** The first bin slot of a chunk allocation. */
    static Bin *
    chunkBins(std::byte *chunk)
    {
        void *base = chunk;
        std::size_t space = kChunkBytes;
        std::align(alignof(Bin), kChunkBins * sizeof(Bin), base, space);
        return static_cast<Bin *>(base);
    }

    /** Double the slot array and reinsert by cached hash. */
    void
    grow()
    {
        std::vector<Bin *> next(2 * slots_.size(), nullptr);
        const std::size_t mask = next.size() - 1;
        for (Bin *b : slots_) {
            if (!b)
                continue;
            std::size_t i = b->hashVal & mask;
            while (next[i])
                i = (i + 1) & mask;
            next[i] = b;
        }
        slots_.swap(next);
        mask_ = mask;
    }

    /** Bins per chunk: as many as fit 512 bytes with alignment slack. */
    static constexpr std::size_t kChunkBins =
        (512 - (alignof(Bin) - 1)) / sizeof(Bin);
    /** A chunk's allocation: its bins plus alignment slack. */
    static constexpr std::size_t kChunkBytes =
        kChunkBins * sizeof(Bin) + alignof(Bin) - 1;
    static_assert(kChunkBins >= 1, "a bin must fit a chunk");
    static_assert(std::is_trivially_destructible_v<Bin>,
                  "chunks release bins without running destructors");

    unsigned dims_;
    /** All ones when coordinate 1 (2) is inside dims, else 0. */
    std::uint64_t leadMask1_;
    std::uint64_t leadMask2_;
    std::uint32_t idBase_ = 0;
    std::size_t mask_;
    std::vector<Bin *> slots_;
    /** Owns every bin, kChunkBins per chunk, in creation order. */
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::size_t binCount_ = 0;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_HASH_TABLE_HH
