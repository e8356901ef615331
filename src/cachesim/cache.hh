/**
 * @file
 * A single set-associative (or fully-associative) write-back,
 * write-allocate cache with LRU replacement and optional single-run
 * three-C miss classification.
 */

#ifndef LSCHED_CACHESIM_CACHE_HH
#define LSCHED_CACHESIM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/cache_config.hh"
#include "cachesim/classify.hh"
#include "cachesim/stats.hh"
#include "support/prng.hh"

namespace lsched::cachesim
{

/** One cache level operating on line addresses. */
class Cache
{
  public:
    /**
     * Outcome of a single line access. The 64-bit field leads so the
     * struct packs into 16 bytes and returns in registers.
     */
    struct Result
    {
        /** Line address of the evicted dirty victim (when writeback). */
        std::uint64_t victimLine = 0;
        bool miss = false;
        /** A dirty line was evicted to make room. */
        bool writeback = false;
        /** The store must also be sent downstream (write-through). */
        bool propagateWrite = false;
        /** Classification, valid only when miss and classify enabled. */
        MissKind kind = MissKind::Compulsory;
    };

    /**
     * @param config validated geometry.
     * @param classify attach a MissClassifier (costs one shadow
     *        access per reference).
     */
    explicit Cache(CacheConfig config, bool classify = false);

    /**
     * Reference the line containing byte address @p line_addr (already
     * shifted to line granularity). @p is_write marks the line dirty.
     */
    Result accessLine(std::uint64_t line_addr, bool is_write);

    /**
     * The most common case of accessLine(), inline: when @p line_addr
     * sits in way 0 of its set and the access sends nothing downstream
     * (a write-through store does), record the hit exactly as
     * accessLine() would and return true. Otherwise change nothing and
     * return false; the caller then calls accessLine(). A way-0 hit
     * reorders nothing under any replacement policy.
     */
    bool
    hitMru(std::uint64_t line_addr, bool is_write)
    {
        const std::uint64_t way0 = (line_addr & setMask_) * ways_;
        if (tags_[way0] != line_addr || (is_write && writeThrough_))
            return false;
        ++stats_.accesses;
        dirty_[way0] |= static_cast<std::uint8_t>(is_write);
        if (classifier_)
            classifier_->observe(line_addr, false);
        return true;
    }

    /**
     * Update-only probe used for writebacks arriving from an upper
     * level: marks the line dirty if present and reports presence.
     * Does not touch statistics, recency, or the classifier.
     */
    bool updateIfPresent(std::uint64_t line_addr);

    /** True if the line is resident (no state change). */
    bool probeLine(std::uint64_t line_addr) const;

    /** Convert a byte address to this cache's line address. */
    std::uint64_t
    lineOf(std::uint64_t byte_addr) const
    {
        return byte_addr >> lineShift_;
    }

    /** log2(line size). */
    unsigned lineShift() const { return lineShift_; }

    /** Accumulated statistics. */
    const CacheStats &stats() const { return stats_; }

    /**
     * Count @p accesses more accesses, @p misses of them misses, and
     * change nothing else: for repeats a caller has proven leave the
     * cache as they found it (Hierarchy::loadPairs()).
     */
    void
    countRepeats(std::uint64_t accesses, std::uint64_t misses)
    {
        stats_.accesses += accesses;
        stats_.misses += misses;
    }

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

    /**
     * Invalidate all lines, zero the statistics and reseed the Random
     * victim choice: the cache then replays any stream as a new one.
     */
    void reset();

  private:
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    static constexpr std::uint64_t kVictimSeed = 0xCACEull;

    void installAt(std::uint64_t set, unsigned way,
                   std::uint64_t line_addr, bool dirty, Result &res);

    CacheConfig config_;
    unsigned lineShift_;
    unsigned ways_;
    bool writeThrough_;
    std::uint64_t setMask_;

    // tags_[set * ways_ + i]; for LRU/FIFO ordered newest-first.
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint8_t> dirty_;

    CacheStats stats_;
    std::unique_ptr<MissClassifier> classifier_;
    Prng victimPrng_{kVictimSeed};
};

} // namespace lsched::cachesim

#endif // LSCHED_CACHESIM_CACHE_HH
