/**
 * @file
 * Two-level cache hierarchy: split L1 instruction/data caches backed
 * by a unified L2, matching the SGI systems the paper measures and the
 * structure its modified DineroIII simulated.
 *
 * Policy notes:
 *  - write-back, write-allocate at both levels;
 *  - an L1 miss issues one demand access to L2 (at L2 line
 *    granularity);
 *  - dirty L1 victims write back to L2 ("update if present"); because
 *    every L1 fill also filled L2, the line is almost always resident,
 *    so this models writeback traffic without perturbing the
 *    demand-miss statistics the paper reports;
 *  - references spanning line boundaries touch every covered line;
 *  - a zero-byte reference counts as a one-byte reference.
 *
 * Hot path: a reference inside one L1 line first tries the inline
 * Cache::hitMru(), which settles the common way-0 hit without a call;
 * everything else takes accessThrough(). Both paths count the same.
 * loadPairs() runs a dot product's alternating loads through that
 * path until the state repeats pair after pair, then adds the rest's
 * counts at once (DESIGN.md §6).
 */

#ifndef LSCHED_CACHESIM_HIERARCHY_HH
#define LSCHED_CACHESIM_HIERARCHY_HH

#include <cstdint>
#include <string>

#include "cachesim/cache.hh"
#include "cachesim/cache_config.hh"
#include "cachesim/page_map.hh"
#include "cachesim/stats.hh"

namespace lsched::cachesim
{

/** Geometry and options for a Hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1i;
    CacheConfig l1d;
    CacheConfig l2;
    /** Attach three-C classification to L1 caches. */
    bool classifyL1 = false;
    /** Attach three-C classification to the L2 cache. */
    bool classifyL2 = true;
    /**
     * Index the L2 by simulated physical addresses under this page
     * mapping (paper Section 2.2: real second-level caches are
     * physically indexed and the VM mapping perturbs them). Identity
     * keeps the virtually-indexed model the paper's simulations used.
     */
    PageMapPolicy l2PageMap = PageMapPolicy::Identity;
    /** Page size for the mapping. */
    std::uint64_t pageBytes = 4096;
    /** Seed for the Random page policy. */
    std::uint64_t pageMapSeed = 0x9a9e;
};

/** A split-L1 / unified-L2 simulated memory hierarchy. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /** Simulate an instruction fetch of @p bytes at @p addr. */
    void
    ifetch(std::uint64_t addr, std::uint64_t bytes)
    {
        ++ifetches_;
        reference(l1i_, addr, bytes, false);
    }

    /** Simulate a data load of @p bytes at @p addr. */
    void
    load(std::uint64_t addr, std::uint64_t bytes)
    {
        ++dataRefs_;
        reference(l1d_, addr, bytes, false);
    }

    /** Simulate a data store of @p bytes at @p addr. */
    void
    store(std::uint64_t addr, std::uint64_t bytes)
    {
        ++dataRefs_;
        reference(l1d_, addr, bytes, true);
    }

    /**
     * Simulate @p count pairs of data loads of @p bytes each: by
     * definition load(x + k * bytes) then load(y + k * bytes) for
     * k = 0, 1, ..., count - 1, with the same counts and final state.
     */
    void loadPairs(std::uint64_t x, std::uint64_t y, std::uint64_t bytes,
                   std::uint64_t count);

    /**
     * Account for @p n instruction fetches without simulating them.
     * Used by the synthetic instruction-fetch model: loop bodies are
     * L1I-resident, so only the analytic count matters (see
     * trace::SynthIFetch, which still touches each code line once so
     * compulsory misses appear).
     */
    void countIFetches(std::uint64_t n) { ifetches_ += n; }

    /** Total instruction fetches (simulated + counted). */
    std::uint64_t ifetches() const { return ifetches_; }

    /** Total data references (loads + stores). */
    std::uint64_t dataRefs() const { return dataRefs_; }

    /** Per-level statistics. */
    const CacheStats &l1iStats() const { return l1i_.stats(); }
    const CacheStats &l1dStats() const { return l1d_.stats(); }
    const CacheStats &l2Stats() const { return l2_.stats(); }

    /** Combined L1 statistics (the paper's "L1 misses" row). */
    CacheStats
    l1Stats() const
    {
        CacheStats s = l1i_.stats();
        s += l1d_.stats();
        return s;
    }

    /**
     * Combined L1 miss rate over all references, the definition that
     * reproduces the paper's L1 "rate" rows (misses / (I + D refs)).
     */
    double
    l1MissRatePercent() const
    {
        const std::uint64_t refs = ifetches_ + dataRefs_;
        return refs ? 100.0 *
                          static_cast<double>(l1Stats().misses) /
                          static_cast<double>(refs)
                    : 0.0;
    }

    /** Direct cache access, for tests and bespoke experiments. */
    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }

    /**
     * Invalidate everything, zero all statistics and reseed the Random
     * replacement and page-map choices: the hierarchy then counts any
     * stream exactly as a new one would.
     */
    void reset();

    /**
     * Publish the hierarchy's counters as gauges named
     * "<prefix>.l1i.misses" etc. in the global metrics registry.
     * A cheap no-op unless metrics collection is enabled.
     */
    void publishMetrics(const std::string &prefix = "cachesim") const;

    /** The virtual-to-physical mapping used for L2 indexing. */
    const PageMap &pageMap() const { return pageMap_; }

  private:
    /**
     * Touch every @p l1 line that bytes [addr, addr + bytes) cover;
     * a zero-byte reference covers the byte at @p addr.
     */
    void
    reference(Cache &l1, std::uint64_t addr, std::uint64_t bytes,
              bool is_write)
    {
        const std::uint64_t first = l1.lineOf(addr);
        const std::uint64_t last =
            l1.lineOf(addr + (bytes ? bytes - 1 : 0));
        if (first == last && l1.hitMru(first, is_write))
            return;
        for (std::uint64_t line = first; line <= last; ++line)
            accessThrough(l1, line, is_write);
    }

    /** A load of L1D line @p l1_line alone, as reference() does it. */
    void
    loadLine(std::uint64_t l1_line)
    {
        if (!l1d_.hitMru(l1_line, false))
            accessThrough(l1d_, l1_line, false);
    }

    void loadLinePairs(std::uint64_t x_line, std::uint64_t y_line,
                       std::uint64_t pairs);
    void accessThrough(Cache &l1, std::uint64_t l1_line, bool is_write);
    std::uint64_t l2LineOf(std::uint64_t l1_line, unsigned l1_shift);

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    unsigned l1iToL2Shift_;
    unsigned l1dToL2Shift_;
    PageMap pageMap_;
    bool translate_ = false;
    /** The L1D is one way, not Random and unclassified: a pair of
     *  same-set misses may repeat (loadLinePairs()). */
    bool missPairsRepeat_;
    std::uint64_t l1dSetMask_;
    std::uint64_t ifetches_ = 0;
    std::uint64_t dataRefs_ = 0;
};

} // namespace lsched::cachesim

#endif // LSCHED_CACHESIM_HIERARCHY_HH
