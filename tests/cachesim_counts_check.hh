/**
 * @file
 * Counter-for-counter equality of simulated cache statistics, shared
 * by the cache-simulator suite and the matmul suite wherever two
 * simulations of one reference stream must count exactly alike.
 */

#ifndef LSCHED_TESTS_CACHESIM_COUNTS_CHECK_HH
#define LSCHED_TESTS_CACHESIM_COUNTS_CHECK_HH

#include <gtest/gtest.h>

#include <string>

#include "cachesim/hierarchy.hh"

namespace lsched::cachesim::countscheck
{

/** Every counter of @p got equals @p want's; @p level names the cache. */
inline void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &level)
{
    EXPECT_EQ(got.accesses, want.accesses) << level;
    EXPECT_EQ(got.misses, want.misses) << level;
    EXPECT_EQ(got.writebacks, want.writebacks) << level;
    EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses) << level;
    EXPECT_EQ(got.capacityMisses, want.capacityMisses) << level;
    EXPECT_EQ(got.conflictMisses, want.conflictMisses) << level;
}

/** Reference totals and every cache's counters agree. */
inline void
expectSameCounts(const Hierarchy &got, const Hierarchy &want)
{
    EXPECT_EQ(got.ifetches(), want.ifetches());
    EXPECT_EQ(got.dataRefs(), want.dataRefs());
    expectSameStats(got.l1iStats(), want.l1iStats(), "L1I");
    expectSameStats(got.l1dStats(), want.l1dStats(), "L1D");
    expectSameStats(got.l2Stats(), want.l2Stats(), "L2");
}

} // namespace lsched::cachesim::countscheck

#endif // LSCHED_TESTS_CACHESIM_COUNTS_CHECK_HH
