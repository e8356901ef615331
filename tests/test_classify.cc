/** @file Unit tests for three-C miss classification. */

#include <gtest/gtest.h>

#include <set>

#include "cachesim/cache.hh"
#include "cachesim/classify.hh"
#include "support/prng.hh"

namespace
{

using lsched::cachesim::Cache;
using lsched::cachesim::MissClassifier;
using lsched::cachesim::MissKind;
using lsched::cachesim::SeenLines;

TEST(MissClassifier, FirstTouchIsCompulsory)
{
    MissClassifier c(4);
    EXPECT_EQ(c.observe(10, true), MissKind::Compulsory);
}

TEST(MissClassifier, RepeatWithinCapacityIsConflict)
{
    // The shadow still holds the line, so a real-cache miss can only
    // be due to limited associativity.
    MissClassifier c(4);
    c.observe(1, true);
    EXPECT_EQ(c.observe(1, true), MissKind::Conflict);
}

TEST(MissClassifier, RepeatBeyondCapacityIsCapacity)
{
    MissClassifier c(2);
    c.observe(1, true);
    c.observe(2, true);
    c.observe(3, true); // evicts 1 from the shadow
    EXPECT_EQ(c.observe(1, true), MissKind::Capacity);
}

TEST(MissClassifier, HitsKeepShadowInSync)
{
    MissClassifier c(2);
    c.observe(1, true);
    c.observe(2, true);
    c.observe(1, false); // hit: 1 becomes shadow-MRU
    c.observe(3, true);  // evicts 2, not 1
    EXPECT_EQ(c.observe(1, true), MissKind::Conflict);
    EXPECT_EQ(c.observe(2, true), MissKind::Capacity);
}

TEST(MissClassifier, ClearForgetsHistory)
{
    MissClassifier c(2);
    c.observe(1, true);
    c.clear();
    EXPECT_EQ(c.observe(1, true), MissKind::Compulsory);
}

/**
 * End-to-end in a Cache: a direct-mapped cache where two hot lines
 * collide must report conflict misses; a working set larger than the
 * cache must report capacity misses.
 */
TEST(ClassifiedCache, ConflictPattern)
{
    // 2 lines, direct-mapped: lines 0 and 2 collide in set 0.
    Cache cache({"c", 128, 64, 1}, true);
    cache.accessLine(0, false); // compulsory
    cache.accessLine(2, false); // compulsory
    for (int i = 0; i < 10; ++i) {
        cache.accessLine(0, false);
        cache.accessLine(2, false);
    }
    const auto &s = cache.stats();
    EXPECT_EQ(s.compulsoryMisses, 2u);
    EXPECT_EQ(s.capacityMisses, 0u);
    EXPECT_EQ(s.conflictMisses, 20u);
}

TEST(ClassifiedCache, CapacityPattern)
{
    // Fully-associative 2-line cache, cyclic 3-line working set:
    // every miss after the first touches is a pure capacity miss.
    Cache cache({"c", 128, 64, 0}, true);
    for (int rep = 0; rep < 5; ++rep) {
        cache.accessLine(0, false);
        cache.accessLine(1, false);
        cache.accessLine(2, false);
    }
    const auto &s = cache.stats();
    EXPECT_EQ(s.compulsoryMisses, 3u);
    EXPECT_EQ(s.conflictMisses, 0u);
    EXPECT_EQ(s.capacityMisses, s.misses - 3u);
    EXPECT_EQ(s.misses, 15u); // LRU thrashes on a cyclic pattern
}

TEST(ClassifiedCache, SequentialStreamIsAllCompulsory)
{
    Cache cache({"c", 1024, 64, 2}, true);
    for (std::uint64_t l = 0; l < 1000; ++l)
        cache.accessLine(l, false);
    const auto &s = cache.stats();
    EXPECT_EQ(s.misses, 1000u);
    EXPECT_EQ(s.compulsoryMisses, 1000u);
    EXPECT_EQ(s.capacityMisses, 0u);
    EXPECT_EQ(s.conflictMisses, 0u);
}

TEST(ClassifiedCache, ClassCountsSumToMisses)
{
    Cache cache({"c", 512, 64, 2}, true);
    lsched::Prng prng(7);
    for (int i = 0; i < 50000; ++i)
        cache.accessLine(prng.nextBelow(64), i % 3 == 0);
    const auto &s = cache.stats();
    EXPECT_EQ(s.compulsoryMisses + s.capacityMisses + s.conflictMisses,
              s.misses);
}

TEST(SeenLines, MatchesStdSetAcrossManyPages)
{
    // Lines clustered in a few pages, plus scattered ones that each
    // open a new 4096-line page and grow the page index many times.
    SeenLines seen;
    std::set<std::uint64_t> ref;
    lsched::Prng prng(11);
    for (int i = 0; i < 40000; ++i) {
        const std::uint64_t line =
            i % 4 == 0 ? prng.nextBelow(std::uint64_t{1} << 50)
                       : 0x7000 + prng.nextBelow(3 * 4096);
        ASSERT_EQ(seen.insert(line), ref.insert(line).second) << i;
    }
    seen.clear();
    EXPECT_TRUE(seen.insert(*ref.begin()));
    EXPECT_FALSE(seen.insert(*ref.begin()));
    EXPECT_TRUE(seen.insert(*ref.rbegin()));
}

} // namespace
