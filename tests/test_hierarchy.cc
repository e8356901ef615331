/** @file Unit tests for the two-level cache hierarchy. */

#include <gtest/gtest.h>

#include "cachesim/hierarchy.hh"
#include "cachesim_counts_check.hh"
#include "support/prng.hh"

namespace
{

using lsched::cachesim::Hierarchy;
using lsched::cachesim::HierarchyConfig;
using lsched::cachesim::PageMapPolicy;
using lsched::cachesim::Replacement;
using lsched::cachesim::countscheck::expectSameCounts;

HierarchyConfig
tinyConfig()
{
    HierarchyConfig c;
    c.l1i = {"L1I", 1024, 32, 1};
    c.l1d = {"L1D", 1024, 32, 1};
    c.l2 = {"L2", 8192, 128, 4};
    return c;
}

TEST(Hierarchy, LoadsCountAsDataRefs)
{
    Hierarchy h(tinyConfig());
    h.load(0, 8);
    h.store(8, 8);
    h.ifetch(0x1000, 4);
    EXPECT_EQ(h.dataRefs(), 2u);
    EXPECT_EQ(h.ifetches(), 1u);
}

TEST(Hierarchy, L1MissGoesToL2)
{
    Hierarchy h(tinyConfig());
    h.load(0, 8);
    EXPECT_EQ(h.l1dStats().misses, 1u);
    EXPECT_EQ(h.l2Stats().accesses, 1u);
    EXPECT_EQ(h.l2Stats().misses, 1u);
    // Second touch hits L1; L2 sees nothing new.
    h.load(0, 8);
    EXPECT_EQ(h.l1dStats().misses, 1u);
    EXPECT_EQ(h.l2Stats().accesses, 1u);
}

TEST(Hierarchy, L1HitNeverReachesL2)
{
    Hierarchy h(tinyConfig());
    for (int i = 0; i < 100; ++i)
        h.load(64, 8);
    EXPECT_EQ(h.l2Stats().accesses, 1u);
}

TEST(Hierarchy, SameL2LineDifferentL1Lines)
{
    // L1 lines are 32 B, L2 lines 128 B: four adjacent L1 misses map
    // to one L2 line, so only the first L2 access misses.
    Hierarchy h(tinyConfig());
    h.load(0, 8);
    h.load(32, 8);
    h.load(64, 8);
    h.load(96, 8);
    EXPECT_EQ(h.l1dStats().misses, 4u);
    EXPECT_EQ(h.l2Stats().accesses, 4u);
    EXPECT_EQ(h.l2Stats().misses, 1u);
}

TEST(Hierarchy, SplitL1)
{
    Hierarchy h(tinyConfig());
    h.ifetch(0, 4);
    h.load(0, 8);
    EXPECT_EQ(h.l1iStats().misses, 1u);
    EXPECT_EQ(h.l1dStats().misses, 1u);
    // Both miss in L1 but share the L2 line.
    EXPECT_EQ(h.l2Stats().misses, 1u);
}

TEST(Hierarchy, CrossLineAccessTouchesBothLines)
{
    Hierarchy h(tinyConfig());
    h.load(28, 8); // spans L1 lines 0 and 1
    EXPECT_EQ(h.l1dStats().accesses, 2u);
    EXPECT_EQ(h.dataRefs(), 1u);
}

TEST(Hierarchy, CombinedL1Stats)
{
    Hierarchy h(tinyConfig());
    h.ifetch(0, 4);
    h.load(0x4000, 8);
    const auto l1 = h.l1Stats();
    EXPECT_EQ(l1.accesses, 2u);
    EXPECT_EQ(l1.misses, 2u);
}

TEST(Hierarchy, L1MissRateUsesAllRefs)
{
    Hierarchy h(tinyConfig());
    h.load(0, 8);        // miss
    h.load(0, 8);        // hit
    h.ifetch(0x1000, 4); // miss
    h.ifetch(0x1000, 4); // hit
    EXPECT_DOUBLE_EQ(h.l1MissRatePercent(), 50.0);
}

TEST(Hierarchy, CountIFetchesIsAnalytic)
{
    Hierarchy h(tinyConfig());
    h.countIFetches(1000);
    EXPECT_EQ(h.ifetches(), 1000u);
    EXPECT_EQ(h.l1iStats().accesses, 0u);
}

TEST(Hierarchy, DirtyL1VictimUpdatesL2)
{
    Hierarchy h(tinyConfig());
    h.store(0, 8);          // L1D line 0 dirty; L2 line 0 filled
    h.store(1024, 8);       // L1D direct-mapped: evicts line 0 dirty
    EXPECT_EQ(h.l1dStats().writebacks, 1u);
    // The L2 line must now be dirty: evicting it writes back.
    EXPECT_TRUE(h.l2().probeLine(0));
}

TEST(Hierarchy, ResetZeroesEverything)
{
    Hierarchy h(tinyConfig());
    h.load(0, 8);
    h.ifetch(0, 4);
    h.reset();
    EXPECT_EQ(h.dataRefs(), 0u);
    EXPECT_EQ(h.ifetches(), 0u);
    EXPECT_EQ(h.l1dStats().accesses, 0u);
    EXPECT_EQ(h.l2Stats().accesses, 0u);
    EXPECT_TRUE(h.l1d().accessLine(0, false).miss);
}

/** Seeded loads and stores over eight times the L2 of tinyConfig(). */
void
replayStream(Hierarchy &h)
{
    lsched::Prng prng(29);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t addr = prng.nextBelow(64 * 1024);
        if (prng.nextBelow(4) == 0)
            h.store(addr, 8);
        else
            h.load(addr, 8);
    }
}

// reset() must leave the hierarchy as construction does, including the
// Random victim choice and the page map's frame choice: a stream
// replayed after reset() counts exactly what it counts fresh.
TEST(Hierarchy, ResetReplaysLikeFresh)
{
    for (const PageMapPolicy map :
         {PageMapPolicy::Identity, PageMapPolicy::Random,
          PageMapPolicy::FirstTouch, PageMapPolicy::Colored}) {
        SCOPED_TRACE(static_cast<int>(map));
        HierarchyConfig c = tinyConfig();
        c.l1d = {"L1D", 1024, 32, 4, Replacement::Random};
        c.l2 = {"L2", 8192, 128, 4, Replacement::Random};
        c.classifyL1 = true;
        c.l2PageMap = map;
        c.pageBytes = 512;
        Hierarchy fresh(c);
        replayStream(fresh);
        Hierarchy again(c);
        replayStream(again);
        again.reset();
        replayStream(again);
        EXPECT_EQ(again.pageMap().mappedPages(),
                  fresh.pageMap().mappedPages());
        expectSameCounts(again, fresh);
    }
}

// A zero-byte reference counts as a one-byte reference: it touches
// exactly the line holding its address, wherever that address sits.
TEST(Hierarchy, ZeroByteMidLineTouchesItsLine)
{
    Hierarchy h(tinyConfig());
    h.load(40, 0);
    EXPECT_EQ(h.l1dStats().accesses, 1u);
    EXPECT_TRUE(h.l1d().probeLine(1));
    EXPECT_FALSE(h.l1d().probeLine(0));
    h.store(40, 0);
    EXPECT_EQ(h.l1dStats().accesses, 2u);
    EXPECT_EQ(h.l1dStats().misses, 1u);
}

TEST(Hierarchy, ZeroByteLineAlignedTouchesItsLine)
{
    Hierarchy h(tinyConfig());
    h.load(64, 0);
    EXPECT_EQ(h.l1dStats().accesses, 1u);
    EXPECT_TRUE(h.l1d().probeLine(2));
    EXPECT_FALSE(h.l1d().probeLine(1));
    h.ifetch(0x1000, 0);
    EXPECT_EQ(h.l1iStats().accesses, 1u);
    EXPECT_TRUE(h.l1i().probeLine(0x1000 / 32));
}

TEST(Hierarchy, ZeroByteAtAddressZeroTouchesLineZero)
{
    // addr + bytes - 1 would wrap to the top of the address space.
    Hierarchy h(tinyConfig());
    h.load(0, 0);
    h.store(0, 0);
    h.ifetch(0, 0);
    EXPECT_EQ(h.dataRefs(), 2u);
    EXPECT_EQ(h.ifetches(), 1u);
    EXPECT_EQ(h.l1dStats().accesses, 2u);
    EXPECT_EQ(h.l1dStats().misses, 1u);
    EXPECT_EQ(h.l1iStats().accesses, 1u);
    EXPECT_EQ(h.l2Stats().accesses, 2u);
}

TEST(Hierarchy, L2ClassificationEnabledByDefault)
{
    Hierarchy h(tinyConfig());
    // Stream more distinct L2 lines than L2 holds (64 lines).
    for (std::uint64_t a = 0; a < 3 * 8192; a += 128)
        h.load(a, 8);
    // Second pass: all capacity misses at L2.
    for (std::uint64_t a = 0; a < 3 * 8192; a += 128)
        h.load(a, 8);
    const auto &l2 = h.l2Stats();
    EXPECT_GT(l2.capacityMisses, 0u);
    EXPECT_EQ(l2.compulsoryMisses, 192u);
    EXPECT_EQ(l2.compulsoryMisses + l2.capacityMisses +
                  l2.conflictMisses,
              l2.misses);
}

} // namespace
