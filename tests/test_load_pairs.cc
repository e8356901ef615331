/**
 * @file Differential tests of Hierarchy::loadPairs() against the
 * per-reference loads it is defined as.
 *
 * loadPairs(x, y, bytes, count) is load(x + k * bytes) then
 * load(y + k * bytes) for k ascending, but it counts some pairs
 * without simulating them. Two hierarchies start from the same random
 * state (dirty lines included); one takes loadPairs(), the other the
 * expansion. They must agree on every counter after every call, on the
 * residency of every line either touched, and on the counts of a
 * follow-up stream, which would expose a recency or shadow order that
 * drifted without moving a counter yet.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cachesim/hierarchy.hh"
#include "cachesim/page_map.hh"
#include "cachesim_counts_check.hh"
#include "support/prng.hh"

namespace
{

using namespace lsched::cachesim;
using lsched::cachesim::countscheck::expectSameCounts;
using lsched::Prng;

constexpr std::uint64_t kL1Bytes = 1024;
constexpr std::uint64_t kL1Line = 32;
constexpr std::uint64_t kL2Bytes = 8192;
constexpr std::uint64_t kL2Line = 64;

/** What loadPairs() is defined as. */
void
expandPairs(Hierarchy &h, std::uint64_t x, std::uint64_t y,
            std::uint64_t bytes, std::uint64_t count)
{
    for (std::uint64_t k = 0; k < count; ++k) {
        h.load(x + k * bytes, bytes);
        h.load(y + k * bytes, bytes);
    }
}

/**
 * Every L1D and L2 line covering a byte of @p touched is resident in
 * both hierarchies or in neither. L2 lines are found through copies of
 * each hierarchy's page map, so the check maps nothing new in them.
 */
void
expectSameResidency(Hierarchy &got, Hierarchy &want,
                    const std::vector<std::uint64_t> &touched)
{
    EXPECT_EQ(got.pageMap().mappedPages(), want.pageMap().mappedPages());
    PageMap got_map = got.pageMap();
    PageMap want_map = want.pageMap();
    for (const std::uint64_t addr : touched) {
        const std::uint64_t l1 = addr / kL1Line;
        EXPECT_EQ(got.l1d().probeLine(l1), want.l1d().probeLine(l1))
            << "L1D line of 0x" << std::hex << addr;
        const std::uint64_t got_l2 = got_map.translate(addr) / kL2Line;
        const std::uint64_t want_l2 = want_map.translate(addr) / kL2Line;
        EXPECT_EQ(got.l2().probeLine(got_l2), want.l2().probeLine(want_l2))
            << "L2 line of 0x" << std::hex << addr;
    }
}

/**
 * The same seeded references to both: loads, stores (so some lines are
 * dirty) and instruction fetches of 1-16 bytes, half in a region the
 * size of the L1, the rest over four times the L2. Each address goes
 * to @p touched.
 */
void
randomRefs(Hierarchy &a, Hierarchy &b, Prng &prng, std::uint64_t base,
           int refs, std::vector<std::uint64_t> &touched)
{
    for (int i = 0; i < refs; ++i) {
        const std::uint64_t addr =
            base + (prng.nextBelow(2) ? prng.nextBelow(kL1Bytes)
                                      : prng.nextBelow(4 * kL2Bytes));
        const std::uint64_t bytes = 1 + prng.nextBelow(16);
        const std::uint64_t kind = prng.nextBelow(8);
        touched.push_back(addr);
        if (kind == 0) {
            a.ifetch(addr, bytes);
            b.ifetch(addr, bytes);
        } else if (kind < 4) {
            a.store(addr, bytes);
            b.store(addr, bytes);
        } else {
            a.load(addr, bytes);
            b.load(addr, bytes);
        }
    }
}

/** One loadPairs() call's arguments, relative to a base address. */
struct PairRun
{
    std::uint64_t x;
    std::uint64_t y;
    std::uint64_t bytes;
    std::uint64_t count;
};

/**
 * Runs that reach every case of loadPairs(): nothing to do, one pair,
 * runs inside one line and across many, x == y, x and y in one line,
 * x and y in one L1 set or one L2 set (and in both), misaligned and
 * line-straddling elements, zero-byte and over-line elements.
 */
std::vector<PairRun>
pairRuns(Prng &prng)
{
    std::vector<PairRun> runs = {
        {0, 4096, 8, 0},
        {0, 4096, 8, 1},
        {0, 4096, 8, 16},
        {0, 0, 8, 16},
        {64, 64, 8, 9},
        {0, 8, 8, 16},
        {0, 16, 4, 12},
        {0, kL1Bytes, 8, 16},
        {0, kL1Bytes, 8, 64},
        {kL1Bytes, 0, 8, 64},
        {0, kL2Bytes, 8, 16},
        {0, 3 * kL2Bytes, 8, 40},
        {0, kL1Bytes / 2, 8, 16},
        {0, kL1Bytes + kL1Bytes / 2, 8, 16},
        {3, kL1Bytes + 3, 8, 16},
        {3, kL1Bytes + 11, 8, 16},
        {5, 4096 + 29, 8, 20},
        {0, kL1Bytes, 12, 16},
        {2, kL1Bytes + 7, 24, 10},
        {0, kL1Bytes, 32, 8},
        {4, kL2Bytes + 4, 40, 6},
        {0, kL1Bytes, 100, 5},
        {7, kL1Bytes + 7, 0, 10},
        {31, kL1Bytes + 31, 1, 3},
        {0, 2 * kL1Bytes, 1, 70},
    };
    for (int i = 0; i < 40; ++i) {
        const std::uint64_t x = prng.nextBelow(4 * kL2Bytes);
        const std::uint64_t shapes[] = {
            prng.nextBelow(4 * kL2Bytes),
            x + kL1Bytes * (1 + prng.nextBelow(8)),
            x + prng.nextBelow(kL1Line),
            x,
        };
        const std::uint64_t sizes[] = {8, 8, 4, 1, 0, 3, 16, 48};
        runs.push_back({x, shapes[prng.nextBelow(4)],
                        sizes[prng.nextBelow(8)], prng.nextBelow(33)});
    }
    return runs;
}

struct PairCase
{
    unsigned l1Assoc; // 0 = fully associative
    Replacement replacement;
};

std::string
caseName(const ::testing::TestParamInfo<PairCase> &info)
{
    const char *const policy[] = {"Lru", "Fifo", "Random"};
    const PairCase &c = info.param;
    return (c.l1Assoc ? std::to_string(c.l1Assoc) + "way"
                      : std::string("Full")) +
           policy[static_cast<int>(c.replacement)];
}

class LoadPairsDifferential : public ::testing::TestWithParam<PairCase>
{
};

TEST_P(LoadPairsDifferential, MatchesPerReferenceLoads)
{
    const PairCase &pc = GetParam();
    const PageMapPolicy maps[] = {PageMapPolicy::Identity,
                                  PageMapPolicy::FirstTouch,
                                  PageMapPolicy::Random,
                                  PageMapPolicy::Colored};
    const WritePolicy writes[] = {WritePolicy::WriteBackAllocate,
                                  WritePolicy::WriteThroughNoAllocate};
    constexpr std::uint64_t kBase = 0x40000;
    std::uint64_t seed = 1;
    for (const WritePolicy write : writes) {
        for (const PageMapPolicy map : maps) {
            for (const bool classify_l1 : {false, true}) {
                HierarchyConfig c;
                c.l1i = {"L1I", kL1Bytes, kL1Line, pc.l1Assoc,
                         pc.replacement, write};
                c.l1d = c.l1i;
                c.l1d.name = "L1D";
                c.l2 = {"L2", kL2Bytes, kL2Line, pc.l1Assoc ? 4u : 0u,
                        pc.replacement, write};
                c.classifyL1 = classify_l1;
                c.l2PageMap = map;
                c.pageBytes = 512;
                SCOPED_TRACE(::testing::Message()
                             << "write-through "
                             << (write == WritePolicy::WriteThroughNoAllocate)
                             << " page map " << static_cast<int>(map)
                             << " classifyL1 " << classify_l1);
                Hierarchy pairs(c);
                Hierarchy refs(c);
                Prng prng(seed++);
                std::vector<std::uint64_t> touched;
                randomRefs(pairs, refs, prng, kBase, 3000, touched);
                for (const PairRun &r : pairRuns(prng)) {
                    SCOPED_TRACE(::testing::Message()
                                 << "x " << r.x << " y " << r.y << " bytes "
                                 << r.bytes << " count " << r.count);
                    pairs.loadPairs(kBase + r.x, kBase + r.y, r.bytes,
                                    r.count);
                    expandPairs(refs, kBase + r.x, kBase + r.y, r.bytes,
                                r.count);
                    expectSameCounts(pairs, refs);
                    for (std::uint64_t k = 0; k <= r.count; ++k) {
                        touched.push_back(kBase + r.x + k * r.bytes);
                        touched.push_back(kBase + r.y + k * r.bytes);
                    }
                    if (::testing::Test::HasFailure())
                        return;
                    randomRefs(pairs, refs, prng, kBase, 20, touched);
                }
                expectSameResidency(pairs, refs, touched);
                randomRefs(pairs, refs, prng, kBase, 3000, touched);
                expectSameCounts(pairs, refs);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LoadPairsDifferential,
    ::testing::Values(PairCase{1, Replacement::Lru},
                      PairCase{2, Replacement::Lru},
                      PairCase{4, Replacement::Lru},
                      PairCase{8, Replacement::Lru},
                      PairCase{0, Replacement::Lru},
                      PairCase{1, Replacement::Fifo},
                      PairCase{2, Replacement::Fifo},
                      PairCase{4, Replacement::Fifo},
                      PairCase{8, Replacement::Fifo},
                      PairCase{0, Replacement::Fifo},
                      PairCase{1, Replacement::Random},
                      PairCase{2, Replacement::Random},
                      PairCase{4, Replacement::Random},
                      PairCase{8, Replacement::Random},
                      PairCase{0, Replacement::Random}),
    caseName);

/**
 * A pair whose x load hits L1D, while y's evicts it from the one-way
 * set they share, leaves the later pairs to take x's L2 access, which
 * this one did not. Here x's L2 line sits last in the L2's full shadow
 * LRU (127 lines touched since), and the pair's y miss pushes it out
 * of the shadow: only the later pairs bring it back, so a later L2
 * miss on x is a conflict miss, not a capacity miss.
 */
TEST(LoadPairs, FirstReferenceHitLeavesLaterPairsSimulated)
{
    HierarchyConfig c;
    c.l1i = {"L1I", kL1Bytes, kL1Line, 1};
    c.l1d = {"L1D", kL1Bytes, kL1Line, 1};
    c.l2 = {"L2", kL2Bytes, kL2Line, 4};
    Hierarchy pairs(c);
    Hierarchy refs(c);
    constexpr std::uint64_t kX = 0x100000; // L1 set 0, L2 set 0
    constexpr std::uint64_t kY = kX + kL1Bytes; // L1 set 0, L2 set 16
    auto both = [&](auto op) {
        op(pairs);
        op(refs);
    };
    both([](Hierarchy &h) { h.load(kX, 8); });
    // 127 lines in neither x's L1 set nor x's or y's L2 set.
    int fillers = 0;
    for (std::uint64_t j = 1; fillers < 127; ++j) {
        if (j % 16 == 0)
            continue;
        both([&](Hierarchy &h) { h.load(kX + j * kL2Line, 8); });
        ++fillers;
    }
    ASSERT_TRUE(pairs.l1d().probeLine(kX / kL1Line));
    pairs.loadPairs(kX, kY, 8, 4);
    expandPairs(refs, kX, kY, 8, 4);
    expectSameCounts(pairs, refs);
    // Four lines of x's L2 set evict it; then x misses L2 once more.
    for (std::uint64_t k = 1; k <= 4; ++k)
        both([&](Hierarchy &h) { h.load(kX + k * 32 * kL2Line, 8); });
    both([](Hierarchy &h) { h.load(kX, 8); });
    expectSameCounts(pairs, refs);
    EXPECT_EQ(refs.l2Stats().conflictMisses, 1u);
}

/** A zero count changes nothing; a pair count is two data references. */
TEST(LoadPairs, CountsTwoDataReferencesPerPair)
{
    HierarchyConfig c;
    c.l1i = {"L1I", kL1Bytes, kL1Line, 1};
    c.l1d = {"L1D", kL1Bytes, kL1Line, 1};
    c.l2 = {"L2", kL2Bytes, kL2Line, 4};
    Hierarchy h(c);
    h.loadPairs(0x1000, 0x2000, 8, 0);
    EXPECT_EQ(h.dataRefs(), 0u);
    EXPECT_EQ(h.l1dStats().accesses, 0u);
    h.loadPairs(0x1000, 0x1000 + kL1Bytes, 8, 16);
    EXPECT_EQ(h.dataRefs(), 32u);
    EXPECT_EQ(h.l1dStats().accesses, 32u);
    // x and y share the one-way set, so every load misses.
    EXPECT_EQ(h.l1dStats().misses, 32u);
    EXPECT_EQ(h.l2Stats().accesses, 32u);
    EXPECT_EQ(h.l2Stats().misses, 4u);
}

} // namespace
