/** @file Unit tests for bin tour strategies. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "threads/tour.hh"

namespace
{

using namespace lsched::threads;

std::deque<Bin> storage;

Bin *
bin(std::uint64_t x, std::uint64_t y = 0)
{
    storage.emplace_back();
    storage.back().coords[0] = x;
    storage.back().coords[1] = y;
    return &storage.back();
}

class TourTest : public ::testing::Test
{
  protected:
    void TearDown() override { storage.clear(); }
};

TEST_F(TourTest, CreationOrderIsIdentity)
{
    std::vector<Bin *> bins{bin(3), bin(1), bin(2)};
    const auto t = orderBins(TourPolicy::CreationOrder, bins, 1);
    EXPECT_EQ(t, bins);
}

TEST_F(TourTest, SnakeSorts1D)
{
    std::vector<Bin *> bins{bin(3), bin(1), bin(2)};
    const auto t = orderBins(TourPolicy::SortedSnake, bins, 1);
    EXPECT_EQ(t[0]->coords[0], 1u);
    EXPECT_EQ(t[1]->coords[0], 2u);
    EXPECT_EQ(t[2]->coords[0], 3u);
}

TEST_F(TourTest, SnakeAlternatesRowDirection)
{
    std::vector<Bin *> bins{bin(0, 0), bin(0, 1), bin(1, 0), bin(1, 1)};
    const auto t = orderBins(TourPolicy::SortedSnake, bins, 2);
    // Row 0 ascending, row 1 descending: (0,0) (0,1) (1,1) (1,0).
    EXPECT_EQ(t[0]->coords[1], 0u);
    EXPECT_EQ(t[1]->coords[1], 1u);
    EXPECT_EQ(t[2]->coords[0], 1u);
    EXPECT_EQ(t[2]->coords[1], 1u);
    EXPECT_EQ(t[3]->coords[1], 0u);
    EXPECT_EQ(tourLength(t, 2), 3u); // unit steps only
}

TEST_F(TourTest, AllPoliciesArePermutations)
{
    std::vector<Bin *> bins;
    for (std::uint64_t i = 0; i < 25; ++i)
        bins.push_back(bin(i % 5, (i * 7) % 5));
    for (auto policy :
         {TourPolicy::CreationOrder, TourPolicy::SortedSnake,
          TourPolicy::NearestNeighbor, TourPolicy::Hilbert}) {
        auto t = orderBins(policy, bins, 2);
        ASSERT_EQ(t.size(), bins.size());
        auto sorted_in = bins;
        auto sorted_out = t;
        std::sort(sorted_in.begin(), sorted_in.end());
        std::sort(sorted_out.begin(), sorted_out.end());
        EXPECT_EQ(sorted_in, sorted_out)
            << "policy " << tourPolicyName(policy);
    }
}

TEST_F(TourTest, NearestNeighborBeatsRandomOrderOnGrid)
{
    // A shuffled 8x8 grid: greedy NN must produce a much shorter tour
    // than the shuffled creation order.
    std::vector<Bin *> bins;
    for (std::uint64_t i = 0; i < 64; ++i)
        bins.push_back(bin((i * 37) % 8, (i * 23) % 8));
    const auto creation = orderBins(TourPolicy::CreationOrder, bins, 2);
    const auto nn = orderBins(TourPolicy::NearestNeighbor, bins, 2);
    EXPECT_LT(tourLength(nn, 2), tourLength(creation, 2) / 2);
}

TEST_F(TourTest, HilbertVisitsNeighborsClose)
{
    std::vector<Bin *> bins;
    for (std::uint64_t x = 0; x < 8; ++x)
        for (std::uint64_t y = 0; y < 8; ++y)
            bins.push_back(bin(x, y));
    const auto t = orderBins(TourPolicy::Hilbert, bins, 2);
    // The Hilbert tour over a full grid moves one step at a time.
    EXPECT_EQ(tourLength(t, 2), 63u);
}

TEST_F(TourTest, HilbertFallsBackToSnakeFor3D)
{
    std::vector<Bin *> bins{bin(2, 0), bin(0, 0), bin(1, 0)};
    const auto h = orderBins(TourPolicy::Hilbert, bins, 3);
    const auto s = orderBins(TourPolicy::SortedSnake, bins, 3);
    EXPECT_EQ(h, s);
}

TEST_F(TourTest, TourLengthOfSingleBinIsZero)
{
    std::vector<Bin *> bins{bin(5, 5)};
    EXPECT_EQ(tourLength(bins, 2), 0u);
}

TEST(TourNames, RoundTrip)
{
    for (auto policy :
         {TourPolicy::CreationOrder, TourPolicy::SortedSnake,
          TourPolicy::NearestNeighbor, TourPolicy::Hilbert}) {
        TourPolicy parsed = policy == TourPolicy::Hilbert
                                ? TourPolicy::CreationOrder
                                : TourPolicy::Hilbert;
        EXPECT_TRUE(tryTourFromName(tourPolicyName(policy), &parsed));
        EXPECT_EQ(parsed, policy);
    }
    TourPolicy out = TourPolicy::NearestNeighbor;
    EXPECT_FALSE(tryTourFromName("bogus", &out));
    EXPECT_EQ(out, TourPolicy::NearestNeighbor) << "out must be untouched";
}

} // namespace
