/** @file Unit tests for the tour helpers: tour length and super-bin
 *  regrouping. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "threads/tour.hh"

namespace
{

using namespace lsched::threads;

std::deque<Bin> storage;

Bin *
bin(std::uint64_t x, std::uint64_t y = 0, std::uint64_t z = 0)
{
    storage.emplace_back();
    storage.back().coords[0] = x;
    storage.back().coords[1] = y;
    storage.back().coords[2] = z;
    storage.back().id = static_cast<std::uint32_t>(storage.size() - 1);
    return &storage.back();
}

Bin *
inSuperBin(std::uint32_t superBin)
{
    Bin *b = bin(0);
    b->superBin = superBin;
    return b;
}

std::vector<std::uint32_t>
ids(const std::vector<Bin *> &bins)
{
    std::vector<std::uint32_t> out;
    for (const Bin *b : bins)
        out.push_back(b->id);
    return out;
}

class TourTest : public ::testing::Test
{
  protected:
    void TearDown() override { storage.clear(); }
};

TEST_F(TourTest, TourLengthSumsManhattanHops)
{
    // A 2x2 grid walked row by row, the second row reversed: unit
    // steps only.
    const std::vector<Bin *> snake{bin(0, 0), bin(0, 1), bin(1, 1),
                                   bin(1, 0)};
    EXPECT_EQ(tourLength(snake, 2), 3u);
    // The same grid in row-major order pays a diagonal hop.
    const std::vector<Bin *> rows{bin(0, 0), bin(0, 1), bin(1, 0),
                                  bin(1, 1)};
    EXPECT_EQ(tourLength(rows, 2), 4u);
    // Only the first @p dims coordinates count.
    EXPECT_EQ(tourLength(rows, 1), 1u);
}

TEST_F(TourTest, TourLengthOfSingleBinIsZero)
{
    std::vector<Bin *> bins{bin(5, 5)};
    EXPECT_EQ(tourLength(bins, 2), 0u);
}

TEST_F(TourTest, EmptyTourHasZeroLength)
{
    EXPECT_EQ(tourLength({}, 3), 0u);
}

TEST_F(TourTest, ReversedTourHasTheSameLength)
{
    std::vector<Bin *> tour{bin(3, 9), bin(0, 0), bin(7, 2), bin(1, 5)};
    const std::uint64_t forward = tourLength(tour, 2);
    // |3-0|+|9-0| + |0-7|+|0-2| + |7-1|+|2-5|
    EXPECT_EQ(forward, 12u + 9u + 9u);
    std::reverse(tour.begin(), tour.end());
    EXPECT_EQ(tourLength(tour, 2), forward);
}

TEST_F(TourTest, ThreeDimensionalHopsSumEveryAxis)
{
    const std::vector<Bin *> tour{bin(0, 0, 0), bin(1, 2, 3),
                                  bin(1, 2, 0)};
    EXPECT_EQ(tourLength(tour, 3), 6u + 3u);
    // The third axis is ignored below three dims.
    EXPECT_EQ(tourLength(tour, 2), 3u);
}

TEST_F(TourTest, FarApartCoordinatesDoNotWrap)
{
    // The hop is taken as max - min, so a step down is not an
    // unsigned wrap-around.
    const std::uint64_t far = std::uint64_t{1} << 62;
    const std::vector<Bin *> tour{bin(far), bin(1), bin(far + 1)};
    EXPECT_EQ(tourLength(tour, 1), 2 * far - 1);
}

TEST_F(TourTest, GroupBySuperBinsOfEmptyTourIsEmpty)
{
    EXPECT_TRUE(groupBySuperBins({}).empty());
}

TEST_F(TourTest, GroupBySuperBinsLeavesAnUngroupedTourInOrder)
{
    // Flat placements put every bin in kNoSuperBin: the creation-order
    // tour passes through unchanged.
    std::vector<Bin *> tour{bin(4), bin(1), bin(3), bin(0), bin(2)};
    EXPECT_EQ(ids(groupBySuperBins(tour)), ids(tour));
}

TEST_F(TourTest, GroupBySuperBinsOrdersSuperBinsByIdAndKeepsTourOrder)
{
    // Super-bins first met in the order 2, 0, 1; within each, the
    // tour's order survives the regrouping.
    const std::vector<Bin *> tour{inSuperBin(2), inSuperBin(0),
                                  inSuperBin(kNoSuperBin), inSuperBin(2),
                                  inSuperBin(1), inSuperBin(0),
                                  inSuperBin(2)};
    EXPECT_EQ(ids(groupBySuperBins(tour)),
              (std::vector<std::uint32_t>{1, 5, 4, 0, 3, 6, 2}));
}

} // namespace
