// The study benchmark's own arithmetic, on synthetic stamp sets.
#include <gtest/gtest.h>

#include <vector>

#include "layer_math.hpp"

namespace studybench {
namespace {

TEST(Underfull, FullPoolLeavesOnlyRampUpAndDown) {
  // Two slots; both busy over [1, 3], one over [0, 1) and (3, 4].
  const std::vector<Interval> cells = {{0, 3}, {1, 4}};
  EXPECT_DOUBLE_EQ(underfull_seconds(cells, 0, 4, 2), 2.0);
}

TEST(Underfull, BackToBackHandoffIsNoGap) {
  // Slot 1 runs [0,2] then [2,4]; slot 2 runs [0,4]: never under-full.
  const std::vector<Interval> cells = {{0, 2}, {2, 4}, {0, 4}};
  EXPECT_DOUBLE_EQ(underfull_seconds(cells, 0, 4, 2), 0.0);
}

TEST(Underfull, EmptyWindowAndClipping) {
  EXPECT_DOUBLE_EQ(underfull_seconds({}, 0, 5, 4), 5.0);
  // Bodies reaching outside the window are clipped to it.
  const std::vector<Interval> cells = {{-1, 6}};
  EXPECT_DOUBLE_EQ(underfull_seconds(cells, 0, 5, 1), 0.0);
  EXPECT_DOUBLE_EQ(underfull_seconds(cells, 0, 5, 2), 5.0);
}

TEST(Underfull, TailOfOneHeavyCell) {
  // Four slots: all busy until 1, then one heavy cell alone until 10.
  const std::vector<Interval> cells = {{0, 1}, {0, 1}, {0, 1}, {0, 10}};
  EXPECT_DOUBLE_EQ(underfull_seconds(cells, 0, 10, 4), 9.0);
}

TEST(Overlap, ExclusiveAloneIsClean) {
  const std::vector<Interval> cells = {
      {0, 1, false}, {0, 1, false}, {1, 2, true}, {2, 3, false}};
  const std::vector<bool> bad = exclusive_overlaps(cells);
  EXPECT_EQ(bad, (std::vector<bool>{false, false, false, false}));
}

TEST(Overlap, DetectsEarlierAndLaterOverlap) {
  // Exclusive [1,2] overlaps a shared body that started earlier and ran
  // long; exclusive [5,6] overlaps one that starts inside it.
  const std::vector<Interval> cells = {
      {0, 1.5, false}, {1, 2, true}, {5, 6, true}, {5.5, 7, false}};
  const std::vector<bool> bad = exclusive_overlaps(cells);
  EXPECT_EQ(bad, (std::vector<bool>{false, true, true, false}));
}

TEST(Overlap, LongEarlierBodyBehindShortOnes) {
  // The overlapping body is not the latest-starting one before it.
  const std::vector<Interval> cells = {
      {0, 10, false}, {1, 2, false}, {3, 4, true}};
  EXPECT_EQ(exclusive_overlaps(cells),
            (std::vector<bool>{false, false, true}));
}

TEST(Overlap, TwoExclusivesOverlappingEachOther) {
  const std::vector<Interval> cells = {{0, 2, true}, {1, 3, true}};
  EXPECT_EQ(exclusive_overlaps(cells), (std::vector<bool>{true, true}));
}

TEST(Tail, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(tail_percentile(5), 5000u);      // too few: the median
  EXPECT_EQ(tail_percentile(20), 5000u);     // p50: 10 beyond
  EXPECT_EQ(tail_percentile(99), 5000u);     // p90 rank 90 leaves 9
  EXPECT_EQ(tail_percentile(100), 9000u);    // p90 rank 90 leaves 10
  EXPECT_EQ(tail_percentile(200), 9500u);    // p95 rank 190 leaves 10
  EXPECT_EQ(tail_percentile(694), 9500u);    // p95 rank 660 leaves 34
  EXPECT_EQ(tail_percentile(1000), 9900u);   // p99 rank 990 leaves 10
  EXPECT_EQ(tail_percentile(3470), 9900u);   // p99.9 leaves only 3
  EXPECT_EQ(tail_percentile(10000), 9990u);
  EXPECT_EQ(tail_percentile(100000), 9999u);
}

TEST(Tail, NearestRankValues) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile(xs, 5000), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 9000), 90.0);
  EXPECT_DOUBLE_EQ(percentile(xs, tail_percentile(xs.size())), 90.0);
  EXPECT_DOUBLE_EQ(percentile({}, 9000), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2, 4}), 2.5);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

TEST(Tally, FailedShareCountsEachCellOnce) {
  const std::vector<CellOutcome> cells = {
      {true, true, false, false},   // verified
      {true, false, false, false},  // unverified
      {false, false, true, false},  // quarantined
      {true, true, false, true},    // verified but lane-violating
      {true, false, false, true},   // unverified and lane-violating
  };
  const Tally t = tally(cells);
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.verified, 1u);
  EXPECT_EQ(t.failed, 4u);
  EXPECT_TRUE(t.balanced());
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.8);
}

TEST(Tally, CellWithoutOutcomeUnbalances) {
  const std::vector<CellOutcome> cells = {{true, true, false, false},
                                          {false, false, false, false}};
  const Tally t = tally(cells);
  EXPECT_FALSE(t.balanced());
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.0);
  EXPECT_DOUBLE_EQ(Tally{}.failed_share(), 0.0);
}

}  // namespace
}  // namespace studybench
