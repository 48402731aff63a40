// Tests for the reservoir kernel (paper Algorithm 1: Algorithm R draws, then
// Algorithm L skips): size bounds, counters, Eq. 1 weights, selection
// uniformity (chi-square), distributed merge.
#include "sampling/reservoir.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/stats.h"

namespace streamapprox::sampling {
namespace {

TEST(Reservoir, FillsUpToCapacity) {
  ReservoirSampler<int> reservoir(10, 1);
  for (int i = 0; i < 5; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 5u);
  EXPECT_EQ(reservoir.seen(), 5u);
  // Under-filled: every item kept in arrival order.
  EXPECT_EQ(reservoir.items(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Reservoir, NeverExceedsCapacity) {
  ReservoirSampler<int> reservoir(10, 2);
  for (int i = 0; i < 10000; ++i) {
    reservoir.offer(i);
    ASSERT_LE(reservoir.items().size(), 10u);
  }
  EXPECT_EQ(reservoir.items().size(), 10u);
  EXPECT_EQ(reservoir.seen(), 10000u);
}

TEST(Reservoir, WeightFollowsEquationOne) {
  ReservoirSampler<int> reservoir(10, 3);
  for (int i = 0; i < 5; ++i) reservoir.offer(i);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 1.0);  // C_i <= N_i
  for (int i = 5; i < 40; ++i) reservoir.offer(i);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 4.0);  // C_i/N_i = 40/10
}

TEST(Reservoir, ZeroCapacityKeepsNothing) {
  ReservoirSampler<int> reservoir(0, 4);
  for (int i = 0; i < 100; ++i) reservoir.offer(i);
  EXPECT_TRUE(reservoir.items().empty());
  EXPECT_EQ(reservoir.seen(), 100u);
}

TEST(Reservoir, ResetClearsAndRetunes) {
  ReservoirSampler<int> reservoir(5, 5);
  for (int i = 0; i < 20; ++i) reservoir.offer(i);
  reservoir.reset(8);
  EXPECT_EQ(reservoir.seen(), 0u);
  EXPECT_TRUE(reservoir.items().empty());
  EXPECT_EQ(reservoir.capacity(), 8u);
  for (int i = 0; i < 8; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 8u);
}

// Selection uniformity: over many trials, every stream position should land
// in the reservoir with probability N/n. Chi-square over 100 positions with
// 99 dof: critical value at alpha=0.001 is ~148.2.
TEST(Reservoir, SelectionIsUniform) {
  constexpr int kStream = 100;
  constexpr int kCapacity = 10;
  constexpr int kTrials = 20000;
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(kCapacity, 1000 + t);
    for (int i = 0; i < kStream; ++i) reservoir.offer(i);
    for (int item : reservoir.items()) hits[item] += 1.0;
  }
  const std::vector<double> expected(
      kStream, kTrials * static_cast<double>(kCapacity) / kStream);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

TEST(Reservoir, SampleMeanTracksStreamMean) {
  ReservoirSampler<double> reservoir(500, 7);
  streamapprox::RunningStats stream;
  streamapprox::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.gaussian(50.0, 10.0);
    stream.add(x);
    reservoir.offer(x);
  }
  streamapprox::RunningStats sample;
  for (double x : reservoir.items()) sample.add(x);
  EXPECT_NEAR(sample.mean(), stream.mean(), 2.0);  // ~4 sigma of SE
}

TEST(Reservoir, TakeItemsMovesOut) {
  ReservoirSampler<int> reservoir(4, 8);
  for (int i = 0; i < 4; ++i) reservoir.offer(i);
  auto items = reservoir.take_items();
  EXPECT_EQ(items.size(), 4u);
  EXPECT_TRUE(reservoir.items().empty());
  EXPECT_EQ(reservoir.seen(), 4u);  // counter unaffected
}

TEST(ReservoirMerge, CountsAccumulate) {
  ReservoirSampler<int> a(10, 9);
  ReservoirSampler<int> b(10, 10);
  for (int i = 0; i < 100; ++i) a.offer(i);
  for (int i = 100; i < 150; ++i) b.offer(i);
  a.merge(b);
  EXPECT_EQ(a.seen(), 150u);
  EXPECT_EQ(a.items().size(), 10u);
}

TEST(ReservoirMerge, EmptySidesAreNoOps) {
  ReservoirSampler<int> a(10, 11);
  ReservoirSampler<int> b(10, 12);
  for (int i = 0; i < 20; ++i) a.offer(i);
  const auto before = a.items();
  a.merge(b);  // empty rhs
  EXPECT_EQ(a.items(), before);
  EXPECT_EQ(a.seen(), 20u);

  ReservoirSampler<int> c(10, 13);
  c.merge(a);  // empty lhs adopts rhs sample
  EXPECT_EQ(c.seen(), 20u);
  EXPECT_EQ(c.items().size(), 10u);
}

TEST(ReservoirMerge, ProportionalRepresentation) {
  // Merge a reservoir that saw 9000 items with one that saw 1000: about 90%
  // of merged slots should come from the first stream.
  constexpr int kTrials = 2000;
  double from_big = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> big(20, 2000 + t);
    ReservoirSampler<int> small(20, 7000 + t);
    for (int i = 0; i < 9000; ++i) big.offer(1);
    for (int i = 0; i < 1000; ++i) small.offer(2);
    big.merge(small);
    for (int item : big.items()) {
      if (item == 1) from_big += 1.0;
    }
  }
  const double share = from_big / (kTrials * 20.0);
  EXPECT_NEAR(share, 0.9, 0.02);
}

// Distributed execution (§3.2): merging w workers' local reservoirs must
// still select every stream position uniformly. Chi-square over positions,
// 99 dof, alpha=0.001 critical ~148.2.
TEST(ReservoirMerge, MergedSelectionIsUniform) {
  constexpr int kStream = 100;
  constexpr int kCapacity = 10;
  constexpr int kWorkers = 4;
  constexpr int kTrials = 20000;
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    std::vector<ReservoirSampler<int>> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back(kCapacity, 50000 + t * kWorkers + w);
    }
    // Round-robin distribution, as the engines do.
    for (int i = 0; i < kStream; ++i) workers[i % kWorkers].offer(i);
    ReservoirSampler<int> merged = std::move(workers[0]);
    for (int w = 1; w < kWorkers; ++w) merged.merge(workers[w]);
    EXPECT_EQ(merged.seen(), static_cast<std::uint64_t>(kStream));
    EXPECT_LE(merged.items().size(), static_cast<std::size_t>(kCapacity));
    for (int item : merged.items()) hits[item] += 1.0;
  }
  const std::vector<double> expected(
      kStream, kTrials * static_cast<double>(kCapacity) / kStream);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

// The adaptive kernel below runs Algorithm R draws while k/seen ≥
// 1/kSkipAheadRatio and Algorithm L skips after; every stream here is long
// enough to cross that switch.
TEST(ReservoirKernel, SizeAndCounterAcrossTheSwitch) {
  ReservoirSampler<int> reservoir(16, 14);
  for (int i = 0; i < 5000; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 16u);
  EXPECT_EQ(reservoir.seen(), 5000u);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 5000.0 / 16.0);
}

TEST(ReservoirKernel, UnderFilledKeepsAll) {
  ReservoirSampler<int> reservoir(100, 15);
  for (int i = 0; i < 30; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 30u);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 1.0);
}

TEST(ReservoirKernel, SelectionIsUniformAcrossTheSwitch) {
  constexpr int kStream = 100;
  constexpr int kCapacity = 4;  // switches to Algorithm L at position 64
  constexpr int kTrials = 20000;
  static_assert(kCapacity * kSkipAheadRatio < kStream);
  std::vector<double> hits(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> reservoir(kCapacity, 4000 + t);
    for (int i = 0; i < kStream; ++i) reservoir.offer(i);
    for (int item : reservoir.items()) hits[item] += 1.0;
  }
  const std::vector<double> expected(
      kStream, kTrials * static_cast<double>(kCapacity) / kStream);
  EXPECT_LT(streamapprox::chi_square(hits, expected), 148.2);
}

TEST(ReservoirKernel, ResetRestartsCleanly) {
  ReservoirSampler<int> reservoir(8, 16);
  for (int i = 0; i < 1000; ++i) reservoir.offer(i);
  reservoir.reset();
  EXPECT_EQ(reservoir.seen(), 0u);
  for (int i = 0; i < 8; ++i) reservoir.offer(i);
  EXPECT_EQ(reservoir.items().size(), 8u);
  EXPECT_DOUBLE_EQ(reservoir.weight(), 1.0);
}

// The adaptive kernel and pure Algorithm R (skip_ahead = false) draw
// statistically identical samples: compare their selection frequencies on
// the same stream with the two-sample chi-square statistic
// sum (O_a - O_r)^2 / (O_a + O_r), which is chi-square with dof =
// positions - 1 when both samplers share one distribution.
TEST(ReservoirKernel, MatchesAlgorithmRDistribution) {
  constexpr int kStream = 60;
  constexpr int kCapacity = 2;  // switches to Algorithm L at position 32
  constexpr int kTrials = 30000;
  static_assert(kCapacity * kSkipAheadRatio < kStream);
  std::vector<double> hits_r(kStream, 0.0);
  std::vector<double> hits_a(kStream, 0.0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler<int> r(kCapacity, 5000 + t, /*skip_ahead=*/false);
    ReservoirSampler<int> a(kCapacity, 90000 + t);
    for (int i = 0; i < kStream; ++i) {
      r.offer(i);
      a.offer(i);
    }
    for (int item : r.items()) hits_r[item] += 1.0;
    for (int item : a.items()) hits_a[item] += 1.0;
  }
  double two_sample = 0.0;
  for (int i = 0; i < kStream; ++i) {
    const double total = hits_a[i] + hits_r[i];
    if (total <= 0.0) continue;
    const double diff = hits_a[i] - hits_r[i];
    two_sample += diff * diff / total;
  }
  // 59 dof, alpha=0.001 critical ~98.3.
  EXPECT_LT(two_sample, 98.3);
}

}  // namespace
}  // namespace streamapprox::sampling
