// DistinctSumEstimator (Theorem T3): sums over distinct labels, duplicate-
// insensitively.
#include "core/distinct_sum.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "stream/generators.h"

namespace ustream {
namespace {

TEST(DistinctSum, ExactWhileSmall) {
  DistinctSumEstimator est(0.1, 0.05);
  double want = 0.0;
  for (std::uint64_t x = 1; x <= 300; ++x) {
    est.add(x * 37, static_cast<double>(x));
    want += static_cast<double>(x);
  }
  EXPECT_DOUBLE_EQ(est.estimate_sum(), want);
  EXPECT_DOUBLE_EQ(est.estimate_distinct(), 300.0);
}

TEST(DistinctSum, LargeStreamAccuracy) {
  // 150k distinct labels with values in [1, 2]: bounded value ratio, the
  // regime the guarantee covers.
  DistinctSumEstimator est(0.1, 0.05, 71);
  Xoshiro256 rng(2);
  double truth = 0.0;
  for (int i = 0; i < 150'000; ++i) {
    const std::uint64_t label = rng.next();
    const double value = 1.0 + rng.uniform01();
    est.add(label, value);
    truth += value;
  }
  EXPECT_LT(relative_error(est.estimate_sum(), truth), 0.10);
}

TEST(DistinctSum, DuplicatesContributeOnce) {
  SyntheticStream stream({.distinct = 20'000, .total_items = 200'000, .zipf_alpha = 1.0,
                          .seed = 11, .value_lo = 5.0, .value_hi = 10.0});
  DistinctSumEstimator est(0.1, 0.05, 72);
  while (!stream.done()) {
    const Item item = stream.next();
    est.add(item.label, item.value);
  }
  EXPECT_LT(relative_error(est.estimate_sum(), stream.true_sum_distinct()), 0.10);
}

TEST(DistinctSum, NaiveSumWouldBeWrong) {
  // Guard the premise of the experiment: with 10x duplication the naive
  // per-item sum overshoots the distinct-sum truth by ~10x.
  SyntheticStream stream({.distinct = 5'000, .total_items = 50'000, .zipf_alpha = 0.0,
                          .seed = 13, .value_lo = 1.0, .value_hi = 1.0});
  double naive = 0.0;
  DistinctSumEstimator est(0.1, 0.05, 73);
  while (!stream.done()) {
    const Item item = stream.next();
    naive += item.value;
    est.add(item.label, item.value);
  }
  EXPECT_GT(naive / stream.true_sum_distinct(), 5.0);
  EXPECT_LT(relative_error(est.estimate_sum(), stream.true_sum_distinct()), 0.10);
}

TEST(DistinctSum, MeanEstimate) {
  DistinctSumEstimator est(0.1, 0.05, 74);
  Xoshiro256 rng(3);
  for (int i = 0; i < 100'000; ++i) est.add(rng.next(), 4.0);
  EXPECT_NEAR(est.estimate_mean(), 4.0, 1e-9);
}

TEST(DistinctSum, MergeEqualsConcat) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 75);
  DistinctSumEstimator whole(params), a(params), b(params);
  Xoshiro256 rng(4);
  for (int i = 0; i < 60'000; ++i) {
    const std::uint64_t label = rng.next();
    const double value = rng.uniform(1.0, 2.0);
    whole.add(label, value);
    (i % 2 ? a : b).add(label, value);
  }
  a.merge(b);
  // Same sampled set; summation order may differ, so compare to FP noise.
  EXPECT_NEAR(a.estimate_sum(), whole.estimate_sum(),
              1e-9 * whole.estimate_sum());
  EXPECT_DOUBLE_EQ(a.estimate_distinct(), whole.estimate_distinct());
}

TEST(DistinctSum, SerializeRoundtrip) {
  DistinctSumEstimator est(0.2, 0.1, 76);
  Xoshiro256 rng(5);
  for (int i = 0; i < 30'000; ++i) est.add(rng.next(), rng.uniform(0.0, 10.0));
  auto restored = DistinctSumEstimator::deserialize(est.serialize());
  EXPECT_DOUBLE_EQ(restored.estimate_sum(), est.estimate_sum());
  EXPECT_DOUBLE_EQ(restored.estimate_distinct(), est.estimate_distinct());
}

// The decoder sizes nothing from the capacity a frame declares (DESIGN.md
// §6.4): three empty copies declaring capacity 2^40 decode and stay small.
TEST(DistinctSum, DeserializeAllocatesFromBytesPresentNotDeclaredCapacity) {
  const std::uint64_t capacity = std::uint64_t{1} << 40;
  ByteWriter w;
  w.u8(2);  // estimator wire version
  w.u64(42);
  w.varint(capacity);
  w.varint(3);
  for (int c = 0; c < 3; ++c) {
    w.u8(1);  // sampler wire version
    w.u8(1);  // double values
    w.u64(7);
    w.varint(capacity);
    w.u8(0);  // level
    w.varint(0);
  }
  const DistinctSumEstimator est = DistinctSumEstimator::deserialize(w.data());
  EXPECT_EQ(est.num_copies(), 3u);
  EXPECT_EQ(est.copy(0).capacity(), capacity);
  EXPECT_EQ(est.estimate_sum(), 0.0);
  EXPECT_LT(est.bytes_used(), 4096u);
}

TEST(DistinctSum, IntegerValueVariant) {
  BasicDistinctSumEstimator<PairwiseHash, std::uint64_t> est(0.1, 0.05, 77);
  for (std::uint64_t x = 0; x < 100; ++x) est.add(x, 3);
  EXPECT_DOUBLE_EQ(est.estimate_sum(), 300.0);
}

TEST(DistinctSum, EmptyEstimates) {
  DistinctSumEstimator est(0.2, 0.1);
  EXPECT_DOUBLE_EQ(est.estimate_sum(), 0.0);
  EXPECT_DOUBLE_EQ(est.estimate_distinct(), 0.0);
  EXPECT_DOUBLE_EQ(est.estimate_mean(), 0.0);
}

}  // namespace
}  // namespace ustream
