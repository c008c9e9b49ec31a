// F0Estimator (Theorem T1): accuracy of the median-of-copies estimate,
// the predicate estimators, merge and serialization at the estimator level.
#include "core/f0_estimator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "hash/hash_family.h"
#include "stream/generators.h"

namespace ustream {
namespace {

TEST(F0Estimator, ExactWhileSmall) {
  F0Estimator est(0.1, 0.05);
  for (std::uint64_t x = 0; x < 500; ++x) est.add(x * 131);
  EXPECT_DOUBLE_EQ(est.estimate(), 500.0);
}

TEST(F0Estimator, AccuracyAtEpsilon10) {
  // One large stream, F0 = 200k >> capacity: estimate within 10%.
  F0Estimator est(0.10, 0.05, 1234);
  Xoshiro256 rng(1);
  constexpr std::size_t kDistinct = 200'000;
  for (std::size_t i = 0; i < kDistinct; ++i) est.add(rng.next());
  EXPECT_LT(relative_error(est.estimate(), static_cast<double>(kDistinct)), 0.10);
}

TEST(F0Estimator, EmpiricalFailureProbability) {
  // 60 independent trials at (eps=0.15, delta=0.05): the fraction of trials
  // with relative error > eps must be well under a conservative bound.
  constexpr double kEps = 0.15, kDelta = 0.05;
  constexpr int kTrials = 60;
  constexpr std::size_t kDistinct = 50'000;
  int failures = 0;
  for (int t = 0; t < kTrials; ++t) {
    F0Estimator est(kEps, kDelta, 1000 + static_cast<std::uint64_t>(t));
    Xoshiro256 rng(static_cast<std::uint64_t>(t) * 7919 + 3);
    for (std::size_t i = 0; i < kDistinct; ++i) est.add(rng.next());
    if (relative_error(est.estimate(), static_cast<double>(kDistinct)) > kEps) ++failures;
  }
  // Binomial(60, 0.05) exceeds 9 with probability < 2e-4.
  EXPECT_LE(failures, 9);
}

TEST(F0Estimator, DuplicatesDoNotMoveEstimate) {
  SyntheticStream stream({.distinct = 30'000, .total_items = 300'000, .zipf_alpha = 1.2,
                          .label_kind = LabelKind::kRandom64, .seed = 5});
  F0Estimator est(0.1, 0.05, 99);
  F0Estimator est_once(0.1, 0.05, 99);
  while (!stream.done()) est.add(stream.next().label);
  for (std::uint64_t label : stream.labels()) est_once.add(label);
  EXPECT_DOUBLE_EQ(est.estimate(), est_once.estimate());
}

TEST(F0Estimator, MergeEqualsConcatEstimate) {
  const EstimatorParams params = EstimatorParams::for_guarantee(0.1, 0.05, 7);
  F0Estimator whole(params), a(params), b(params);
  Xoshiro256 rng(8);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t x = rng.next();
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.estimate(), whole.estimate());
}

TEST(F0Estimator, SerializeRoundtrip) {
  F0Estimator est(0.2, 0.1, 31);
  Xoshiro256 rng(9);
  for (int i = 0; i < 50'000; ++i) est.add(rng.next());
  auto restored = F0Estimator::deserialize(est.serialize());
  EXPECT_DOUBLE_EQ(restored.estimate(), est.estimate());
  EXPECT_EQ(restored.num_copies(), est.num_copies());
  // Restored estimator stays mergeable with the original lineage.
  F0Estimator more(est.params());
  more.add(12345);
  restored.merge(more);
}

TEST(F0Estimator, CountIfPredicate) {
  // 40k labels, half even: the count-if estimate lands near 20k.
  F0Estimator est(0.1, 0.05, 17);
  for (std::uint64_t x = 0; x < 40'000; ++x) est.add(x);
  const double even = est.estimate_count_if([](std::uint64_t x) { return x % 2 == 0; });
  EXPECT_LT(relative_error(even, 20'000.0), 0.15);
}

TEST(F0Estimator, FractionIfPredicate) {
  F0Estimator est(0.1, 0.05, 19);
  for (std::uint64_t x = 0; x < 40'000; ++x) est.add(x);
  const double frac = est.estimate_fraction_if([](std::uint64_t x) { return x % 4 == 0; });
  EXPECT_NEAR(frac, 0.25, 0.05);
}

TEST(F0Estimator, FractionOnEmptyIsZero) {
  F0Estimator est(0.2, 0.1);
  EXPECT_DOUBLE_EQ(est.estimate_fraction_if([](std::uint64_t) { return true; }), 0.0);
  EXPECT_DOUBLE_EQ(est.estimate(), 0.0);
}

TEST(F0Estimator, CopiesUseDistinctSeeds) {
  F0Estimator est(EstimatorParams{.capacity = 16, .copies = 5, .seed = 3});
  for (std::uint64_t x = 0; x < 10'000; ++x) est.add(x);
  // With independent seeds, copies end at (generally) different sizes/levels;
  // at minimum their sample contents must differ.
  bool any_difference = false;
  auto first = est.copy(0).sample_labels();
  std::sort(first.begin(), first.end());
  for (std::size_t i = 1; i < est.num_copies(); ++i) {
    auto other = est.copy(i).sample_labels();
    std::sort(other.begin(), other.end());
    if (other != first) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(F0Estimator, MismatchedMergeRejected) {
  F0Estimator a(EstimatorParams{.capacity = 16, .copies = 3, .seed = 1});
  F0Estimator b(EstimatorParams{.capacity = 16, .copies = 5, .seed = 1});
  F0Estimator c(EstimatorParams{.capacity = 16, .copies = 3, .seed = 2});
  EXPECT_THROW(a.merge(b), InvalidArgument);
  EXPECT_FALSE(a.can_merge_with(c));
  EXPECT_THROW(a.merge(c), InvalidArgument);
}

TEST(F0Estimator, AlternativeHashInstantiations) {
  BasicF0Estimator<TabulationHash> tab(0.1, 0.05, 5);
  BasicF0Estimator<MurmurMixHash> mm(0.1, 0.05, 5);
  Xoshiro256 rng(10);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t x = rng.next();
    tab.add(x);
    mm.add(x);
  }
  EXPECT_LT(relative_error(tab.estimate(), 100'000.0), 0.10);
  EXPECT_LT(relative_error(mm.estimate(), 100'000.0), 0.10);
}

// Decoders size what they allocate from the bytes a buffer carries, never
// from the capacity it declares (DESIGN.md §6): a 16-byte header claiming
// capacity 2^40 must be refused as truncated, not answered with an
// allocation sized for 2^40 entries.
TEST(F0Estimator, DeserializeAllocatesFromBytesPresentNotDeclaredCapacity) {
  using Sampler = F0Estimator::Sampler;
  for (const int shift : {26, 40, 62}) {
    const std::uint64_t capacity = std::uint64_t{1} << shift;
    const auto sampler_header = [&](ByteWriter& w, std::uint64_t count) {
      w.u8(1);  // sampler wire version
      w.u8(0);  // Unit values
      w.u64(7);
      w.varint(capacity);
      w.u8(0);  // level
      w.varint(count);
    };

    // The estimator header alone: its one promised copy never follows.
    ByteWriter header;
    header.u8(1);  // estimator wire version
    header.u64(42);
    header.varint(capacity);
    header.varint(1);
    EXPECT_THROW(F0Estimator::deserialize(header.data()), SerializationError) << shift;

    // A sampler declaring capacity-many entries with no entry bytes.
    ByteWriter lying;
    sampler_header(lying, capacity);
    EXPECT_THROW(Sampler::deserialize(lying.data()), SerializationError) << shift;

    // Complete and well-formed, just empty: decodes, and stays small.
    ByteWriter empty;
    empty.u8(1);
    empty.u64(42);
    empty.varint(capacity);
    empty.varint(3);
    for (int c = 0; c < 3; ++c) sampler_header(empty, 0);
    const F0Estimator est = F0Estimator::deserialize(empty.data());
    EXPECT_EQ(est.num_copies(), 3u);
    EXPECT_EQ(est.copy(0).capacity(), capacity);
    EXPECT_EQ(est.estimate(), 0.0);
    EXPECT_LT(est.bytes_used(), 4096u) << shift;
  }
}

// The deserialized sampler's map is sized for the entries it holds; it must
// still take inserts, merges and level raises up to its real capacity.
TEST(F0Estimator, DeserializedSketchKeepsGrowing) {
  F0Estimator small(0.1, 0.05, 9);
  for (std::uint64_t i = 0; i < 200; ++i) small.add(SplitMix64::mix(i));
  F0Estimator restored = F0Estimator::deserialize(small.serialize());
  F0Estimator direct = small;
  std::vector<std::uint64_t> more(100'000);
  for (std::size_t i = 0; i < more.size(); ++i) more[i] = SplitMix64::mix(1'000'000 + i);
  restored.add_batch(more);
  direct.add_batch(more);
  EXPECT_EQ(restored.serialize(), direct.serialize());
}

}  // namespace
}  // namespace ustream
