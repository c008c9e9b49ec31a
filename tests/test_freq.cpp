// The frequency subsystem: CountSketch point/F2 estimates, SpaceSaver's
// deterministic intervals, the FreqSketch bundle, and the layered
// UniversalSketch — plus the superspreader fusion stage that rides the
// SpaceSaver.
//
// The load-bearing assertions mirror test_sampler_merge.cpp: merges must
// be associative, commutative and merge-tree invariant DOWN TO THE BYTES,
// because the referee's MergeEngine tree-reduces freq payloads and the
// 1-shard and 4-shard collection planes must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "freq/count_sketch.h"
#include "freq/freq_sketch.h"
#include "freq/space_saver.h"
#include "freq/universal_sketch.h"
#include "netmon/superspreader.h"
#include "stream/zipf.h"

namespace ustream {
namespace {

// A skewed label stream with exact ground-truth counts on the side.
struct SkewedStream {
  std::vector<std::uint64_t> labels;
  std::unordered_map<std::uint64_t, std::uint64_t> truth;

  SkewedStream(std::size_t items, std::size_t distinct, double alpha,
               std::uint64_t seed) {
    ZipfDistribution zipf(distinct, alpha);
    Xoshiro256 rng(seed);
    labels.reserve(items);
    for (std::size_t i = 0; i < items; ++i) {
      // Mix the rank so the heavy labels are not just 1, 2, 3, ...
      const std::uint64_t label = 0x9e3779b97f4a7c15ULL * zipf.sample(rng);
      labels.push_back(label);
      ++truth[label];
    }
  }

  // True top-k labels by (count desc, label asc) — the report order.
  std::vector<std::uint64_t> true_top(std::size_t k) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> rows(truth.begin(), truth.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < rows.size() && i < k; ++i) out.push_back(rows[i].first);
    return out;
  }
};

// ---------------------------------------------------------------------------
// CountSketch

TEST(CountSketch, BatchIngestIsBitIdenticalToScalar) {
  const SkewedStream stream(20'000, 4'000, 1.2, 1);
  CountSketch scalar(4, 10, 7), batched(4, 10, 7);
  for (std::uint64_t label : stream.labels) scalar.add(label);
  batched.add_batch(stream.labels);
  EXPECT_EQ(batched.serialize(), scalar.serialize());
  EXPECT_EQ(batched.items_processed(), stream.labels.size());
}

TEST(CountSketch, EstimatesConcentrateOnHeavyLabels) {
  const SkewedStream stream(60'000, 10'000, 1.5, 2);
  CountSketch cs(4, 12, 9);
  cs.add_batch(stream.labels);
  // The error bound is O(sqrt(F2 / width)); heavy labels must land within
  // a few multiples of it.
  double f2 = 0.0;
  for (const auto& [label, count] : stream.truth) {
    f2 += static_cast<double>(count) * static_cast<double>(count);
  }
  const double tolerance = 6.0 * std::sqrt(f2 / static_cast<double>(cs.width()));
  for (std::uint64_t label : stream.true_top(20)) {
    const auto truth = static_cast<double>(stream.truth.at(label));
    EXPECT_NEAR(static_cast<double>(cs.estimate(label)), truth, tolerance)
        << "label " << label;
  }
  EXPECT_NEAR(cs.l2_squared(), f2, 0.25 * f2);
}

TEST(CountSketch, MergeEqualsConcatByteForByte) {
  const SkewedStream stream(30'000, 5'000, 1.3, 3);
  CountSketch whole(4, 11, 5), a(4, 11, 5), b(4, 11, 5);
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    whole.add(stream.labels[i]);
    ((i % 2 == 0) ? a : b).add(stream.labels[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.serialize(), whole.serialize());
}

TEST(CountSketch, RoundTripAndMismatchRejection) {
  CountSketch cs(5, 9, 17);
  Xoshiro256 rng(4);
  for (int i = 0; i < 5'000; ++i) cs.add(rng.next());
  const auto bytes = cs.serialize();
  EXPECT_EQ(CountSketch::deserialize(bytes).serialize(), bytes);

  CountSketch wrong_seed(5, 9, 18), wrong_depth(4, 9, 17), wrong_width(5, 8, 17);
  EXPECT_THROW(cs.merge(wrong_seed), InvalidArgument);
  EXPECT_THROW(cs.merge(wrong_depth), InvalidArgument);
  EXPECT_THROW(cs.merge(wrong_width), InvalidArgument);
  EXPECT_THROW(CountSketch(8, 8, 0), InvalidArgument);  // depth*(w+1) > 61
}

// ---------------------------------------------------------------------------
// SpaceSaver

TEST(SpaceSaver, ExactWhenDistinctFitsCapacity) {
  SpaceSaver ss(64);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  Xoshiro256 rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t label = rng.below(50);  // 50 distinct < 64 capacity
    ss.add(label);
    ++truth[label];
  }
  EXPECT_EQ(ss.absent_bound(), 0u);
  EXPECT_EQ(ss.size(), truth.size());
  for (const auto& [label, count] : truth) {
    const auto bound = ss.estimate(label);
    EXPECT_EQ(bound.upper, count);
    EXPECT_EQ(bound.lower, count);
  }
}

TEST(SpaceSaver, IntervalInvariantsOnSkewedStream) {
  const SkewedStream stream(50'000, 8'000, 1.4, 6);
  SpaceSaver ss(48);
  for (std::uint64_t label : stream.labels) ss.add(label);

  EXPECT_EQ(ss.total_weight(), stream.labels.size());
  // m never exceeds the minimum tracked count.
  std::uint64_t min_count = ~std::uint64_t{0};
  for (const auto& e : ss.top(ss.size())) min_count = std::min(min_count, e.count);
  EXPECT_LE(ss.absent_bound(), min_count);

  for (const auto& [label, count] : stream.truth) {
    const auto bound = ss.estimate(label);
    if (ss.contains(label)) {
      EXPECT_LE(bound.lower, count) << "label " << label;
      EXPECT_GE(bound.upper, count) << "label " << label;
    } else {
      EXPECT_LE(count, ss.absent_bound()) << "label " << label;
    }
  }
  // guaranteed_at_least really is a guarantee.
  for (const auto& e : ss.guaranteed_at_least(100)) {
    EXPECT_GE(stream.truth.at(e.label), 100u) << "label " << e.label;
  }
}

TEST(SpaceSaver, MergedIntervalsStillCoverTruth) {
  const SkewedStream stream(40'000, 6'000, 1.5, 7);
  constexpr std::size_t kParts = 4;
  std::vector<SpaceSaver> parts(kParts, SpaceSaver(32));
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    parts[i % kParts].add(stream.labels[i]);
  }
  SpaceSaver merged = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) merged.merge(parts[p]);

  EXPECT_EQ(merged.total_weight(), stream.labels.size());
  for (const auto& [label, count] : stream.truth) {
    const auto bound = merged.estimate(label);
    EXPECT_LE(bound.lower, count) << "label " << label;
    if (merged.contains(label)) {
      EXPECT_GE(bound.upper, count) << "label " << label;
    } else {
      EXPECT_LE(count, merged.absent_bound()) << "label " << label;
    }
  }
}

// The byte-level merge algebra MergeEngine relies on: any merge tree over
// the same parts serializes identically (merge does not truncate, entries
// are written label-sorted).
TEST(SpaceSaver, MergeIsAssociativeCommutativeAndTreeInvariantInBytes) {
  const SkewedStream stream(24'000, 4'000, 1.3, 8);
  constexpr std::size_t kParts = 6;
  std::vector<SpaceSaver> parts(kParts, SpaceSaver(24));
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    parts[i % kParts].add(stream.labels[i]);
  }

  // Sequential site-order fold — the reference.
  SpaceSaver fold = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) fold.merge(parts[p]);
  const auto reference = fold.serialize();

  // Reversed order (commutativity under folding).
  SpaceSaver reversed = parts[kParts - 1];
  for (std::size_t p = kParts - 1; p-- > 0;) reversed.merge(parts[p]);
  EXPECT_EQ(reversed.serialize(), reference);

  // Balanced tree (associativity): ((0+1)+(2+3))+(4+5).
  SpaceSaver left = parts[0], mid = parts[2], right = parts[4];
  left.merge(parts[1]);
  mid.merge(parts[3]);
  right.merge(parts[5]);
  left.merge(mid);
  left.merge(right);
  EXPECT_EQ(left.serialize(), reference);

  // Random permutations of the fold order.
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::size_t> order{0, 1, 2, 3, 4, 5};
    for (std::size_t i = order.size(); i-- > 1;) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    SpaceSaver acc = parts[order[0]];
    for (std::size_t p = 1; p < order.size(); ++p) acc.merge(parts[order[p]]);
    EXPECT_EQ(acc.serialize(), reference) << "trial " << trial;
  }
}

TEST(SpaceSaver, MergeWithEmptyIsIdentity) {
  const SkewedStream stream(10'000, 2'000, 1.2, 10);
  SpaceSaver ss(32);
  for (std::uint64_t label : stream.labels) ss.add(label);
  const auto before = ss.serialize();
  ss.merge(SpaceSaver(32));
  EXPECT_EQ(ss.serialize(), before);
}

TEST(SpaceSaver, MismatchedCapacityRejected) {
  SpaceSaver a(16), b(32);
  EXPECT_THROW(a.merge(b), InvalidArgument);
  EXPECT_THROW(SpaceSaver(0), InvalidArgument);
}

TEST(SpaceSaver, RoundTripPreservesBytes) {
  const SkewedStream stream(20'000, 3'000, 1.4, 11);
  SpaceSaver ss(40);
  for (std::uint64_t label : stream.labels) ss.add(label);
  const auto bytes = ss.serialize();
  SpaceSaver restored = SpaceSaver::deserialize(bytes);
  EXPECT_EQ(restored.serialize(), bytes);
  EXPECT_EQ(restored.absent_bound(), ss.absent_bound());
  EXPECT_EQ(restored.total_weight(), ss.total_weight());
  // The restored heap still evicts correctly: keep ingesting.
  for (int i = 0; i < 1'000; ++i) restored.add(0xdeadULL + static_cast<unsigned>(i));
  EXPECT_LE(restored.size(), restored.capacity());
}

// Decoders size what they allocate from the bytes present (DESIGN.md §6):
// a complete 10-byte space-saver declaring capacity 2^40 decodes to an
// empty summary without reserving 2^40 slots.
TEST(SpaceSaver, DeserializeAllocatesFromBytesPresentNotDeclaredCapacity) {
  for (const int shift : {26, 40, 62}) {
    const std::uint64_t capacity = std::uint64_t{1} << shift;
    ByteWriter w;
    w.u8(1);  // wire version
    w.varint(capacity);
    w.varint(0);  // absent bound
    w.varint(0);  // total weight
    w.varint(0);  // entries
    const SpaceSaver ss = SpaceSaver::deserialize(w.data());
    EXPECT_EQ(ss.capacity(), capacity);
    EXPECT_EQ(ss.size(), 0u);
    EXPECT_LT(ss.bytes_used(), 4096u) << shift;
    EXPECT_FALSE(ss.can_merge_with(SpaceSaver(64)));
  }
}

// The decoded summary's storage is sized for its entries; it still fills
// to capacity and evicts like the original.
TEST(SpaceSaver, DeserializedSummaryKeepsEvicting) {
  SpaceSaver ss(40);
  for (std::uint64_t label = 0; label < 10; ++label) ss.add(label, label + 1);
  SpaceSaver restored = SpaceSaver::deserialize(ss.serialize());
  Xoshiro256 rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t label = rng.below(400);
    ss.add(label);
    restored.add(label);
  }
  EXPECT_EQ(restored.serialize(), ss.serialize());
}

// A count-sketch header whose counters are not in the buffer is refused
// before the declared shape (up to 8 x 2^20 counters) is allocated.
TEST(CountSketch, DeserializeRefusesCountersTheBytesDoNotCarry) {
  ByteWriter w;
  w.u8(1);  // wire version
  w.u64(42);
  w.u8(8);   // depth
  w.u8(20);  // log2 width
  w.varint(0);
  for (int i = 0; i < 100; ++i) w.svarint(0);
  EXPECT_THROW(CountSketch::deserialize(w.data()), SerializationError);
}

// ---------------------------------------------------------------------------
// FreqSketch

TEST(FreqSketch, BatchIngestIsBitIdenticalToScalar) {
  const SkewedStream stream(20'000, 4'000, 1.3, 12);
  FreqConfig config{.depth = 4, .width_log2 = 10, .heavy_capacity = 32, .seed = 13};
  FreqSketch scalar(config), batched(config);
  for (std::uint64_t label : stream.labels) scalar.add(label);
  batched.add_batch(stream.labels);
  EXPECT_EQ(batched.serialize(), scalar.serialize());
}

TEST(FreqSketch, EstimateRespectsDeterministicBounds) {
  const SkewedStream stream(50'000, 8'000, 1.5, 14);
  FreqSketch sketch(FreqConfig{.depth = 4, .width_log2 = 11, .heavy_capacity = 48, .seed = 15});
  sketch.add_batch(stream.labels);
  for (const auto& hh : sketch.top(48)) {
    EXPECT_GE(hh.estimate, hh.lower);
    EXPECT_LE(hh.estimate, hh.upper);
    EXPECT_EQ(sketch.estimate(hh.label), hh.estimate);
  }
  // top(k) comes back in (upper desc, label asc) order.
  const auto top = sketch.top(16);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_TRUE(top[i - 1].upper > top[i].upper ||
                (top[i - 1].upper == top[i].upper && top[i - 1].label < top[i].label));
  }
  EXPECT_DOUBLE_EQ(sketch.f1(), static_cast<double>(stream.labels.size()));
}

TEST(FreqSketch, MergeTreeInvariantInBytes) {
  const SkewedStream stream(32'000, 5'000, 1.4, 16);
  const FreqConfig config{.depth = 4, .width_log2 = 10, .heavy_capacity = 24, .seed = 17};
  constexpr std::size_t kParts = 8;
  std::vector<FreqSketch> parts(kParts, FreqSketch(config));
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    parts[i % kParts].add(stream.labels[i]);
  }

  FreqSketch fold = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) fold.merge(parts[p]);
  const auto reference = fold.serialize();

  // Pairwise tree, exactly the MergeEngine shape at 4 shards.
  std::vector<FreqSketch> level = parts;
  while (level.size() > 1) {
    std::vector<FreqSketch> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      FreqSketch m = level[i];
      m.merge(level[i + 1]);
      next.push_back(std::move(m));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  EXPECT_EQ(level[0].serialize(), reference);

  FreqSketch reversed = parts[kParts - 1];
  for (std::size_t p = kParts - 1; p-- > 0;) reversed.merge(parts[p]);
  EXPECT_EQ(reversed.serialize(), reference);
}

TEST(FreqSketch, RoundTripAndMismatchRejection) {
  const SkewedStream stream(10'000, 2'000, 1.3, 18);
  const FreqConfig config{.depth = 4, .width_log2 = 10, .heavy_capacity = 16, .seed = 19};
  FreqSketch sketch(config);
  sketch.add_batch(stream.labels);
  const auto bytes = sketch.serialize();
  EXPECT_EQ(FreqSketch::deserialize(bytes).serialize(), bytes);

  FreqSketch wrong_seed(FreqConfig{.depth = 4, .width_log2 = 10, .heavy_capacity = 16, .seed = 20});
  FreqSketch wrong_capacity(FreqConfig{.depth = 4, .width_log2 = 10, .heavy_capacity = 8, .seed = 19});
  EXPECT_FALSE(sketch.can_merge_with(wrong_seed));
  EXPECT_FALSE(sketch.can_merge_with(wrong_capacity));
  EXPECT_THROW(sketch.merge(wrong_seed), InvalidArgument);
}

// The ISSUE acceptance shape in-process: heavy hitters over the UNION of
// many sites, recall >= 0.95 against exact ground truth at Zipf skew.
TEST(FreqSketch, UnionHeavyHitterRecallAtZipfSkew) {
  const SkewedStream stream(128'000, 20'000, 1.5, 21);
  const FreqConfig config{.depth = 4, .width_log2 = 12, .heavy_capacity = 64, .seed = 22};
  constexpr std::size_t kSites = 16;
  std::vector<FreqSketch> sites(kSites, FreqSketch(config));
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    sites[i % kSites].add(stream.labels[i]);
  }
  FreqSketch merged = sites[0];
  for (std::size_t s = 1; s < kSites; ++s) merged.merge(sites[s]);

  constexpr std::size_t kTop = 20;
  const auto truth = stream.true_top(kTop);
  const auto reported = merged.top(2 * kTop);
  std::size_t hits = 0;
  for (std::uint64_t label : truth) {
    for (const auto& hh : reported) {
      if (hh.label == label) {
        ++hits;
        break;
      }
    }
  }
  const double recall = static_cast<double>(hits) / static_cast<double>(truth.size());
  EXPECT_GE(recall, 0.95) << hits << "/" << truth.size();
}

// ---------------------------------------------------------------------------
// UniversalSketch

TEST(UniversalSketch, BatchIngestIsBitIdenticalToScalar) {
  const SkewedStream stream(20'000, 4'000, 1.3, 23);
  const UniversalConfig config{.levels = 6, .depth = 4, .width_log2 = 9,
                               .heavy_capacity = 24, .seed = 24};
  UniversalSketch scalar(config), batched(config);
  for (std::uint64_t label : stream.labels) scalar.add(label);
  batched.add_batch(stream.labels);
  EXPECT_EQ(batched.serialize(), scalar.serialize());
}

TEST(UniversalSketch, GSumEstimatesTrackExactMoments) {
  const SkewedStream stream(60'000, 8'000, 1.3, 25);
  UniversalSketch us(UniversalConfig{.levels = 8, .depth = 4, .width_log2 = 11,
                                     .heavy_capacity = 48, .seed = 26});
  us.add_batch(stream.labels);

  double f2 = 0.0, entropy = 0.0;
  const auto f1 = static_cast<double>(stream.labels.size());
  for (const auto& [label, count] : stream.truth) {
    const auto c = static_cast<double>(count);
    f2 += c * c;
    entropy -= (c / f1) * std::log2(c / f1);
  }
  EXPECT_DOUBLE_EQ(us.f1(), f1);
  EXPECT_NEAR(us.f2(), f2, 0.3 * f2);
  EXPECT_NEAR(us.entropy(), entropy, 0.3 * entropy);
}

TEST(UniversalSketch, MergeTreeInvariantInBytes) {
  const SkewedStream stream(24'000, 4'000, 1.4, 27);
  const UniversalConfig config{.levels = 6, .depth = 4, .width_log2 = 9,
                               .heavy_capacity = 16, .seed = 28};
  constexpr std::size_t kParts = 4;
  std::vector<UniversalSketch> parts(kParts, UniversalSketch(config));
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    parts[i % kParts].add(stream.labels[i]);
  }
  UniversalSketch fold = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) fold.merge(parts[p]);
  const auto reference = fold.serialize();

  UniversalSketch tree_left = parts[0], tree_right = parts[2];
  tree_left.merge(parts[1]);
  tree_right.merge(parts[3]);
  tree_left.merge(tree_right);
  EXPECT_EQ(tree_left.serialize(), reference);

  UniversalSketch reversed = parts[3];
  reversed.merge(parts[2]);
  reversed.merge(parts[1]);
  reversed.merge(parts[0]);
  EXPECT_EQ(reversed.serialize(), reference);
}

TEST(UniversalSketch, RoundTripAndMismatchRejection) {
  const SkewedStream stream(12'000, 2'000, 1.3, 29);
  const UniversalConfig config{.levels = 5, .depth = 4, .width_log2 = 9,
                               .heavy_capacity = 16, .seed = 30};
  UniversalSketch us(config);
  us.add_batch(stream.labels);
  const auto bytes = us.serialize();
  EXPECT_EQ(UniversalSketch::deserialize(bytes).serialize(), bytes);

  UniversalSketch wrong_levels(UniversalConfig{.levels = 6, .depth = 4, .width_log2 = 9,
                                               .heavy_capacity = 16, .seed = 30});
  UniversalSketch wrong_seed(UniversalConfig{.levels = 5, .depth = 4, .width_log2 = 9,
                                             .heavy_capacity = 16, .seed = 31});
  EXPECT_FALSE(us.can_merge_with(wrong_levels));
  EXPECT_FALSE(us.can_merge_with(wrong_seed));
  EXPECT_THROW(us.merge(wrong_levels), InvalidArgument);
  EXPECT_THROW(UniversalSketch(UniversalConfig{.levels = 0}), InvalidArgument);
  EXPECT_THROW(UniversalSketch(UniversalConfig{.levels = 17}), InvalidArgument);
}

// All sites carve out identical level sets (the sampling hash rides the
// shared seed): layer j at every site summarizes the same slice of the
// label space, so the merged sketch's per-layer counters and weights are
// EXACTLY the union stream's. (The SpaceSaver component is merge-tree
// invariant over the same parts but intentionally not identical to a
// one-pass summary — its intervals widen under partitioning — so the
// byte-for-byte claim applies to the exact components.)
TEST(UniversalSketch, MergedSitesMatchUnionStreamOnExactComponents) {
  const SkewedStream stream(20'000, 3'000, 1.4, 32);
  const UniversalConfig config{.levels = 6, .depth = 4, .width_log2 = 9,
                               .heavy_capacity = 16, .seed = 33};
  UniversalSketch whole(config), a(config), b(config);
  for (std::size_t i = 0; i < stream.labels.size(); ++i) {
    whole.add(stream.labels[i]);
    ((i % 2 == 0) ? a : b).add(stream.labels[i]);
  }
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.f1(), whole.f1());
  for (std::size_t j = 0; j < a.levels(); ++j) {
    // Same level sets + exact counter addition: the count-sketch planes
    // agree to the byte, and each layer saw the same total weight.
    EXPECT_EQ(a.layer(j).count_sketch().serialize(),
              whole.layer(j).count_sketch().serialize())
        << "layer " << j;
    EXPECT_EQ(a.layer(j).items_processed(), whole.layer(j).items_processed())
        << "layer " << j;
  }
}

// ---------------------------------------------------------------------------
// Superspreader frequency fusion

SuperspreaderConfig fusion_config(std::size_t fusion_capacity) {
  SuperspreaderConfig config;
  config.table_capacity = 16;
  config.sampler_capacity = 32;
  config.admission_level = 1;
  config.seed = 0xabcULL;
  config.fusion_capacity = fusion_capacity;
  return config;
}

TEST(SuperspreaderFusion, FusionOffKeepsV1WireBytes) {
  SuperspreaderDetector detector(fusion_config(0));
  Xoshiro256 rng(34);
  for (int i = 0; i < 5'000; ++i) detector.observe(rng.below(64), rng.next());
  const auto bytes = detector.serialize();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], 1u);  // the pre-fusion wire version, byte for byte
  EXPECT_EQ(SuperspreaderDetector::deserialize(bytes).serialize(), bytes);
}

TEST(SuperspreaderFusion, FusionOnRoundTripsAndRejectsMixes) {
  SuperspreaderDetector fused(fusion_config(256));
  Xoshiro256 rng(35);
  for (int i = 0; i < 20'000; ++i) {
    fused.observe(rng.below(512), rng.next());
  }
  const auto bytes = fused.serialize();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes[0], 2u);
  EXPECT_EQ(SuperspreaderDetector::deserialize(bytes).serialize(), bytes);

  SuperspreaderDetector classic(fusion_config(0));
  EXPECT_FALSE(fused.can_merge_with(classic));
  EXPECT_THROW(fused.merge(classic), InvalidArgument);
}

TEST(SuperspreaderFusion, TailSingletonsStopChurningTheTable) {
  // One true spreader (4k distinct destinations) buried in a huge tail of
  // one-contact sources. With classic one-coin admission every surviving
  // singleton evicts a tracked source; with fusion the singletons rarely
  // reach 2 guaranteed survivals, so the spreader stays tracked.
  const std::uint64_t spreader = 0x5eedULL;
  auto run = [&](std::size_t fusion_capacity) {
    SuperspreaderDetector detector(fusion_config(fusion_capacity));
    Xoshiro256 rng(36);
    for (int i = 0; i < 4'000; ++i) {
      detector.observe(spreader, rng.next());
      // 8 fresh singleton sources between every spreader contact.
      for (int j = 0; j < 8; ++j) detector.observe(rng.next(), rng.next());
    }
    return detector.estimate(spreader);
  };
  const double fused_estimate = run(1024);
  EXPECT_GT(fused_estimate, 1'000.0);  // tracked, with most contacts seen
  // The fused detector must do at least as well as classic admission under
  // this adversarial tail (classic may or may not keep the spreader —
  // that's the churn the fusion stage removes).
  EXPECT_GE(fused_estimate, run(0) * 0.5);
}

TEST(SuperspreaderFusion, MergeCombinesFusedCountsAcrossLinks) {
  // The same spreader split across two links: neither link alone reaches
  // the admission bar, but the merged fusion stage carries the union
  // counts forward, exactly like the per-source samplers do.
  SuperspreaderConfig config = fusion_config(128);
  config.fusion_min_admit = 4;
  SuperspreaderDetector a(config), b(config);
  Xoshiro256 rng(37);
  for (int i = 0; i < 2'000; ++i) {
    const std::uint64_t destination = rng.next();
    ((i % 2 == 0) ? a : b).observe(0x7eadULL, destination);
  }
  a.merge(b);
  const auto bytes = a.serialize();
  EXPECT_EQ(SuperspreaderDetector::deserialize(bytes).serialize(), bytes);
}

}  // namespace
}  // namespace ustream
