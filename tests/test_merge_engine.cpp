// The merge engine's determinism contract: tree reduction on the worker
// pool — any pool size, any scheduling — produces serialized bytes
// IDENTICAL to the sequential site-order fold, for every sketch kind the
// referee handles, including degraded (partial-site) collections. Plus the
// ThreadPool's own little contract: every index exactly once, exceptions
// rethrown, nested calls inline.
#include "core/merge_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/coordinated_sampler.h"
#include "core/distinct_sampler.h"
#include "core/distinct_sum.h"
#include "core/f0_estimator.h"
#include "core/range_sampler.h"
#include "distributed/sharding.h"
#include "stream/generators.h"

namespace ustream {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(workers);
    constexpr std::size_t kN = 2048;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", workers " << workers;
    }
  }
}

TEST(ThreadPool, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, RethrowsTheFirstBodyException) {
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    ThreadPool pool(workers);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                            if (i == 7) throw std::runtime_error("boom");
                          }),
        std::runtime_error)
        << "workers " << workers;
    // The pool must remain usable after an exceptional job.
    std::atomic<std::size_t> done{0};
    pool.parallel_for(32, [&](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 32u);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u);
}

// Two threads sharing one pool (MergeEngine::shared() is process-wide):
// each job must still run every one of its own indices exactly once.
TEST(ThreadPool, ConcurrentCallersEachRunEveryIndexOnce) {
  ThreadPool pool(2);
  constexpr std::size_t kN = 64;
  constexpr int kJobs = 1000;
  const auto caller = [&pool](std::vector<int>& missed) {
    for (int job = 0; job < kJobs; ++job) {
      std::vector<std::atomic<int>> hits(kN);
      pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < kN; ++i) {
        if (hits[i].load() != 1) missed.push_back(job);
      }
    }
  };
  std::vector<int> missed_a, missed_b;
  std::thread a([&] { caller(missed_a); });
  std::thread b([&] { caller(missed_b); });
  a.join();
  b.join();
  EXPECT_TRUE(missed_a.empty()) << missed_a.size() << " bad indices, first in job " << missed_a[0];
  EXPECT_TRUE(missed_b.empty()) << missed_b.size() << " bad indices, first in job " << missed_b[0];
}

// ---------------------------------------------------------------------------
// Tree reduction == sequential site-order fold, as serialized bytes.

using Bytes = std::vector<std::uint8_t>;

// Per-site F0 estimators over overlapping random streams.
std::vector<F0Estimator> f0_sites(std::size_t t, const EstimatorParams& params,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> shared;
  for (int i = 0; i < 500; ++i) shared.push_back(rng.next());
  std::vector<F0Estimator> sites;
  sites.reserve(t);
  for (std::size_t s = 0; s < t; ++s) {
    F0Estimator est(params);
    for (int i = 0; i < 2000; ++i) {
      est.add(rng.bernoulli(0.3) ? shared[rng.below(shared.size())] : rng.next());
    }
    sites.push_back(std::move(est));
  }
  return sites;
}

template <typename Sketch>
Bytes fold_bytes(const std::vector<Sketch>& sites) {
  Sketch acc = sites.front();
  for (std::size_t s = 1; s < sites.size(); ++s) acc.merge(sites[s]);
  return acc.serialize();
}

TEST(MergeEngine, TreeReductionMatchesSequentialFoldForF0) {
  const auto params = EstimatorParams::for_guarantee(0.15, 0.1, 31);
  for (std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{5}, std::size_t{8}, std::size_t{16},
                        std::size_t{64}}) {
    const auto sites = f0_sites(t, params, 0xA11CE + t);
    const Bytes expected = fold_bytes(sites);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      MergeEngine engine(threads);
      auto parts = sites;  // reduce consumes its input
      const auto merged = engine.reduce(std::move(parts));
      ASSERT_TRUE(merged.has_value());
      EXPECT_EQ(merged->serialize(), expected) << "t=" << t << " threads=" << threads;
    }
  }
}

TEST(MergeEngine, ValuedSketchesKeepLeftmostValueUnderTreeReduction) {
  // Shared labels carry a DIFFERENT value at every site, so any deviation
  // from the fold's leftmost-wins rule changes the serialized bytes.
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 32);
  Xoshiro256 rng(91);
  std::vector<std::uint64_t> shared;
  for (int i = 0; i < 400; ++i) shared.push_back(rng.next());
  std::vector<DistinctSumEstimator> sites;
  for (std::size_t s = 0; s < 9; ++s) {
    DistinctSumEstimator est(params);
    for (int i = 0; i < 1500; ++i) {
      const bool hit = rng.bernoulli(0.5);
      const std::uint64_t label = hit ? shared[rng.below(shared.size())] : rng.next();
      est.add(label, static_cast<double>(s * 1000 + i));
    }
    sites.push_back(std::move(est));
  }
  const Bytes expected = fold_bytes(sites);
  MergeEngine engine(4);
  auto parts = sites;
  const auto merged = engine.reduce(std::move(parts));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->serialize(), expected);
}

TEST(MergeEngine, BottomKTreeReductionMatchesFold) {
  Xoshiro256 rng(17);
  std::vector<std::uint64_t> shared;
  for (int i = 0; i < 300; ++i) shared.push_back(rng.next());
  std::vector<BottomKSampler> sites;
  for (std::size_t s = 0; s < 12; ++s) {
    BottomKSampler b(128, 555);
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t label =
          rng.bernoulli(0.4) ? shared[rng.below(shared.size())] : rng.next();
      b.add(label, static_cast<double>(s));  // per-site values: leftmost must win
    }
    sites.push_back(std::move(b));
  }
  const Bytes expected = fold_bytes(sites);
  MergeEngine engine(3);
  auto parts = sites;
  const auto merged = engine.reduce(std::move(parts));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->serialize(), expected);
}

TEST(MergeEngine, RangeEstimatorTreeReductionMatchesFold) {
  const EstimatorParams params{.capacity = 256, .copies = 3, .seed = 77};
  Xoshiro256 rng(18);
  std::vector<RangeF0Estimator> sites;
  for (std::size_t s = 0; s < 7; ++s) {
    RangeF0Estimator est(params);
    for (int i = 0; i < 60; ++i) {
      const std::uint64_t lo = rng.next() % (RangeSampler::kDomain - 100'000);
      est.add_range(lo, lo + rng.below(100'000));
    }
    sites.push_back(std::move(est));
  }
  RangeF0Estimator fold = sites.front();
  for (std::size_t s = 1; s < sites.size(); ++s) fold.merge(sites[s]);
  MergeEngine engine(4);
  auto parts = sites;
  const auto merged = engine.reduce(std::move(parts));
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->num_copies(), fold.num_copies());
  for (std::size_t c = 0; c < fold.num_copies(); ++c) {
    EXPECT_EQ(merged->copy(c).serialize(), fold.copy(c).serialize()) << "copy " << c;
  }
}

TEST(MergeEngine, DegradedReductionSkipsMissingSitesInOrder) {
  const auto params = EstimatorParams::for_guarantee(0.15, 0.1, 33);
  const auto sites = f0_sites(10, params, 0xDE6);
  // Knock out sites 0, 4 and 9 (front, middle, back).
  std::vector<std::optional<F0Estimator>> accepted;
  std::vector<F0Estimator> present;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (s == 0 || s == 4 || s == 9) {
      accepted.emplace_back(std::nullopt);
    } else {
      accepted.emplace_back(sites[s]);
      present.push_back(sites[s]);
    }
  }
  const Bytes expected = fold_bytes(present);
  MergeEngine engine(4);
  const auto merged = engine.reduce(std::move(accepted));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->serialize(), expected);
}

TEST(MergeEngine, EmptyAndSingletonReductions) {
  MergeEngine engine(2);
  EXPECT_FALSE(engine.reduce(std::vector<BottomKSampler>{}).has_value());
  std::vector<std::optional<BottomKSampler>> all_missing(4);
  EXPECT_FALSE(engine.reduce(std::move(all_missing)).has_value());
  BottomKSampler one(16, 9);
  one.add(42, 1.0);
  const Bytes expected = one.serialize();
  std::vector<BottomKSampler> single;
  single.push_back(std::move(one));
  const auto merged = engine.reduce(std::move(single));
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->serialize(), expected);
}

// ---------------------------------------------------------------------------
// Copy-parallel and k-way estimator merges.

TEST(MergeEngine, CopyParallelMergeMatchesPlainMerge) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 34);
  const auto sites = f0_sites(2, params, 0xC0FFEE);
  F0Estimator plain = sites[0];
  plain.merge(sites[1]);
  ThreadPool pool(3);
  F0Estimator pooled = sites[0];
  pooled.merge(sites[1], pool);
  EXPECT_EQ(pooled.serialize(), plain.serialize());
}

TEST(MergeEngine, EstimatorMergeManyMatchesFold) {
  const auto params = EstimatorParams::for_guarantee(0.15, 0.1, 35);
  const auto sites = f0_sites(9, params, 0xF01D);
  const Bytes expected = fold_bytes(sites);
  ThreadPool pool(3);
  F0Estimator many = sites[0];
  std::vector<const F0Estimator*> rest;
  for (std::size_t s = 1; s < sites.size(); ++s) rest.push_back(&sites[s]);
  many.merge_many(std::span<const F0Estimator* const>(rest), pool);
  EXPECT_EQ(many.serialize(), expected);
}

TEST(MergeEngine, SamplerMergeManyMatchesFold) {
  using Sampler = CoordinatedSampler<PairwiseHash, double>;
  Xoshiro256 rng(55);
  std::vector<std::uint64_t> shared;
  for (int i = 0; i < 200; ++i) shared.push_back(rng.next());
  std::vector<Sampler> parts;
  for (std::size_t s = 0; s < 8; ++s) {
    Sampler p(64, 1234);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t label =
          rng.bernoulli(0.4) ? shared[rng.below(shared.size())] : rng.next();
      p.add(label, static_cast<double>(s + 1));
    }
    parts.push_back(std::move(p));
  }
  Sampler fold = parts[0];
  for (std::size_t s = 1; s < parts.size(); ++s) fold.merge(parts[s]);
  Sampler many = parts[0];
  std::vector<const Sampler*> rest;
  for (std::size_t s = 1; s < parts.size(); ++s) rest.push_back(&parts[s]);
  many.merge_many(std::span<const Sampler* const>(rest));
  EXPECT_EQ(many.serialize(), fold.serialize());
}

TEST(MergeEngine, BottomKMergeManyMatchesFold) {
  Xoshiro256 rng(56);
  std::vector<std::uint64_t> shared;
  for (int i = 0; i < 150; ++i) shared.push_back(rng.next());
  std::vector<BottomKSampler> parts;
  for (std::size_t s = 0; s < 16; ++s) {
    BottomKSampler b(64, 777);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t label =
          rng.bernoulli(0.5) ? shared[rng.below(shared.size())] : rng.next();
      b.add(label, static_cast<double>(s));
    }
    parts.push_back(std::move(b));
  }
  const Bytes expected = fold_bytes(parts);
  BottomKSampler many = parts[0];
  std::vector<const BottomKSampler*> rest;
  for (std::size_t s = 1; s < parts.size(); ++s) rest.push_back(&parts[s]);
  many.merge_many(std::span<const BottomKSampler* const>(rest));
  EXPECT_EQ(many.serialize(), expected);
}

// ---------------------------------------------------------------------------
// Copy-parallel reduction at the oneshot referee's shape (eps 0.1, delta
// 0.05: 37 copies of capacity 3600): every thread count lands on the
// sequential fold's bytes.

// Site s sees `sizes[s]` labels starting at s * stride.
std::vector<F0Estimator> ranged_sites(const EstimatorParams& params,
                                      const std::vector<std::size_t>& sizes,
                                      std::uint64_t stride) {
  std::vector<F0Estimator> sites;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<std::uint64_t> labels(sizes[s]);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = SplitMix64::mix(s * stride + i);
    }
    F0Estimator est(params);
    est.add_batch(labels);
    sites.push_back(std::move(est));
  }
  return sites;
}

// Both as built and as the referee holds them: decoded, with maps sized
// for their entries.
void expect_reduce_matches_fold(const std::vector<F0Estimator>& sites, const char* what) {
  const Bytes expected = fold_bytes(sites);
  std::vector<F0Estimator> decoded;
  for (const F0Estimator& site : sites) {
    decoded.push_back(F0Estimator::deserialize(site.serialize()));
  }
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    MergeEngine engine(threads);
    const std::vector<F0Estimator>* inputs[] = {&sites, &decoded};
    for (const auto* input : inputs) {
      auto parts = *input;
      const auto merged = engine.reduce(std::move(parts));
      ASSERT_TRUE(merged.has_value());
      EXPECT_EQ(merged->serialize(), expected)
          << what << ", threads=" << threads << (input == &decoded ? ", decoded" : "");
    }
  }
}

TEST(MergeEngine, CopyParallelReduceMatchesFoldAtOneshotShape) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 37);
  ASSERT_EQ(params.copies, 37u);
  // Sites at mixed levels: 2^10 .. 2^17 labels, neighbours overlapping.
  std::vector<std::size_t> sizes;
  for (int b = 10; b <= 17; ++b) sizes.push_back(std::size_t{1} << b);
  expect_reduce_matches_fold(ranged_sites(params, sizes, 1u << 9), "mixed levels");
  // Fully overlapping sites: one label set, six times.
  expect_reduce_matches_fold(ranged_sites(params, std::vector<std::size_t>(6, 1u << 14), 0),
                             "fully overlapping");
}

TEST(MergeEngine, CopyParallelDegradedReduceMatchesFoldAtOneshotShape) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 38);
  const auto sites = ranged_sites(params, std::vector<std::size_t>(9, 1u << 13), 1u << 12);
  std::vector<F0Estimator> present;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (s != 0 && s != 5 && s != 8) present.push_back(sites[s]);
  }
  const Bytes expected = fold_bytes(present);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::optional<F0Estimator>> accepted;
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (s == 0 || s == 5 || s == 8) {
        accepted.emplace_back(std::nullopt);
      } else {
        accepted.emplace_back(sites[s]);
      }
    }
    MergeEngine engine(threads);
    const auto merged = engine.reduce(std::move(accepted));
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->serialize(), expected) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// shard_and_merge rides the engine and stays exact.

TEST(MergeEngine, ShardAndMergeIsEngineAndThreadCountInvariant) {
  SyntheticStream stream({.distinct = 20'000, .total_items = 80'000,
                          .zipf_alpha = 1.0, .seed = 44});
  const auto items = stream.to_vector();
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 36);
  F0Estimator sequential(params);
  for (const Item& item : items) sequential.add(item.label);
  const Bytes expected = sequential.serialize();
  MergeEngine one(1), four(4);
  for (MergeEngine* engine : {&one, &four}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      const F0Estimator merged = shard_and_merge<F0Estimator>(
          items, threads, [&params] { return F0Estimator(params); },
          [](F0Estimator& sketch, std::span<const Item> chunk) {
            for (const Item& item : chunk) sketch.add(item.label);
          },
          engine);
      EXPECT_EQ(merged.serialize(), expected)
          << "threads=" << threads << " engine=" << engine->threads();
    }
  }
}

}  // namespace
}  // namespace ustream
