// E8 — merge: the referee-side cost. Merge time vs capacity and vs the
// number of sketches folded, plus serialization round-trip cost (the other
// half of what the referee does per message).
//
// The BM_Merge*Sites / BM_MergeBottomK* / BM_ContinuousQuery* rows are the
// merge-engine scaling grid (EXPERIMENTS.md E8m) and are gated against
// bench/BENCH_merge.json by `bench/run_gates.py merge`.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/random.h"
#include "core/coordinated_sampler.h"
#include "core/distinct_sampler.h"
#include "core/f0_estimator.h"
#include "core/merge_engine.h"
#include "distributed/continuous.h"

namespace {
using namespace ustream;

using Sampler = CoordinatedSampler<PairwiseHash, Unit>;

Sampler loaded_sampler(std::size_t capacity, std::uint64_t seed, std::uint64_t items) {
  Sampler s(capacity, 42);  // shared seed: mergeable
  Xoshiro256 rng(seed);
  for (std::uint64_t i = 0; i < items; ++i) s.add(rng.next());
  return s;
}

void BM_SamplerMerge_Capacity(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const Sampler a = loaded_sampler(capacity, 1, capacity * 8);
  const Sampler b = loaded_sampler(capacity, 2, capacity * 8);
  for (auto _ : state) {
    Sampler merged = a;
    merged.merge(b);
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SamplerMerge_Capacity)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)->Complexity();

void BM_EstimatorMergeChain(benchmark::State& state) {
  // Fold `t` site sketches into one, as the referee does.
  const auto sites = static_cast<std::size_t>(state.range(0));
  const EstimatorParams params{.capacity = 3600, .copies = 5, .seed = 9};
  std::vector<F0Estimator> sketches;
  for (std::size_t s = 0; s < sites; ++s) {
    F0Estimator est(params);
    Xoshiro256 rng(s + 1);
    for (int i = 0; i < 30'000; ++i) est.add(rng.next());
    sketches.push_back(std::move(est));
  }
  for (auto _ : state) {
    F0Estimator referee = sketches[0];
    for (std::size_t s = 1; s < sites; ++s) referee.merge(sketches[s]);
    benchmark::DoNotOptimize(referee.estimate());
  }
}
BENCHMARK(BM_EstimatorMergeChain)->Arg(2)->Arg(8)->Arg(32);

void BM_SamplerSerialize(benchmark::State& state) {
  const Sampler s = loaded_sampler(4096, 3, 100'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.serialize());
  }
}
BENCHMARK(BM_SamplerSerialize);

void BM_SamplerDeserialize(benchmark::State& state) {
  const Sampler s = loaded_sampler(4096, 4, 100'000);
  const auto bytes = s.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sampler::deserialize(bytes));
  }
}
BENCHMARK(BM_SamplerDeserialize);

// ---------------------------------------------------------------------------
// Merge-engine scaling grid: sequential site-order fold vs MergeEngine::
// reduce, over the referee's site counts, at 5 copies and at the oneshot
// referee's 37 (eps 0.1, delta 0.05). Site s ingests the labels
// [s * 2^16, s * 2^16 + 2^17), so neighbours overlap by half, as in
// bench/pipeline's oneshot_f0. Each iteration copies the inputs (reduce
// consumes them) with the timer paused, and the rows time wall clock, so
// the engine's pool threads count. items == sites merged, so
// items_per_second reads as "site merges per second". Args: {sites, copies}.

std::vector<F0Estimator> site_estimators(std::size_t sites, std::size_t copies) {
  const EstimatorParams params{.capacity = 3600, .copies = copies, .seed = 9};
  constexpr std::uint64_t kLabels = 1u << 17;
  std::vector<std::uint64_t> labels(kLabels);
  std::vector<F0Estimator> sketches;
  sketches.reserve(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    for (std::uint64_t i = 0; i < kLabels; ++i) labels[i] = SplitMix64::mix(s * kLabels / 2 + i);
    F0Estimator est(params);
    est.add_batch(labels);
    sketches.push_back(std::move(est));
  }
  return sketches;
}

void merge_grid(benchmark::internal::Benchmark* b) {
  for (const int sites : {4, 16, 64, 256}) b->Args({sites, 5});
  b->Args({64, 37});
  b->UseRealTime()->Unit(benchmark::kMicrosecond);
}

void BM_MergeFoldSites(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto sketches = site_estimators(sites, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<F0Estimator> parts = sketches;
    state.ResumeTiming();
    F0Estimator referee = std::move(parts[0]);
    for (std::size_t s = 1; s < sites; ++s) referee.merge(parts[s]);
    benchmark::DoNotOptimize(referee.estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites));
}
BENCHMARK(BM_MergeFoldSites)->Apply(merge_grid);

void BM_MergeEngineSites(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto sketches = site_estimators(sites, static_cast<std::size_t>(state.range(1)));
  MergeEngine engine;  // auto-sized to the machine, as collect() uses it
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<F0Estimator> parts = sketches;
    state.ResumeTiming();
    auto merged = engine.reduce(std::move(parts));
    benchmark::DoNotOptimize(merged->estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites));
}
BENCHMARK(BM_MergeEngineSites)->Apply(merge_grid);

// The referee's decode of one oneshot_f0 site frame's payload: an eps 0.1,
// delta 0.05 estimator (37 copies of capacity 3600) over 2^17 labels,
// about 664 KiB. items == frames decoded.
void BM_EstimatorDeserialize(benchmark::State& state) {
  const auto bytes = site_estimators(1, 37).front().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(F0Estimator::deserialize(bytes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["frame_kb"] = static_cast<double>(bytes.size()) / 1024.0;
}
BENCHMARK(BM_EstimatorDeserialize)->Unit(benchmark::kMicrosecond);

// BottomK union sampling: pairwise fold (t-1 two-way merges, each
// rebuilding the k-entry accumulator) vs the single-pass k-way heap merge.
std::vector<BottomKSampler> bottomk_sites(std::size_t sites, std::size_t k) {
  std::vector<BottomKSampler> parts;
  parts.reserve(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    BottomKSampler b(k, 42);
    Xoshiro256 rng(s + 7);
    for (std::size_t i = 0; i < 4 * k; ++i) b.add(rng.next(), 0.0);
    parts.push_back(std::move(b));
  }
  return parts;
}

void BM_MergeBottomKFold(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto parts = bottomk_sites(sites, 4096);
  for (auto _ : state) {
    BottomKSampler acc = parts[0];
    for (std::size_t s = 1; s < sites; ++s) acc.merge(parts[s]);
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites));
}
BENCHMARK(BM_MergeBottomKFold)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_MergeBottomKKway(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto parts = bottomk_sites(sites, 4096);
  std::vector<const BottomKSampler*> rest;
  for (std::size_t s = 1; s < sites; ++s) rest.push_back(&parts[s]);
  for (auto _ : state) {
    BottomKSampler acc = parts[0];
    acc.merge_many(std::span<const BottomKSampler* const>(rest));
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites));
}
BENCHMARK(BM_MergeBottomKKway)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Continuous-query cost at the referee: the full copy-and-remerge reference
// path vs the incremental epoch-tagged cache — warm (no new snapshots, the
// steady state of a dashboard polling faster than sites push) and dirty
// (exactly one site pushed between queries). items == queries.

ContinuousUnionMonitor loaded_monitor(std::size_t sites, std::uint64_t interval) {
  auto mon = ContinuousUnionMonitor(sites, interval,
                                    EstimatorParams::for_guarantee(0.1, 0.05, 29));
  Xoshiro256 rng(30);
  for (std::uint64_t i = 0; i < 2 * sites * interval; ++i) {
    mon.observe(rng.below(sites), rng.next());
  }
  return mon;
}

void BM_ContinuousQueryFull(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto mon = loaded_monitor(sites, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mon.estimate_full_remerge());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContinuousQueryFull)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ContinuousQueryIncremental(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto mon = loaded_monitor(sites, 256);
  benchmark::DoNotOptimize(mon.estimate());  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(mon.estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContinuousQueryIncremental)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ContinuousQueryIncrementalDirty(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kInterval = 256;
  auto mon = loaded_monitor(sites, kInterval);
  benchmark::DoNotOptimize(mon.estimate());
  Xoshiro256 rng(31);
  std::size_t site = 0;
  for (auto _ : state) {
    state.PauseTiming();  // one site pushes a fresh snapshot between queries
    for (std::uint64_t j = 0; j < kInterval; ++j) mon.observe(site, rng.next());
    site = (site + 1) % sites;
    state.ResumeTiming();
    benchmark::DoNotOptimize(mon.estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ContinuousQueryIncrementalDirty)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
