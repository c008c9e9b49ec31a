// Instrumentation-overhead bench for the observability subsystem
// (DESIGN.md §9.4): the SAME source is compiled twice — bench_obs with
// metrics enabled, bench_obs_nometrics with -DUSTREAM_NO_METRICS — and
// each row's name carries a /metrics or /nometrics suffix so the two JSON
// outputs merge into one file. `bench/run_gates.py obs` then gates every
// metrics row at >= 0.98x its nometrics twin via the gate's speedup
// pairs: enabled-but-idle instrumentation (counters ticking,
// spans observing, nobody scraping) must cost < 2% on the Ingest* and
// Merge* hot paths.
//
// The library's explicit instantiations (src/core/instantiations.cpp) are
// compiled with metrics ON, and template symbols have vague linkage — a
// nometrics TU that implicitly instantiated CoordinatedSampler<
// PairwiseHash, Unit> would let the linker silently substitute the
// metrics-on library copy and void the comparison. Every row therefore
// runs on bench-local ObsHash (a distinct type, same codegen as
// PairwiseHash), forcing a fresh instantiation of the sampler, the
// estimator, and MergeEngine::reduce in THIS translation unit under THIS
// build's USTREAM_NO_METRICS setting.
#include <benchmark/benchmark.h>

#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/coordinated_sampler.h"
#include "core/f0_estimator.h"
#include "core/merge_engine.h"
#include "hash/pairwise.h"
#include "obs/metrics.h"

#if USTREAM_METRICS_ENABLED
#define OBS_MODE "metrics"
#else
#define OBS_MODE "nometrics"
#endif

namespace {
using namespace ustream;

// Distinct-from-the-library hash type; identical codegen to PairwiseHash.
struct ObsHash : PairwiseHash {
  using PairwiseHash::PairwiseHash;
};

using ObsSampler = CoordinatedSampler<ObsHash, Unit>;
using ObsEstimator = BasicF0Estimator<ObsHash>;

constexpr std::size_t kStreamLen = 1 << 16;
constexpr std::size_t kBatchSpan = 256;
constexpr std::size_t kCapacity = 1024;

// Mirrors bench_throughput's saturated regime: sampler pre-filled with 1M
// distinct labels so nearly every add dies on the threshold compare — the
// regime where a per-batch counter would be the largest relative cost.
std::vector<std::uint64_t> distinct_stream(std::uint64_t seed) {
  std::vector<std::uint64_t> labels(kStreamLen);
  Xoshiro256 rng(seed);
  for (auto& l : labels) l = rng.next();
  return labels;
}

ObsSampler saturated_sampler() {
  ObsSampler sampler(kCapacity, 42);
  std::uint64_t x = 0;
  for (int i = 0; i < 1'000'000; ++i) sampler.add(SplitMix64::mix(++x));
  return sampler;
}

// Scalar add() carries no instrumentation at all — this row is the
// informational control: any metrics/nometrics delta here is pure
// benchmark noise (a ~2.4ns loop is frequency- and alignment-bound, and
// swings ~10% run to run on a shared VM), which is why the obs gate
// does NOT include it in the gated speedup pairs.
void BM_ObsIngestScalar(benchmark::State& state) {
  auto sampler = saturated_sampler();
  const auto labels = distinct_stream(99);
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.add(labels[i++ & (kStreamLen - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsIngestScalar)->Name("BM_ObsIngestScalar/" OBS_MODE);

// Sampler add_batch: one relaxed fetch_add per 256-label block.
void BM_ObsIngestBatch(benchmark::State& state) {
  auto sampler = saturated_sampler();
  const auto labels = distinct_stream(99);
  std::size_t offset = 0;
  for (auto _ : state) {
    sampler.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
}
BENCHMARK(BM_ObsIngestBatch)->Name("BM_ObsIngestBatch/" OBS_MODE);

// Estimator add_batch: the trace span's two clock reads on top of the
// per-copy counters, amortized over copies x 256 labels of work.
void BM_ObsEstimatorIngestBatch(benchmark::State& state) {
  EstimatorParams params;
  params.capacity = kCapacity;
  params.copies = 9;
  params.seed = 7;
  ObsEstimator est(params);
  const auto labels = distinct_stream(99);
  std::size_t offset = 0;
  for (auto _ : state) {
    est.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
}
BENCHMARK(BM_ObsEstimatorIngestBatch)->Name("BM_ObsEstimatorIngestBatch/" OBS_MODE);

// MergeEngine::reduce over 64 site sketches: one span + one counter per
// reduce. Both modes pay the same copy-the-inputs cost per iteration
// (reduce consumes its input), exactly as BM_MergeEngineSites does. The
// engine is pinned to 1 thread — the inline sequential fold — because a
// 2% floor cannot survive pool-scheduling noise on a contended VM, and
// the instrumentation under test fires before the schedule is chosen.
void BM_ObsMergeReduce(benchmark::State& state) {
  constexpr std::size_t kSites = 64;
  EstimatorParams params;
  params.capacity = kCapacity;
  params.copies = 5;
  params.seed = 9;
  std::vector<ObsEstimator> sketches;
  sketches.reserve(kSites);
  for (std::size_t s = 0; s < kSites; ++s) {
    ObsEstimator est(params);
    Xoshiro256 rng(s + 1);
    for (int i = 0; i < 20'000; ++i) est.add(rng.next());
    sketches.push_back(std::move(est));
  }
  MergeEngine engine(1);
  for (auto _ : state) {
    std::vector<ObsEstimator> parts = sketches;
    auto merged = engine.reduce(std::move(parts));
    benchmark::DoNotOptimize(merged->estimate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSites));
}
BENCHMARK(BM_ObsMergeReduce)->Name("BM_ObsMergeReduce/" OBS_MODE)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
