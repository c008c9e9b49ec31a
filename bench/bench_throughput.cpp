// E3 — Theorem T1 time: O(1) expected amortized processing per item.
// google-benchmark microbenchmarks of the update path: vs capacity (flat),
// vs copies (linear — each copy is an independent sampler), vs hash family,
// and the level-raise amortization (fresh stream of all-distinct labels,
// the worst case for eviction work).
//
// The Ingest* pairs compare the scalar add() path against the batched
// threshold-form add_batch() path across capacity and level regimes; they
// are the rows `bench/run_gates.py throughput` records in
// BENCH_throughput.json and gates on (including the >= 2x batch-speedup
// floor in the saturated regime).
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "common/random.h"
#include "core/coordinated_sampler.h"
#include "core/f0_estimator.h"
#include "hash/hash_family.h"

namespace {
using namespace ustream;

// --- scalar vs batch ingestion ---------------------------------------------
//
// Args: {capacity, saturated}.
//   saturated == 0: the stream draws from a pool of capacity/2 distinct
//     labels, so the level stays 0 and every add survives to a map probe
//     (the insert/lookup-bound regime).
//   saturated == 1: the sampler is pre-filled with 1M distinct labels so
//     the level sits around log2(1M/capacity) >= 1; nearly every add dies
//     on the threshold compare (the reject-bound regime the paper's O(1)
//     amortized claim lives in).
constexpr std::size_t kStreamLen = 1 << 16;  // pre-generated, RNG out of loop
constexpr std::size_t kBatchSpan = 256;      // labels per add_batch call

std::vector<std::uint64_t> ingest_stream(std::size_t capacity, bool saturated) {
  std::vector<std::uint64_t> labels(kStreamLen);
  Xoshiro256 rng(99);
  if (saturated) {
    for (auto& l : labels) l = rng.next();
  } else {
    const std::size_t pool = capacity < 4 ? 2 : capacity / 2;
    std::vector<std::uint64_t> distinct(pool);
    for (auto& l : distinct) l = rng.next();
    for (auto& l : labels) l = distinct[rng.next() % pool];
  }
  return labels;
}

CoordinatedSampler<PairwiseHash, Unit> ingest_sampler(std::size_t capacity, bool saturated) {
  CoordinatedSampler<PairwiseHash, Unit> sampler(capacity, 42);
  if (saturated) {
    std::uint64_t x = 0;
    for (int i = 0; i < 1'000'000; ++i) sampler.add(SplitMix64::mix(++x));
  }
  return sampler;
}

void BM_IngestScalar(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const bool saturated = state.range(1) != 0;
  auto sampler = ingest_sampler(capacity, saturated);
  const auto labels = ingest_stream(capacity, saturated);
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.add(labels[i++ & (kStreamLen - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["final_level"] = sampler.level();
}
BENCHMARK(BM_IngestScalar)
    ->Args({64, 0})->Args({1024, 0})->Args({16384, 0})
    ->Args({64, 1})->Args({1024, 1})->Args({16384, 1});

void BM_IngestBatch(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const bool saturated = state.range(1) != 0;
  auto sampler = ingest_sampler(capacity, saturated);
  const auto labels = ingest_stream(capacity, saturated);
  std::size_t offset = 0;
  for (auto _ : state) {
    sampler.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
  state.counters["final_level"] = sampler.level();
}
BENCHMARK(BM_IngestBatch)
    ->Args({64, 0})->Args({1024, 0})->Args({16384, 0})
    ->Args({64, 1})->Args({1024, 1})->Args({16384, 1});

// Same pair at the estimator layer (9 copies): the batch path loops
// copies-outer so each copy's hash constants stay in registers.
void BM_EstimatorIngestScalar(benchmark::State& state) {
  EstimatorParams params;
  params.capacity = 1024;
  params.copies = 9;
  params.seed = 7;
  F0Estimator est(params);
  const auto labels = ingest_stream(1024, true);
  std::size_t i = 0;
  for (auto _ : state) {
    est.add(labels[i++ & (kStreamLen - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimatorIngestScalar);

void BM_EstimatorIngestBatch(benchmark::State& state) {
  EstimatorParams params;
  params.capacity = 1024;
  params.copies = 9;
  params.seed = 7;
  F0Estimator est(params);
  const auto labels = ingest_stream(1024, true);
  std::size_t offset = 0;
  for (auto _ : state) {
    est.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
}
BENCHMARK(BM_EstimatorIngestBatch);

// A T2 site's whole job (the oneshot_f0 site build): a fresh eps 0.1 /
// delta 0.05 estimator (capacity 3600, 37 copies) ingests 2^17 distinct
// labels in 16384-label batches — six level raises per copy — then
// serializes its one message. Items are labels ingested.
void BM_EstimatorIngestFresh(benchmark::State& state) {
  constexpr std::size_t kLabels = 1 << 17;
  constexpr std::size_t kBatch = 16384;
  std::vector<std::uint64_t> labels(kLabels);
  Xoshiro256 rng(11);
  for (auto& l : labels) l = rng.next();
  std::size_t bytes = 0;
  for (auto _ : state) {
    F0Estimator est(0.1, 0.05, 7);
    for (std::size_t i = 0; i < kLabels; i += kBatch) {
      est.add_batch(std::span<const std::uint64_t>(labels.data() + i, kBatch));
    }
    const auto payload = est.serialize();
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kLabels));
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EstimatorIngestFresh)->Unit(benchmark::kMillisecond);

// Single-sampler update throughput vs capacity. Labels are pre-generated
// so the RNG is out of the measured loop.
void BM_SamplerAdd_Capacity(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  CoordinatedSampler<PairwiseHash, Unit> sampler(capacity, 42);
  std::vector<std::uint64_t> labels(1 << 16);
  Xoshiro256 rng(1);
  for (auto& l : labels) l = rng.next();
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.add(labels[i++ & (labels.size() - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["final_level"] = sampler.level();
}
BENCHMARK(BM_SamplerAdd_Capacity)->Arg(64)->Arg(1024)->Arg(16384)->Arg(262144);

// All-distinct stream (maximum insert/evict pressure).
void BM_SamplerAdd_AllDistinct(benchmark::State& state) {
  CoordinatedSampler<PairwiseHash, Unit> sampler(3600, 42);
  std::uint64_t x = 0;
  for (auto _ : state) {
    sampler.add(SplitMix64::mix(++x));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["level_raises"] = static_cast<double>(sampler.level_raises());
}
BENCHMARK(BM_SamplerAdd_AllDistinct);

// Heavy-duplicate stream (the fast path: most adds are below-level skips
// or duplicate lookups).
void BM_SamplerAdd_HeavyDuplicates(benchmark::State& state) {
  CoordinatedSampler<PairwiseHash, Unit> sampler(3600, 42);
  std::vector<std::uint64_t> labels(1024);
  Xoshiro256 rng(2);
  for (auto& l : labels) l = rng.next();
  std::size_t i = 0;
  for (auto _ : state) {
    sampler.add(labels[i++ & 1023]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerAdd_HeavyDuplicates);

// Estimator update vs number of copies (the delta knob's time cost).
void BM_EstimatorAdd_Copies(benchmark::State& state) {
  EstimatorParams params;
  params.capacity = 3600;
  params.copies = static_cast<std::size_t>(state.range(0));
  params.seed = 7;
  F0Estimator est(params);
  std::uint64_t x = 0;
  for (auto _ : state) {
    est.add(SplitMix64::mix(++x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EstimatorAdd_Copies)->Arg(1)->Arg(5)->Arg(9)->Arg(37);

// Hash-family ablation on the sampler hot path.
template <typename Hash>
void BM_SamplerAdd_Hash(benchmark::State& state) {
  CoordinatedSampler<Hash, Unit> sampler(3600, 42);
  std::uint64_t x = 0;
  for (auto _ : state) {
    sampler.add(SplitMix64::mix(++x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_TEMPLATE(BM_SamplerAdd_Hash, PairwiseHash);
BENCHMARK_TEMPLATE(BM_SamplerAdd_Hash, TabulationHash);
BENCHMARK_TEMPLATE(BM_SamplerAdd_Hash, MurmurMixHash);
BENCHMARK_TEMPLATE(BM_SamplerAdd_Hash, MultiplyShiftHash);

// Query cost: estimate() is O(copies) medians over O(1) state.
void BM_EstimatorQuery(benchmark::State& state) {
  F0Estimator est(0.1, 0.05, 9);
  Xoshiro256 rng(3);
  for (int i = 0; i < 200'000; ++i) est.add(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate());
  }
}
BENCHMARK(BM_EstimatorQuery);

}  // namespace

BENCHMARK_MAIN();
