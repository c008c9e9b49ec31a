// E20 — the frequency subsystem: batched ingest throughput vs the
// coordinated-sampler path on the SAME Zipf workload, and heavy-hitter
// recall over the union of 64 sites at heavy skew.
//
// Rows gated by `bench/run_gates.py freq` against bench/BENCH_freq.json:
//   * BM_FreqIngestBatch vs BM_SamplerHeavyKeyObserve — the freq bundle
//     (count-sketch + space-saver) must stay within 2x (>= 0.5x floor) of
//     the sampler path this subsystem replaces for heavy-key tracking:
//     the netmon superspreader's observe loop, whose per-item cost is a
//     table probe plus a per-source coordinated-sampler add. Measured the
//     freq bundle is ~1.7x FASTER — the floor guards against the batched
//     hash_block ingest rotting back to per-label hashing. (The raw
//     distinct sampler's SIMD threshold-reject batch path,
//     BM_SamplerIngestBatch below, is 20-50x faster than either: it
//     touches no per-label state once saturated. It is reported for
//     context and gated only by the baseline tolerance.)
//   * BM_FreqUnionRecall/64 — carries a `recall` counter (true top-k
//     found in the merged top-2k), gated at >= 0.95 by the --accuracy
//     spec. This is the ISSUE acceptance number: Zipf alpha = 1.5 over 64
//     sites.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/coordinated_sampler.h"
#include "freq/freq_sketch.h"
#include "freq/universal_sketch.h"
#include "hash/pairwise.h"
#include "netmon/superspreader.h"
#include "stream/zipf.h"

namespace {
using namespace ustream;

constexpr std::size_t kStreamLen = 1 << 16;  // pre-generated, RNG out of loop
constexpr std::size_t kBatchSpan = 256;      // labels per add_batch call

// The shared workload: Zipf-skewed labels, the regime heavy-hitter
// tracking exists for (and a fair one for the sampler comparator — both
// structures see duplicates-heavy traffic).
std::vector<std::uint64_t> zipf_stream(double alpha, std::size_t distinct,
                                       std::uint64_t seed) {
  ZipfDistribution zipf(distinct, alpha);
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> labels(kStreamLen);
  for (auto& l : labels) l = 0x9e3779b97f4a7c15ULL * zipf.sample(rng);
  return labels;
}

// --- batched ingest: freq bundle vs sampler, same stream -------------------

void BM_FreqIngestScalar(benchmark::State& state) {
  const auto labels = zipf_stream(1.5, 100'000, 11);
  FreqSketch sketch(FreqConfig{.depth = 4, .width_log2 = 12, .heavy_capacity = 64, .seed = 5});
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.add(labels[i++ & (kStreamLen - 1)]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqIngestScalar);

void BM_FreqIngestBatch(benchmark::State& state) {
  const auto labels = zipf_stream(1.5, 100'000, 11);
  FreqSketch sketch(FreqConfig{.depth = 4, .width_log2 = 12, .heavy_capacity = 64, .seed = 5});
  std::size_t offset = 0;
  for (auto _ : state) {
    sketch.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
}
BENCHMARK(BM_FreqIngestBatch);

// The gated comparator: the sampler-based heavy-key path (the netmon
// superspreader) on the SAME stream with an equivalent tracking budget.
// Each occurrence is a fresh destination, so heavy labels are exactly the
// superspreaders it hunts; per item it pays a source-table probe plus a
// per-source coordinated-sampler add — the apples-to-apples cost of
// tracking heavy keys with the sampler machinery.
void BM_SamplerHeavyKeyObserve(benchmark::State& state) {
  const auto labels = zipf_stream(1.5, 100'000, 11);
  SuperspreaderConfig config;
  config.table_capacity = 64;
  config.sampler_capacity = 32;
  config.admission_level = 0;
  config.seed = 5;
  SuperspreaderDetector detector(config);
  std::uint64_t destination = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    detector.observe(labels[i++ & (kStreamLen - 1)], ++destination);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerHeavyKeyObserve);

// The raw distinct sampler's batched path on the same stream: once
// saturated it SIMD-rejects duplicates without touching per-label state,
// so it is far faster than any per-label counter structure — context for
// the numbers above, gated only by the baseline tolerance.
void BM_SamplerIngestBatch(benchmark::State& state) {
  const auto labels = zipf_stream(1.5, 100'000, 11);
  CoordinatedSampler<PairwiseHash, Unit> sampler(1024, 5);
  std::size_t offset = 0;
  for (auto _ : state) {
    sampler.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
  state.counters["final_level"] = sampler.level();
}
BENCHMARK(BM_SamplerIngestBatch);

// The universal sketch's layered ingest (L freq layers behind one SIMD
// hash pass) — gated only by the baseline tolerance.
void BM_UniversalIngestBatch(benchmark::State& state) {
  const auto labels = zipf_stream(1.5, 100'000, 11);
  UniversalSketch us(UniversalConfig{.levels = 8, .depth = 4, .width_log2 = 10,
                                     .heavy_capacity = 32, .seed = 5});
  std::size_t offset = 0;
  for (auto _ : state) {
    us.add_batch(std::span<const std::uint64_t>(labels.data() + offset, kBatchSpan));
    offset = (offset + kBatchSpan) & (kStreamLen - 1);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatchSpan));
}
BENCHMARK(BM_UniversalIngestBatch);

// --- union heavy hitters at scale ------------------------------------------
//
// Arg: site count. The measured loop is the referee-side fold of the
// per-site summaries; the `recall` counter (true top-20 found in the
// merged top-40) is the E20 acceptance number the runner gates at 0.95.
void BM_FreqUnionRecall(benchmark::State& state) {
  const auto sites_count = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kItemsPerSite = 1 << 14;
  constexpr std::size_t kTop = 20;
  const FreqConfig config{.depth = 4, .width_log2 = 12, .heavy_capacity = 64, .seed = 9};

  ZipfDistribution zipf(1'000'000, 1.5);
  Xoshiro256 rng(21);
  std::unordered_map<std::uint64_t, std::uint64_t> truth;
  std::vector<FreqSketch> sites(sites_count, FreqSketch(config));
  std::vector<std::uint64_t> block(kBatchSpan);
  for (std::size_t s = 0; s < sites_count; ++s) {
    for (std::size_t i = 0; i < kItemsPerSite; i += kBatchSpan) {
      for (auto& l : block) {
        l = 0x9e3779b97f4a7c15ULL * zipf.sample(rng);
        ++truth[l];
      }
      sites[s].add_batch(block);
    }
  }

  FreqSketch merged(config);
  for (auto _ : state) {
    FreqSketch fold = sites[0];
    for (std::size_t s = 1; s < sites_count; ++s) fold.merge(sites[s]);
    benchmark::DoNotOptimize(fold.f2());
    merged = std::move(fold);
  }
  // No SetItemsProcessed: this row exists for the recall counter (gated by
  // the runner's --accuracy spec); its fold rate is a few dozen merges per
  // second and too noisy for the baseline tolerance to gate meaningfully.

  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows(truth.begin(), truth.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const auto reported = merged.top(2 * kTop);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < kTop && i < rows.size(); ++i) {
    for (const auto& hh : reported) {
      if (hh.label == rows[i].first) {
        ++hits;
        break;
      }
    }
  }
  state.counters["recall"] =
      static_cast<double>(hits) / static_cast<double>(std::min(kTop, rows.size()));
  state.counters["tracked"] = static_cast<double>(merged.heavy().size());
}
BENCHMARK(BM_FreqUnionRecall)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
