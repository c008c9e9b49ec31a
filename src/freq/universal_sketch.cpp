#include "freq/universal_sketch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/random.h"
#include "hash/batch.h"
#include "hash/level.h"
#include "obs/metrics.h"

namespace ustream {

namespace {

FreqConfig layer_config(const UniversalConfig& config, std::size_t layer) {
  FreqConfig fc;
  fc.depth = config.depth;
  fc.width_log2 = config.width_log2;
  fc.heavy_capacity = config.heavy_capacity;
  fc.seed = SeedSequence(config.seed).child(layer);
  return fc;
}

double g_square(double x) { return x * x; }
double g_xlog2(double x) { return x > 0.0 ? x * std::log2(x) : 0.0; }

}  // namespace

UniversalSketch::UniversalSketch(const UniversalConfig& config)
    : config_(config), sample_hash_(SeedSequence(config.seed).child(0x9eULL)) {
  USTREAM_REQUIRE(config.levels >= 1 && config.levels <= kMaxLevels,
                  "universal-sketch level count out of range");
  layers_.reserve(config.levels);
  for (std::size_t j = 0; j < config.levels; ++j) {
    layers_.emplace_back(layer_config(config, j));
  }
}

std::size_t UniversalSketch::level_of(std::uint64_t label) const noexcept {
  const auto lvl = static_cast<std::size_t>(
      hash_level(sample_hash_(label), PairwiseHash::kBits));
  return std::min(lvl, layers_.size() - 1);
}

void UniversalSketch::add(std::uint64_t label) {
  const std::size_t lvl = level_of(label);
  for (std::size_t j = 0; j <= lvl; ++j) layers_[j].add(label);
}

void UniversalSketch::add_batch(std::span<const std::uint64_t> labels) {
  USTREAM_COUNTER_ADD("ustream_freq_batch_items_total", labels.size());
  // Partition labels into per-layer substreams with one SIMD hash pass,
  // then feed each layer through its own batched ingest. Layer j receives
  // every label whose sampling level reaches j, so the expected total
  // routed volume is < 2x the input regardless of the layer count.
  std::vector<std::vector<std::uint64_t>> routed(layers_.size());
  routed[0].reserve(labels.size());
  std::uint64_t h[kBatchBlock];
  for (std::size_t i = 0; i < labels.size(); i += kBatchBlock) {
    const std::size_t n = std::min(kBatchBlock, labels.size() - i);
    hash_block(sample_hash_, labels.data() + i, h, n, /*reject_mask=*/0);
    for (std::size_t j = 0; j < n; ++j) {
      const auto lvl = std::min(
          static_cast<std::size_t>(hash_level(h[j], PairwiseHash::kBits)),
          layers_.size() - 1);
      for (std::size_t l = 0; l <= lvl; ++l) routed[l].push_back(labels[i + j]);
    }
  }
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (!routed[l].empty()) layers_[l].ingest_batch(routed[l]);
  }
}

double UniversalSketch::f1() const noexcept { return layers_[0].f1(); }

double UniversalSketch::g_sum(double (*g)(double)) const {
  const std::size_t top = layers_.size() - 1;
  double y = 0.0;
  for (std::size_t j = layers_.size(); j-- > 0;) {
    double layer_sum = 0.0;
    for (const auto& hh : layers_[j].top(config_.heavy_capacity)) {
      const double val = g(static_cast<double>(hh.estimate));
      if (j == top) {
        layer_sum += val;
      } else {
        // Hitters that survive to the next layer were already counted in
        // Y_{j+1} (twice, after doubling); subtracting once rebalances.
        layer_sum += level_of(hh.label) >= j + 1 ? -val : val;
      }
    }
    y = j == top ? layer_sum : 2.0 * y + layer_sum;
    if (y < 0.0) y = 0.0;
  }
  return y;
}

double UniversalSketch::f2() const { return g_sum(&g_square); }

double UniversalSketch::entropy() const {
  const double f1_total = f1();
  if (f1_total <= 0.0) return 0.0;
  // H = log2(F1) - (1/F1) * sum f(x) log2 f(x).
  const double y = g_sum(&g_xlog2);
  const double h = std::log2(f1_total) - y / f1_total;
  return h < 0.0 ? 0.0 : h;
}

std::size_t UniversalSketch::bytes_used() const noexcept {
  std::size_t total = sizeof(*this);
  for (const FreqSketch& layer : layers_) total += layer.bytes_used();
  return total;
}

bool UniversalSketch::can_merge_with(const UniversalSketch& other) const noexcept {
  if (config_.seed != other.config_.seed || layers_.size() != other.layers_.size()) {
    return false;
  }
  for (std::size_t j = 0; j < layers_.size(); ++j) {
    if (!layers_[j].can_merge_with(other.layers_[j])) return false;
  }
  return true;
}

void UniversalSketch::merge(const UniversalSketch& other) {
  USTREAM_REQUIRE(can_merge_with(other),
                  "merge requires universal sketches with identical configuration");
  for (std::size_t j = 0; j < layers_.size(); ++j) layers_[j].merge(other.layers_[j]);
}

void UniversalSketch::serialize(ByteWriter& w) const {
  w.u8(kWireVersion);
  w.u64(config_.seed);
  w.u8(static_cast<std::uint8_t>(layers_.size()));
  for (const FreqSketch& layer : layers_) layer.serialize(w);
}

std::vector<std::uint8_t> UniversalSketch::serialize() const {
  ByteWriter w(16 + layers_.size() * (64 + (config_.depth << config_.width_log2)));
  serialize(w);
  return w.take();
}

UniversalSketch UniversalSketch::deserialize(ByteReader& r) {
  if (r.u8() != kWireVersion) throw SerializationError("bad universal-sketch version");
  const std::uint64_t seed = r.u64();
  const std::size_t levels = r.u8();
  if (levels < 1 || levels > kMaxLevels) {
    throw SerializationError("universal-sketch level count out of range");
  }
  std::vector<FreqSketch> layers;
  layers.reserve(levels);
  for (std::size_t j = 0; j < levels; ++j) layers.push_back(FreqSketch::deserialize(r));
  UniversalConfig config;
  config.levels = levels;
  config.depth = layers[0].config().depth;
  config.width_log2 = layers[0].config().width_log2;
  config.heavy_capacity = layers[0].config().heavy_capacity;
  config.seed = seed;
  UniversalSketch s(config);
  // A freshly built sketch carries the canonical per-layer seeds and
  // shapes for this root seed; a payload whose layers disagree (tampered
  // or mixed provenance) is rejected before it can poison a merge.
  for (std::size_t j = 0; j < levels; ++j) {
    if (!s.layers_[j].can_merge_with(layers[j])) {
      throw SerializationError("universal-sketch layer shape mismatch");
    }
  }
  s.layers_ = std::move(layers);
  return s;
}

UniversalSketch UniversalSketch::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto s = deserialize(r);
  if (!r.done()) throw SerializationError("trailing bytes after universal-sketch");
  return s;
}

}  // namespace ustream
