#include "freq/freq_sketch.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace ustream {

FreqSketch::FreqSketch(const FreqConfig& config)
    : config_(config),
      sketch_(config.depth, config.width_log2, config.seed),
      heavy_(config.heavy_capacity) {}

FreqSketch::FreqSketch(const FreqConfig& config, CountSketch&& sketch, SpaceSaver&& heavy)
    : config_(config), sketch_(std::move(sketch)), heavy_(std::move(heavy)) {}

void FreqSketch::add(std::uint64_t label) {
  sketch_.add(label);
  heavy_.add(label);
}

void FreqSketch::add_batch(std::span<const std::uint64_t> labels) {
  USTREAM_COUNTER_ADD("ustream_freq_batch_items_total", labels.size());
  ingest_batch(labels);
}

void FreqSketch::ingest_batch(std::span<const std::uint64_t> labels) {
  // The space-saver collapses hits into per-label weights, so the
  // count-sketch hashes and writes each label once per miss or settle
  // instead of once per occurrence.
  thread_local SpaceSaver::WeightedLabels weighted;
  heavy_.add_batch(labels, weighted);
  sketch_.add_weighted(weighted.labels, weighted.weights);
}

std::uint64_t FreqSketch::estimate(std::uint64_t label) const {
  const SpaceSaver::Bound b = heavy_.estimate(label);
  const std::int64_t raw = sketch_.estimate(label);
  const std::uint64_t unsigned_raw = raw < 0 ? 0 : static_cast<std::uint64_t>(raw);
  return std::clamp(unsigned_raw, b.lower, b.upper);
}

std::vector<FreqSketch::HeavyHitter> FreqSketch::top(std::size_t k) const {
  std::vector<HeavyHitter> out;
  const auto entries = heavy_.top(k);
  out.reserve(entries.size());
  for (const SpaceSaver::Entry& e : entries) {
    const std::int64_t raw = sketch_.estimate(e.label);
    const std::uint64_t unsigned_raw = raw < 0 ? 0 : static_cast<std::uint64_t>(raw);
    out.push_back(HeavyHitter{e.label, e.count, e.count - e.error,
                              std::clamp(unsigned_raw, e.count - e.error, e.count)});
  }
  return out;
}

void FreqSketch::merge(const FreqSketch& other) {
  USTREAM_REQUIRE(can_merge_with(other),
                  "merge requires freq sketches with identical configuration");
  sketch_.merge(other.sketch_);
  heavy_.merge(other.heavy_);
}

void FreqSketch::serialize(ByteWriter& w) const {
  w.u8(kWireVersion);
  sketch_.serialize(w);
  heavy_.serialize(w);
}

std::vector<std::uint8_t> FreqSketch::serialize() const {
  ByteWriter w(64 + sketch_.width() * sketch_.depth() + heavy_.size() * 12);
  serialize(w);
  return w.take();
}

FreqSketch FreqSketch::deserialize(ByteReader& r) {
  if (r.u8() != kWireVersion) throw SerializationError("bad freq-sketch version");
  CountSketch sketch = CountSketch::deserialize(r);
  SpaceSaver heavy = SpaceSaver::deserialize(r);
  FreqConfig config;
  config.depth = sketch.depth();
  config.width_log2 = sketch.width_log2();
  config.heavy_capacity = heavy.capacity();
  config.seed = sketch.seed();
  return FreqSketch(config, std::move(sketch), std::move(heavy));
}

FreqSketch FreqSketch::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto s = deserialize(r);
  if (!r.done()) throw SerializationError("trailing bytes after freq-sketch");
  return s;
}

}  // namespace ustream
