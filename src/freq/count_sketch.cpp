#include "freq/count_sketch.h"

#include <algorithm>

#include "hash/batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustream {

CountSketch::CountSketch(std::size_t depth, std::size_t width_log2, std::uint64_t seed)
    : hash_(seed),
      seed_(seed),
      depth_(depth),
      width_log2_(width_log2),
      bucket_mask_((std::uint64_t{1} << width_log2) - 1),
      counters_(depth << width_log2, 0) {
  USTREAM_REQUIRE(depth >= 1 && depth <= kMaxDepth, "count-sketch depth out of range");
  USTREAM_REQUIRE(width_log2 >= 1 && width_log2 <= kMaxWidthLog2,
                  "count-sketch width out of range");
  // Every row needs width_log2 bucket bits plus one sign bit from the one
  // shared 61-bit hash value (see header comment).
  USTREAM_REQUIRE(depth * (width_log2 + 1) <= static_cast<std::size_t>(PairwiseHash::kBits),
                  "count-sketch shape exceeds the shared hash's bit budget");
}

void CountSketch::apply(std::uint64_t h, std::int64_t delta) noexcept {
  for (std::size_t r = 0; r < depth_; ++r) {
    const std::uint64_t field = h >> (r * (width_log2_ + 1));
    const std::size_t bucket = static_cast<std::size_t>(field & bucket_mask_);
    const std::int64_t signed_delta = (field >> width_log2_) & 1 ? delta : -delta;
    counters_[(r << width_log2_) + bucket] += signed_delta;
  }
}

void CountSketch::update(std::uint64_t label, std::int64_t delta) {
  ++items_;
  apply(hash_(label), delta);
}

void CountSketch::add_batch(std::span<const std::uint64_t> labels) {
  USTREAM_COUNTER_ADD("ustream_freq_batch_items_total", labels.size());
  items_ += labels.size();
  std::uint64_t h[kBatchBlock];
  for (std::size_t i = 0; i < labels.size(); i += kBatchBlock) {
    const std::size_t n = std::min(kBatchBlock, labels.size() - i);
    // reject_mask 0: every label survives; we only want the hashes.
    hash_block(hash_, labels.data() + i, h, n, /*reject_mask=*/0);
    for (std::size_t j = 0; j < n; ++j) apply(h[j], 1);
  }
}

std::int64_t CountSketch::estimate(std::uint64_t label) const {
  const std::uint64_t h = hash_(label);
  std::int64_t row[kMaxDepth] = {};
  for (std::size_t r = 0; r < depth_; ++r) {
    const std::uint64_t field = h >> (r * (width_log2_ + 1));
    const std::size_t bucket = static_cast<std::size_t>(field & bucket_mask_);
    const std::int64_t counter = counters_[(r << width_log2_) + bucket];
    row[r] = (field >> width_log2_) & 1 ? counter : -counter;
  }
  std::sort(row, row + depth_);
  return depth_ % 2 == 1 ? row[depth_ / 2]
                         : (row[depth_ / 2 - 1] + row[depth_ / 2]) / 2;
}

double CountSketch::l2_squared() const {
  double row[kMaxDepth] = {};
  for (std::size_t r = 0; r < depth_; ++r) {
    double sum = 0.0;
    const std::int64_t* base = counters_.data() + (r << width_log2_);
    const std::size_t w = width();
    for (std::size_t b = 0; b < w; ++b) {
      sum += static_cast<double>(base[b]) * static_cast<double>(base[b]);
    }
    row[r] = sum;
  }
  std::sort(row, row + depth_);
  return depth_ % 2 == 1 ? row[depth_ / 2]
                         : (row[depth_ / 2 - 1] + row[depth_ / 2]) / 2.0;
}

void CountSketch::merge(const CountSketch& other) {
  USTREAM_REQUIRE(can_merge_with(other),
                  "merge requires count sketches with identical seed and shape");
  USTREAM_TRACE_SPAN("ustream_freq_merge_ns");
  for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
  items_ += other.items_;
}

void CountSketch::serialize(ByteWriter& w) const {
  w.u8(kWireVersion);
  w.u64(seed_);
  w.u8(static_cast<std::uint8_t>(depth_));
  w.u8(static_cast<std::uint8_t>(width_log2_));
  w.varint(items_);
  for (const std::int64_t c : counters_) w.svarint(c);
}

std::vector<std::uint8_t> CountSketch::serialize() const {
  ByteWriter w(16 + counters_.size() * 2);
  serialize(w);
  return w.take();
}

CountSketch CountSketch::deserialize(ByteReader& r) {
  if (r.u8() != kWireVersion) throw SerializationError("bad count-sketch version");
  const std::uint64_t seed = r.u64();
  const std::size_t depth = r.u8();
  const std::size_t width_log2 = r.u8();
  if (depth < 1 || depth > kMaxDepth || width_log2 < 1 || width_log2 > kMaxWidthLog2 ||
      depth * (width_log2 + 1) > static_cast<std::size_t>(PairwiseHash::kBits)) {
    throw SerializationError("count-sketch shape out of range");
  }
  // The item count and every counter take at least one byte each: refuse a
  // short buffer before allocating the declared shape (DESIGN.md §6.4).
  if (r.remaining() < (depth << width_log2) + 1) {
    throw SerializationError("truncated count-sketch");
  }
  CountSketch s(depth, width_log2, seed);
  s.items_ = r.varint();
  for (std::size_t i = 0; i < s.counters_.size(); ++i) s.counters_[i] = r.svarint();
  return s;
}

CountSketch CountSketch::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto s = deserialize(r);
  if (!r.done()) throw SerializationError("trailing bytes after count-sketch");
  return s;
}

}  // namespace ustream
