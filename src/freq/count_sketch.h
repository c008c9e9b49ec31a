// CountSketch — signed frequency counters (Charikar–Chen–Farach-Colton),
// the frequency-moment counterpart of the coordinated sample: d rows of w
// counters; each item adds ±1 to one counter per row; a point query is the
// median of the d signed row readings. Unbiased per row, and the median
// concentrates the error to O(sqrt(F2)/sqrt(w)).
//
// Hashing: ONE shared PairwiseHash evaluation per label, with row r's
// bucket and sign carved out of disjoint bit fields of the 61-bit value
// (row r reads bits [r*(width_log2+1), (r+1)*(width_log2+1))). Each field
// of a pairwise-uniform value is itself pairwise uniform, so the per-row
// collision and sign-product expectations the analysis needs still hold;
// what is given up is independence BETWEEN rows, which only weakens the
// median's tail constant. In exchange the ingest path is a single
// hash_block() call per 64-label block — the same AVX-512 kernel and cost
// profile as CoordinatedSampler::add_batch — instead of d of them.
// Constraint: depth * (width_log2 + 1) <= 61 (PairwiseHash::kBits).
//
// Merge is element-wise counter addition (exact, associative,
// commutative), so count sketches from many sites compose at the referee
// into the sketch of the UNION stream with no loss — the property every
// structure in this repo must satisfy to ride the collection plane.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "hash/pairwise.h"

namespace ustream {

class CountSketch {
 public:
  static constexpr std::size_t kMaxDepth = 8;
  static constexpr std::size_t kMaxWidthLog2 = 20;

  CountSketch(std::size_t depth, std::size_t width_log2, std::uint64_t seed);

  void add(std::uint64_t label) { update(label, 1); }
  void update(std::uint64_t label, std::int64_t delta);

  // Batched ingestion: bit-identical to per-label update(label, +1) calls,
  // but hashes 64-label blocks through hash_block() (SIMD for
  // PairwiseHash).
  void add_batch(std::span<const std::uint64_t> labels);

  // Weighted batch: labels[i] counts weights[i] times. Counters are integer
  // sums, so this is bit-identical to that many add() calls per label.
  void add_weighted(std::span<const std::uint64_t> labels,
                    std::span<const std::uint64_t> weights);

  // Median-of-rows point estimate of the label's signed frequency.
  std::int64_t estimate(std::uint64_t label) const;

  // Median over rows of the sum of squared counters — the classic F2
  // (second frequency moment) estimator riding the same counters.
  double l2_squared() const;

  bool can_merge_with(const CountSketch& other) const noexcept {
    return seed_ == other.seed_ && depth_ == other.depth_ &&
           width_log2_ == other.width_log2_;
  }
  void merge(const CountSketch& other);

  std::size_t depth() const noexcept { return depth_; }
  std::size_t width() const noexcept { return std::size_t{1} << width_log2_; }
  std::size_t width_log2() const noexcept { return width_log2_; }
  std::uint64_t seed() const noexcept { return seed_; }
  std::uint64_t items_processed() const noexcept { return items_; }
  std::size_t bytes_used() const noexcept {
    return sizeof(*this) + counters_.capacity() * sizeof(std::int64_t);
  }

  void serialize(ByteWriter& w) const;
  std::vector<std::uint8_t> serialize() const;
  static CountSketch deserialize(ByteReader& r);
  static CountSketch deserialize(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::uint8_t kWireVersion = 1;
  static constexpr std::size_t kBatchBlock = 64;

  // Applies delta to every row for a label whose shared hash is h.
  void apply(std::uint64_t h, std::int64_t delta) noexcept;
  // The one batch path: unit weights when `weights` is null.
  void apply_batch(std::span<const std::uint64_t> labels, const std::uint64_t* weights);

  PairwiseHash hash_;
  std::uint64_t seed_;
  std::size_t depth_;
  std::size_t width_log2_;
  std::uint64_t bucket_mask_;  // width - 1
  std::vector<std::int64_t> counters_;  // depth * width, row-major
  std::uint64_t items_ = 0;
};

}  // namespace ustream
