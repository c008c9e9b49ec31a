// FreqSketch — the per-site frequency summary that rides the collection
// plane as one payload: a CountSketch (unbiased signed point estimates,
// F2) paired with a SpaceSaver (guaranteed heavy-hitter intervals). The
// two views correct each other at query time: the count-sketch median is
// clamped into the space-saver's [lower, upper] interval, so a point
// estimate can never contradict the deterministic bounds, and top(k)
// reports both the interval and the clamped estimate per label.
//
// Merge is componentwise (counter addition + interval-sum union), which
// keeps the bundle associative and commutative — the serialized bytes of
// any merge tree over the same site summaries are identical, the contract
// MergeEngine's tree-reduce relies on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "freq/count_sketch.h"
#include "freq/space_saver.h"

namespace ustream {

struct FreqConfig {
  std::size_t depth = 4;          // count-sketch rows
  std::size_t width_log2 = 12;    // log2 of counters per row
  std::size_t heavy_capacity = 64;  // space-saver tracked entries
  std::uint64_t seed = 0;
};

class FreqSketch {
 public:
  explicit FreqSketch(const FreqConfig& config = {});

  void add(std::uint64_t label);
  void add_batch(std::span<const std::uint64_t> labels);

  // Point estimate: count-sketch median clamped into the space-saver's
  // interval for the label (so it respects the deterministic bounds).
  std::uint64_t estimate(std::uint64_t label) const;

  // The deterministic frequency interval alone.
  SpaceSaver::Bound bound(std::uint64_t label) const noexcept {
    return heavy_.estimate(label);
  }

  struct HeavyHitter {
    std::uint64_t label = 0;
    std::uint64_t upper = 0;     // space-saver upper bound
    std::uint64_t lower = 0;     // space-saver lower bound
    std::uint64_t estimate = 0;  // clamped count-sketch estimate
  };
  // Top-k by space-saver (count desc, label asc) order.
  std::vector<HeavyHitter> top(std::size_t k) const;

  double f1() const noexcept { return static_cast<double>(heavy_.total_weight()); }
  double f2() const { return sketch_.l2_squared(); }

  std::uint64_t items_processed() const noexcept { return heavy_.total_weight(); }
  const CountSketch& count_sketch() const noexcept { return sketch_; }
  const SpaceSaver& heavy() const noexcept { return heavy_; }
  const FreqConfig& config() const noexcept { return config_; }
  std::size_t bytes_used() const noexcept {
    return sizeof(*this) + sketch_.bytes_used() + heavy_.bytes_used();
  }

  bool can_merge_with(const FreqSketch& other) const noexcept {
    return sketch_.can_merge_with(other.sketch_) &&
           heavy_.can_merge_with(other.heavy_);
  }
  void merge(const FreqSketch& other);

  void serialize(ByteWriter& w) const;
  std::vector<std::uint8_t> serialize() const;
  static FreqSketch deserialize(ByteReader& r);
  static FreqSketch deserialize(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::uint8_t kWireVersion = 1;

  friend class UniversalSketch;  // counts its own batch items

  FreqSketch(const FreqConfig& config, CountSketch&& sketch, SpaceSaver&& heavy);

  // add_batch without the batch-items metric.
  void ingest_batch(std::span<const std::uint64_t> labels);

  FreqConfig config_;
  CountSketch sketch_;
  SpaceSaver heavy_;
};

}  // namespace ustream
