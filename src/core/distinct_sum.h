// DistinctSumEstimator — the paper's "aggregate functions over the distinct
// labels" (Theorem T3): estimate  Sum_{distinct labels x} v(x)  where v(x)
// is a per-label attribute carried by stream items. Duplicate occurrences
// of a label contribute once, which is exactly what naive summation gets
// wrong on streams with re-transmissions.
//
// Implementation: value-carrying CoordinatedSamplers; estimate is
// 2^level * (sum of sampled values), median-boosted across copies.
// The relative-error guarantee matches the paper's: for values in a bounded
// ratio (v_max / v_avg bounded), capacity Theta(rho / eps^2) suffices; the
// estimator also reports the plain distinct count and the mean value per
// distinct label.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "core/coordinated_sampler.h"
#include "core/merge_engine.h"
#include "core/params.h"
#include "hash/pairwise.h"

namespace ustream {

template <typename Hash = PairwiseHash, typename V = double>
class BasicDistinctSumEstimator {
 public:
  using Sampler = CoordinatedSampler<Hash, V>;

  explicit BasicDistinctSumEstimator(const EstimatorParams& params) : params_(params) {
    USTREAM_REQUIRE(params.copies >= 1, "need at least one copy");
    SeedSequence seeds(params.seed);
    copies_.reserve(params.copies);
    for (std::size_t i = 0; i < params.copies; ++i) {
      copies_.emplace_back(params.capacity, seeds.child(i));
    }
  }

  BasicDistinctSumEstimator(double epsilon, double delta,
                            std::uint64_t seed = 0x5eed0123456789abULL)
      : BasicDistinctSumEstimator(EstimatorParams::for_guarantee(epsilon, delta, seed)) {}

  void add(std::uint64_t label, V value) {
    for (auto& c : copies_) c.add(label, value);
  }

  // Batched ingestion (values[i] belongs to labels[i]); bit-identical to
  // per-item add(). Copies-outer so each copy's hash stays in registers.
  void add_batch(std::span<const std::uint64_t> labels, std::span<const V> values) {
    for (auto& c : copies_) c.add_batch(labels, values);
  }

  // Median-of-copies estimate of Sum over distinct labels of v(label).
  double estimate_sum() const {
    std::vector<double> ests;
    ests.reserve(copies_.size());
    for (const auto& c : copies_) ests.push_back(c.estimate_sum());
    return median_of(std::move(ests));
  }

  // Median-of-copies estimate of the number of distinct labels.
  double estimate_distinct() const {
    std::vector<double> ests;
    ests.reserve(copies_.size());
    for (const auto& c : copies_) ests.push_back(c.estimate_distinct());
    return median_of(std::move(ests));
  }

  // Average value per distinct label (ratio of the two estimates above,
  // taken per copy before the median so the ratio is internally consistent).
  double estimate_mean() const {
    std::vector<double> ests;
    ests.reserve(copies_.size());
    for (const auto& c : copies_) {
      ests.push_back(c.size() == 0 ? 0.0
                                   : c.estimate_sum() / c.estimate_distinct());
    }
    return median_of(std::move(ests));
  }

  void merge(const BasicDistinctSumEstimator& other) {
    USTREAM_REQUIRE(copies_.size() == other.copies_.size(),
                    "merge requires estimators with identical parameters");
    for (std::size_t i = 0; i < copies_.size(); ++i) copies_[i].merge(other.copies_[i]);
  }

  // Copy-parallel k-way merge, copy by copy as in BasicF0Estimator; state
  // identical to a left-to-right fold (leftmost value wins).
  void merge_many(std::span<const BasicDistinctSumEstimator* const> others,
                  ThreadPool& pool) {
    for (const BasicDistinctSumEstimator* o : others) {
      USTREAM_REQUIRE(o != nullptr && copies_.size() == o->copies_.size(),
                      "merge requires estimators with identical parameters");
    }
    pool.parallel_for(copies_.size(), [&](std::size_t i) {
      std::vector<const Sampler*> parts;
      parts.reserve(others.size());
      for (const BasicDistinctSumEstimator* o : others) parts.push_back(&o->copies_[i]);
      copies_[i].merge_many(std::span<const Sampler* const>(parts));
    });
  }

  const EstimatorParams& params() const noexcept { return params_; }
  std::size_t num_copies() const noexcept { return copies_.size(); }
  const Sampler& copy(std::size_t i) const { return copies_.at(i); }

  std::size_t bytes_used() const noexcept {
    std::size_t b = sizeof(*this);
    for (const auto& c : copies_) b += c.bytes_used();
    return b;
  }

  void serialize(ByteWriter& w) const {
    w.u8(kWireVersion);
    w.u64(params_.seed);
    w.varint(params_.capacity);
    w.varint(copies_.size());
    for (const auto& c : copies_) c.serialize(w);
  }

  std::vector<std::uint8_t> serialize() const {
    ByteWriter w;
    serialize(w);
    return w.take();
  }

  static BasicDistinctSumEstimator deserialize(ByteReader& r) {
    if (r.u8() != kWireVersion) throw SerializationError("bad estimator version");
    EstimatorParams p;
    p.seed = r.u64();
    p.capacity = r.varint();
    p.copies = r.varint();
    if (p.copies == 0 || p.copies > 4096) throw SerializationError("bad copy count");
    // As in BasicF0Estimator: copies are decoded, never constructed at the
    // declared capacity (DESIGN.md §6.4).
    std::vector<Sampler> copies;
    for (std::size_t i = 0; i < p.copies; ++i) {
      copies.push_back(Sampler::deserialize(r));
      if (copies.back().capacity() != p.capacity)
        throw SerializationError("copy capacity mismatch");
    }
    return BasicDistinctSumEstimator(p, std::move(copies));
  }

  static BasicDistinctSumEstimator deserialize(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    auto e = deserialize(r);
    if (!r.done()) throw SerializationError("trailing bytes after estimator");
    return e;
  }

 private:
  static constexpr std::uint8_t kWireVersion = 2;

  BasicDistinctSumEstimator(const EstimatorParams& params, std::vector<Sampler>&& copies)
      : params_(params), copies_(std::move(copies)) {}

  EstimatorParams params_;
  std::vector<Sampler> copies_;
};

using DistinctSumEstimator = BasicDistinctSumEstimator<PairwiseHash, double>;

}  // namespace ustream
