// F0Estimator: (epsilon, delta)-approximation of the number of distinct
// labels in one stream or in the union of many streams (Theorems T1/T2).
//
// Runs `copies` independent CoordinatedSamplers (independent hash seeds
// derived from one root seed) and reports the MEDIAN of their estimates —
// the standard boosting that turns the per-copy constant failure
// probability into delta. The estimator is mergeable copy-by-copy, so the
// distributed referee gets the same guarantee on the union.
//
// Beyond F0 it exposes the other "simple functions" the coordinated sample
// supports: counts/fractions of distinct labels satisfying a predicate,
// and the sample itself.
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

template <typename Hash = PairwiseHash>
class BasicF0Estimator {
 public:
  using Sampler = CoordinatedSampler<Hash, Unit>;

  explicit BasicF0Estimator(const EstimatorParams& params) : params_(params) {
    USTREAM_REQUIRE(params.copies >= 1, "need at least one copy");
    SeedSequence seeds(params.seed);
    copies_.reserve(params.copies);
    for (std::size_t i = 0; i < params.copies; ++i) {
      copies_.emplace_back(params.capacity, seeds.child(i));
    }
  }

  // Convenience: estimator meeting an (epsilon, delta) guarantee.
  BasicF0Estimator(double epsilon, double delta,
                   std::uint64_t seed = 0x5eed0123456789abULL)
      : BasicF0Estimator(EstimatorParams::for_guarantee(epsilon, delta, seed)) {}

  void add(std::uint64_t label) {
    for (auto& c : copies_) c.add(label);
  }

  // Batched ingestion, bit-identical to per-item add(). Copies are the
  // OUTER loop: each copy streams the whole block with its own hash
  // constants held in registers, instead of reloading every copy's state
  // per item as the scalar path does. The copies take turns with one set
  // of batch buffers, allocated once per call.
  void add_batch(std::span<const std::uint64_t> labels) {
    // Span here, not in the per-copy sampler: the batch work is multiplied
    // by `copies`, which amortizes the span's two clock reads.
    USTREAM_TRACE_SPAN("ustream_ingest_batch_ns");
    typename Sampler::BatchScratch scratch;
    for (auto& c : copies_) c.add_batch(labels, scratch);
  }

  // Median-of-copies estimate of F0.
  double estimate() const {
    std::vector<double> ests;
    ests.reserve(copies_.size());
    for (const auto& c : copies_) ests.push_back(c.estimate_distinct());
    return median_of(std::move(ests));
  }

  // Estimate of the number of distinct labels satisfying pred.
  template <typename Pred>
  double estimate_count_if(Pred pred) const {
    std::vector<double> ests;
    ests.reserve(copies_.size());
    for (const auto& c : copies_) ests.push_back(c.estimate_count_if(pred));
    return median_of(std::move(ests));
  }

  // Estimate of the fraction of distinct labels satisfying pred, in [0,1].
  template <typename Pred>
  double estimate_fraction_if(Pred pred) const {
    std::vector<double> ests;
    ests.reserve(copies_.size());
    for (const auto& c : copies_) {
      const auto n = static_cast<double>(c.size());
      ests.push_back(n == 0.0 ? 0.0
                              : static_cast<double>(c.estimate_count_if(pred)) /
                                    (n * std::ldexp(1.0, c.level())));
    }
    return median_of(std::move(ests));
  }

  // A coordinated sample of the distinct labels (from the first copy).
  std::vector<std::uint64_t> sample_labels() const { return copies_.front().sample_labels(); }

  void merge(const BasicF0Estimator& other) {
    USTREAM_REQUIRE(copies_.size() == other.copies_.size(),
                    "merge requires estimators with identical parameters");
    for (std::size_t i = 0; i < copies_.size(); ++i) copies_[i].merge(other.copies_[i]);
  }

  // Copy-parallel merge: the copies are independent samplers, so they
  // merge concurrently on the pool. State is identical to merge(other).
  void merge(const BasicF0Estimator& other, ThreadPool& pool) {
    USTREAM_REQUIRE(copies_.size() == other.copies_.size(),
                    "merge requires estimators with identical parameters");
    pool.parallel_for(copies_.size(),
                      [&](std::size_t i) { copies_[i].merge(other.copies_[i]); });
  }

  // Copy-parallel k-way merge: each pool slot takes whole copies, and
  // copy i folds every input's copy i in site order (Sampler::merge_many).
  // Per copy this is the left-to-right fold, so the state is identical to
  // folding `others` one by one. MergeEngine::reduce routes here.
  void merge_many(std::span<const BasicF0Estimator* const> others, ThreadPool& pool) {
    for (const BasicF0Estimator* o : others) {
      USTREAM_REQUIRE(o != nullptr && copies_.size() == o->copies_.size(),
                      "merge requires estimators with identical parameters");
    }
    pool.parallel_for(copies_.size(), [&](std::size_t i) {
      std::vector<const Sampler*> parts;
      parts.reserve(others.size());
      for (const BasicF0Estimator* o : others) parts.push_back(&o->copies_[i]);
      copies_[i].merge_many(std::span<const Sampler* const>(parts));
    });
  }

  bool can_merge_with(const BasicF0Estimator& other) const noexcept {
    if (copies_.size() != other.copies_.size()) return false;
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      if (!copies_[i].can_merge_with(other.copies_[i])) return false;
    }
    return true;
  }

  const EstimatorParams& params() const noexcept { return params_; }
  std::size_t num_copies() const noexcept { return copies_.size(); }
  const Sampler& copy(std::size_t i) const { return copies_.at(i); }
  std::uint64_t items_processed() const noexcept { return copies_.front().items_processed(); }

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
    std::size_t bound = 1 + 8 + 10 + 10;  // version, seed, capacity, copies
    for (const auto& c : copies_) bound += c.serialized_size_bound();
    ByteWriter w(bound);
    serialize(w);
    return w.take();
  }

  static BasicF0Estimator deserialize(ByteReader& r) {
    if (r.u8() != kWireVersion) throw SerializationError("bad estimator version");
    EstimatorParams p;
    p.seed = r.u64();
    p.capacity = r.varint();
    p.copies = r.varint();
    if (p.copies == 0 || p.copies > 4096) throw SerializationError("bad copy count");
    // Copies are decoded, never constructed at the declared capacity: what
    // gets allocated is bounded by the bytes present (DESIGN.md §6.4).
    std::vector<Sampler> copies;
    for (std::size_t i = 0; i < p.copies; ++i) {
      copies.push_back(Sampler::deserialize(r));
      if (copies.back().capacity() != p.capacity)
        throw SerializationError("copy capacity mismatch");
    }
    return BasicF0Estimator(p, std::move(copies));
  }

  static BasicF0Estimator deserialize(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    auto e = deserialize(r);
    if (!r.done()) throw SerializationError("trailing bytes after estimator");
    return e;
  }

  // --- delta wire format (continuous monitoring) -----------------------------
  //
  // Copy-by-copy sampler deltas against `base` — a past state of this
  // estimator's own stream (the last-acked referee mirror). See
  // CoordinatedSampler::serialize_delta for the encoding and the argument
  // that applying it to a bit-identical mirror of base reproduces *this.
  void serialize_delta(ByteWriter& w, const BasicF0Estimator& base) const {
    USTREAM_REQUIRE(can_merge_with(base),
                    "delta requires estimators with identical parameters");
    w.u8(kDeltaWireVersion);
    w.varint(copies_.size());
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      copies_[i].serialize_delta(w, base.copies_[i]);
    }
  }

  std::vector<std::uint8_t> serialize_delta(const BasicF0Estimator& base) const {
    ByteWriter w;
    serialize_delta(w, base);
    return w.take();
  }

  // Applies a delta onto this estimator (the mirror of the sender's base
  // state). Throws SerializationError on any inconsistency; this object may
  // then hold partially applied copies — callers that must keep the prior
  // state on failure apply onto a scratch copy and swap on success.
  void apply_delta(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    if (r.u8() != kDeltaWireVersion) throw SerializationError("bad estimator delta version");
    const std::uint64_t copies = r.varint();
    if (copies != copies_.size()) throw SerializationError("estimator delta copy-count mismatch");
    for (auto& c : copies_) c.apply_delta(r);
    if (!r.done()) throw SerializationError("trailing bytes after estimator delta");
  }

 private:
  static constexpr std::uint8_t kWireVersion = 1;
  static constexpr std::uint8_t kDeltaWireVersion = 1;

  BasicF0Estimator(const EstimatorParams& params, std::vector<Sampler>&& copies)
      : params_(params), copies_(std::move(copies)) {}

  EstimatorParams params_;
  std::vector<Sampler> copies_;
};

using F0Estimator = BasicF0Estimator<PairwiseHash>;

}  // namespace ustream
