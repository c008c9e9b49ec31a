// Golden wire bytes: CRC32C digests of the serialized output for fixed-seed
// inputs, pinned once and never recomputed. The batch == scalar and
// round-trip suites compare two paths of ONE build, so a serializer change
// that alters both paths alike passes them; these digests do not move
// unless the bytes on the wire do. A digest mismatch means the wire format
// changed: that needs a version bump, not a new digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "core/coordinated_sampler.h"
#include "core/f0_estimator.h"
#include "freq/freq_sketch.h"
#include "hash/pairwise.h"

namespace ustream {
namespace {

std::uint32_t digest(const std::vector<std::uint8_t>& bytes) {
  return crc32c(std::span<const std::uint8_t>(bytes));
}

std::vector<std::uint64_t> labels(std::size_t n, std::uint64_t seed, std::uint64_t domain) {
  std::vector<std::uint64_t> out(n);
  Xoshiro256 rng(seed);
  for (auto& l : out) l = domain == 0 ? rng.next() : rng.below(domain);
  return out;
}

// eps 0.1 / delta 0.05 — the shape a T2 site ships — fed through add_batch
// in 16384-label batches, through per-item add(), and merged.
TEST(GoldenWire, F0Estimator) {
  const auto stream = labels(1u << 17, 1, 0);
  F0Estimator batch(0.1, 0.05, 42);
  for (std::size_t i = 0; i < stream.size(); i += 16384) {
    batch.add_batch(std::span<const std::uint64_t>(stream).subspan(i, 16384));
  }
  const auto bytes = batch.serialize();
  EXPECT_EQ(bytes.size(), 680814u);
  EXPECT_EQ(digest(bytes), 2269523421u);

  F0Estimator scalar(0.2, 0.1, 43);
  for (const std::uint64_t l : labels(20'000, 2, 50'000)) scalar.add(l);
  EXPECT_EQ(digest(scalar.serialize()), 3970775557u);

  F0Estimator other(0.2, 0.1, 43);
  for (const std::uint64_t l : labels(30'000, 3, 80'000)) other.add(l);
  other.merge(scalar);
  EXPECT_EQ(digest(other.serialize()), 700077958u);
}

TEST(GoldenWire, SamplerWithDoubleValues) {
  CoordinatedSampler<PairwiseHash, double> s(512, 7);
  Xoshiro256 rng(4);
  for (int i = 0; i < 40'000; ++i) {
    const std::uint64_t l = rng.below(20'000);
    s.add(l, static_cast<double>(l % 97) * 0.25);
  }
  EXPECT_EQ(digest(s.serialize()), 3957136453u);
}

TEST(GoldenWire, SamplerWithIntegerValues) {
  CoordinatedSampler<PairwiseHash, std::uint64_t> s(512, 8);
  const auto stream = labels(40'000, 5, 0);
  std::vector<std::uint64_t> values(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) values[i] = stream[i] >> 40;
  s.add_batch(stream, values);
  EXPECT_EQ(digest(s.serialize()), 2716186561u);
}

// A delta across level raises: the base is an early state of the stream.
TEST(GoldenWire, F0EstimatorDelta) {
  const auto stream = labels(60'000, 6, 0);
  F0Estimator est(0.1, 0.05, 44);
  est.add_batch(std::span<const std::uint64_t>(stream).first(5'000));
  const F0Estimator base = est;
  est.add_batch(std::span<const std::uint64_t>(stream).subspan(5'000));
  EXPECT_EQ(digest(est.serialize_delta(base)), 3607072812u);
}

TEST(GoldenWire, FreqSketch) {
  const FreqConfig config{.depth = 4, .width_log2 = 10, .heavy_capacity = 64, .seed = 99};
  FreqSketch a(config), b(config);
  Xoshiro256 rng(9);
  for (int i = 0; i < 30'000; ++i) {
    // Skewed: a few hundred hot labels over a long tail.
    a.add(rng.below(4) == 0 ? rng.below(300) : rng.below(1u << 20));
  }
  b.add_batch(labels(30'000, 10, 5'000));
  EXPECT_EQ(digest(a.serialize()), 1713933154u);
  a.merge(b);
  EXPECT_EQ(digest(a.serialize()), 3632448822u);
}

}  // namespace
}  // namespace ustream
