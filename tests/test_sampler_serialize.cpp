// Wire-format tests: the serialized sampler is the distributed model's
// message, so roundtrip fidelity and rejection of corrupt input are part
// of the protocol's correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/dense_map.h"
#include "common/random.h"
#include "core/coordinated_sampler.h"

namespace ustream {
namespace {

using Sampler = CoordinatedSampler<PairwiseHash, Unit>;
using ValueSampler = CoordinatedSampler<PairwiseHash, double>;

Sampler make_loaded_sampler(std::size_t capacity, std::uint64_t seed, int items) {
  Sampler s(capacity, seed);
  Xoshiro256 rng(seed ^ 0xabcdef);
  for (int i = 0; i < items; ++i) s.add(rng.next());
  return s;
}

TEST(SamplerSerialize, RoundtripEmpty) {
  Sampler s(32, 5);
  auto restored = Sampler::deserialize(s.serialize());
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(restored.level(), 0);
  EXPECT_EQ(restored.seed(), 5u);
  EXPECT_EQ(restored.capacity(), 32u);
}

TEST(SamplerSerialize, RoundtripLoadedStateEquality) {
  for (int items : {10, 1000, 50'000}) {
    Sampler s = make_loaded_sampler(64, 42, items);
    auto restored = Sampler::deserialize(s.serialize());
    EXPECT_EQ(restored.level(), s.level());
    EXPECT_EQ(restored.size(), s.size());
    auto a = s.sample_labels(), b = restored.sample_labels();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_DOUBLE_EQ(restored.estimate_distinct(), s.estimate_distinct());
  }
}

TEST(SamplerSerialize, RestoredSamplerKeepsWorking) {
  Sampler s = make_loaded_sampler(64, 43, 10'000);
  auto restored = Sampler::deserialize(s.serialize());
  Xoshiro256 rng(99);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t x = rng.next();
    s.add(x);
    restored.add(x);
  }
  EXPECT_EQ(s.level(), restored.level());
  EXPECT_EQ(s.size(), restored.size());
}

TEST(SamplerSerialize, ValueCarryingRoundtrip) {
  ValueSampler s(128, 7);
  for (std::uint64_t x = 1; x <= 100; ++x) s.add(x, static_cast<double>(x) * 0.5);
  auto restored = ValueSampler::deserialize(s.serialize());
  EXPECT_DOUBLE_EQ(restored.estimate_sum(), s.estimate_sum());
  EXPECT_EQ(restored.size(), s.size());
}

TEST(SamplerSerialize, U64ValueRoundtrip) {
  CoordinatedSampler<PairwiseHash, std::uint64_t> s(64, 8);
  s.add(10, 111);
  s.add(20, 222);
  auto restored =
      CoordinatedSampler<PairwiseHash, std::uint64_t>::deserialize(s.serialize());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.estimate_sum(), 333.0);
}

TEST(SamplerSerialize, MergedFromWireEqualsDirectMerge) {
  Sampler a = make_loaded_sampler(32, 11, 5000);
  Sampler b = make_loaded_sampler(32, 11, 7000);
  Sampler direct = a;
  direct.merge(b);
  auto via_wire = Sampler::deserialize(a.serialize());
  via_wire.merge(Sampler::deserialize(b.serialize()));
  EXPECT_EQ(via_wire.level(), direct.level());
  EXPECT_EQ(via_wire.size(), direct.size());
}

TEST(SamplerSerialize, WireSizeIsCompact) {
  // Level>0 states hold <= capacity labels; the message must be O(capacity)
  // words regardless of how many items streamed through (log-space claim).
  Sampler s = make_loaded_sampler(64, 12, 200'000);
  EXPECT_LE(s.serialize().size(), 64u * 10 + 32);
}

TEST(SamplerSerialize, RejectsBadVersion) {
  Sampler s = make_loaded_sampler(16, 13, 100);
  auto bytes = s.serialize();
  bytes[0] = 0x7f;
  EXPECT_THROW(Sampler::deserialize(bytes), SerializationError);
}

TEST(SamplerSerialize, RejectsValueKindMismatch) {
  ValueSampler s(16, 14);
  s.add(1, 2.0);
  auto bytes = s.serialize();
  EXPECT_THROW(Sampler::deserialize(bytes), SerializationError);
}

TEST(SamplerSerialize, RejectsTruncation) {
  Sampler s = make_loaded_sampler(16, 15, 1000);
  auto bytes = s.serialize();
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    std::vector<std::uint8_t> trunc(bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(Sampler::deserialize(trunc), SerializationError) << cut;
  }
}

TEST(SamplerSerialize, RejectsTrailingGarbage) {
  Sampler s = make_loaded_sampler(16, 16, 100);
  auto bytes = s.serialize();
  bytes.push_back(0);
  EXPECT_THROW(Sampler::deserialize(bytes), SerializationError);
}

TEST(SamplerSerialize, RejectsTamperedLabels) {
  // Flipping a label delta breaks the "entry level consistent with seed"
  // check with overwhelming probability.
  Sampler s = make_loaded_sampler(16, 17, 5000);
  auto bytes = s.serialize();
  bool rejected = false;
  // Try a few tamper positions past the header.
  for (std::size_t pos = 16; pos < bytes.size() && !rejected; ++pos) {
    auto copy = bytes;
    copy[pos] ^= 0x55;
    try {
      (void)Sampler::deserialize(copy);
    } catch (const SerializationError&) {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
}

// ---------------------------------------------------------------------------
// The entry decoder works in blocks of 64 entries. Corrupt entries at the
// front, on both sides of a block boundary and at the back must each be
// refused, for a pure and for a valued sampler.

struct WireEntry {
  std::uint64_t label;
  std::uint8_t level;
};

// Hand-built sampler wire bytes in CoordinatedSampler::serialize's layout
// (version, value tag, seed, capacity, level, count, then per entry: label
// delta, level, value). Entries go out in the order given, so a test can
// plant any corruption anywhere; `starts` receives each entry's offset.
template <typename V>
std::vector<std::uint8_t> encode_sampler(std::uint64_t seed, std::uint64_t capacity, int level,
                                         const std::vector<WireEntry>& entries,
                                         std::vector<std::size_t>* starts = nullptr) {
  ByteWriter w;
  w.u8(1);
  w.u8(detail::ValueCodec<V>::kTag);
  w.u64(seed);
  w.varint(capacity);
  w.u8(static_cast<std::uint8_t>(level));
  w.varint(entries.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (starts) starts->push_back(w.size());
    w.varint(entries[i].label - prev);
    prev = entries[i].label;
    w.u8(entries[i].level);
    std::uint8_t value[detail::ValueCodec<V>::kMaxBytes + 1];
    V v{};
    if constexpr (!std::is_empty_v<V>) v = static_cast<V>(i);
    const std::uint8_t* end = detail::ValueCodec<V>::put(value, v);
    w.bytes(std::span<const std::uint8_t>(value, static_cast<std::size_t>(end - value)));
  }
  return w.take();
}

// `count` random labels of level >= 1 under `seed`, in label order, each
// with its true level.
template <typename S>
std::vector<WireEntry> level_one_entries(std::uint64_t seed, std::size_t count) {
  const S probe(16, seed);
  Xoshiro256 rng(seed + 1);
  std::vector<std::uint64_t> labels;
  while (labels.size() < count) {
    const std::uint64_t x = rng.next();
    if (probe.level_of(x) >= 1) labels.push_back(x);
  }
  std::sort(labels.begin(), labels.end());
  std::vector<WireEntry> out;
  for (const std::uint64_t x : labels) {
    out.push_back({x, static_cast<std::uint8_t>(probe.level_of(x))});
  }
  return out;
}

template <typename S, typename V>
void expect_corrupt_entries_refused() {
  constexpr std::uint64_t kSeed = 0xB10C;
  constexpr std::size_t kCount = 130;  // two full blocks and a partial one
  const auto valid = level_one_entries<S>(kSeed, kCount);
  const S probe(16, kSeed);
  WireEntry level_zero{1, 0};
  while (probe.level_of(level_zero.label) != 0) ++level_zero.label;
  std::vector<std::size_t> starts;
  const auto good = encode_sampler<V>(kSeed, 4096, 1, valid, &starts);
  ASSERT_EQ(S::deserialize(good).serialize(), good);

  for (const std::size_t at : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                               std::size_t{65}, kCount - 1}) {
    const auto refused = [&](const char* what, const std::vector<WireEntry>& entries) {
      EXPECT_THROW((void)S::deserialize(encode_sampler<V>(kSeed, 4096, 1, entries)),
                   SerializationError)
          << what << " at entry " << at;
    };
    auto entries = valid;
    entries[at] = level_zero;  // true to the seed, but below the sampler's level 1
    refused("level below the sampler's", entries);
    entries[at] = valid[at];
    entries[at].level = static_cast<std::uint8_t>(S::max_level() + 1);
    refused("level above the hash's bits", entries);
    entries[at].level = static_cast<std::uint8_t>(valid[at].level + 1);
    refused("level inconsistent with the seed", entries);

    entries = valid;
    entries[at] = valid[at == 0 ? 1 : at - 1];
    refused("duplicate label", entries);

    // Distinct labels out of order: the label delta that goes back wraps
    // past 2^64 onto the smaller label. No serializer writes this.
    entries = valid;
    std::swap(entries[at], entries[at == 0 ? 1 : at - 1]);
    refused("label order wrapping around", entries);

    // One byte into the entry's label delta: random labels make every
    // delta a multi-byte varint, so that byte promises another one.
    ASSERT_NE(good[starts[at]] & 0x80, 0) << "entry " << at;
    const std::vector<std::uint8_t> cut(good.begin(),
                                        good.begin() + static_cast<long>(starts[at] + 1));
    EXPECT_THROW((void)S::deserialize(cut), SerializationError)
        << "truncated varint at entry " << at;
  }
}

TEST(SamplerSerialize, RejectsCorruptEntriesAroundDecodeBlocks) {
  expect_corrupt_entries_refused<Sampler, Unit>();
}

TEST(SamplerSerialize, ValuedRejectsCorruptEntriesAroundDecodeBlocks) {
  expect_corrupt_entries_refused<ValueSampler, double>();
}

// Decoded samplers re-serialize to their input bytes at every block
// shape, and their map is sized for the entries present (DESIGN.md §6.4):
// no probe table until the first mutation, which builds exactly what
// DenseMap::reserve(count) gives, whatever the capacity.
TEST(SamplerSerialize, DecodeRoundTripsAndSizesTheMapForTheCount) {
  Xoshiro256 rng(0x5EED);
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65}, std::size_t{130},
                                  std::size_t{3600}}) {
    const auto bytes =
        encode_sampler<Unit>(0xB10C, 4096, 1, level_one_entries<Sampler>(0xB10C, count));
    const Sampler s = Sampler::deserialize(bytes);
    EXPECT_EQ(s.serialize(), bytes) << count;
    DenseMap<Sampler::Slot> reserved;
    reserved.reserve(count);
    EXPECT_EQ(s.entries().table_size(), 0u) << count;
    EXPECT_LE(s.entries().bytes_used(), reserved.bytes_used()) << count;
    Sampler mutated = s;
    std::uint64_t fresh = rng.next();
    while (mutated.level_of(fresh) < 1 || mutated.contains(fresh)) fresh = rng.next();
    mutated.add(fresh);
    ASSERT_EQ(mutated.size(), count + 1);
    EXPECT_EQ(mutated.entries().table_size(), reserved.table_size()) << count;

    const auto valued =
        encode_sampler<double>(0xB10C, 4096, 1, level_one_entries<ValueSampler>(0xB10C, count));
    EXPECT_EQ(ValueSampler::deserialize(valued).serialize(), valued) << count;
  }
}


// merge_many gives its accumulator room for the entries its inputs hold,
// never for the capacity they declare (DESIGN.md §6.4): samplers decoded
// from frames declaring capacity 2^40 still merge in a few KiB.
TEST(SamplerSerialize, MergeManyOfDecodedSamplersSizesFromEntriesNotDeclaredCapacity) {
  const std::uint64_t capacity = std::uint64_t{1} << 40;
  const auto decode = [&](std::size_t count) {
    return Sampler::deserialize(
        encode_sampler<Unit>(0xB10C, capacity, 1, level_one_entries<Sampler>(0xB10C, count)));
  };
  Sampler acc = decode(3);
  const Sampler a = decode(5);
  const Sampler b = decode(7);
  const Sampler* others[] = {&a, &b};
  acc.merge_many(others);
  EXPECT_EQ(acc.size(), 7u);  // each input's labels extend the previous one's
  EXPECT_LT(acc.bytes_used(), 4096u);
}

}  // namespace
}  // namespace ustream
