// CoordinatedSampler — the paper's primary contribution (Gibbons &
// Tirthapura, SPAA 2001): a logarithmic-space, duplicate-insensitive,
// mergeable sample of the distinct labels of a data stream, coordinated
// across parties through a shared pairwise-independent hash.
//
// Invariants:
//   * S contains exactly the distinct labels seen so far whose hash level
//     is >= the current level l, except when that set exceeds `capacity`,
//     in which case l has been raised until it fits. ("Level" of a label =
//     trailing zeros of its shared hash value; Pr[level >= l] = 2^-l.)
//   * |S| <= capacity at all times after an update completes.
//   * merge(a, b) yields bit-for-bit the sampler state that a single party
//     would have reached observing any interleaving of both streams —
//     this is what makes the referee's union estimate sound, and is
//     checked exactly by property tests.
//
// Estimators exposed (the paper's "simple functions"):
//   * F0 of the stream/union:            |S| * 2^l
//   * SumDistinct (sum of a per-label value over distinct labels):
//                                        2^l * sum of sampled values
//   * count of distinct labels with property P: 2^l * |{x in S : P(x)}|
//   * the sample itself, a coordinated uniform sample of distinct labels.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/dense_map.h"
#include "common/error.h"
#include "common/radix_sort.h"
#include "common/serialize.h"
#include "hash/batch.h"
#include "hash/level.h"
#include "hash/pairwise.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustream {

// Value payload for pure distinct counting (zero bytes per entry).
struct Unit {
  friend constexpr bool operator==(Unit, Unit) noexcept { return true; }
};

namespace detail {
template <typename V>
struct ValueCodec;

// kMaxBytes is the worst-case encoded size of one value; the serializers
// write through a raw buffer sized from it, so every codec must keep it in
// sync with put().
template <>
struct ValueCodec<Unit> {
  static constexpr std::uint8_t kTag = 0;
  static constexpr std::size_t kMaxBytes = 0;
  static std::uint8_t* put(std::uint8_t* p, Unit) noexcept { return p; }
  static Unit read(ByteReader&) { return {}; }
};

template <>
struct ValueCodec<double> {
  static constexpr std::uint8_t kTag = 1;
  static constexpr std::size_t kMaxBytes = 8;  // fixed-width little-endian f64
  static std::uint8_t* put(std::uint8_t* p, double v) noexcept {
    const auto u = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(u >> (8 * i));
    return p;
  }
  static double read(ByteReader& r) { return r.f64(); }
};

template <>
struct ValueCodec<std::uint64_t> {
  static constexpr std::uint8_t kTag = 2;
  static constexpr std::size_t kMaxBytes = 10;  // LEB128 worst case
  static std::uint8_t* put(std::uint8_t* p, std::uint64_t v) noexcept {
    return put_varint(p, v);
  }
  static std::uint64_t read(ByteReader& r) { return r.varint(); }
};
}  // namespace detail

template <typename Hash = PairwiseHash, typename V = Unit>
class CoordinatedSampler {
 public:
  static constexpr bool kHasValue = !std::is_empty_v<V>;

  struct Slot {
    V value;
    std::uint8_t level;
  };
  using Entry = typename DenseMap<Slot>::Entry;  // {key=label, value=Slot}

  CoordinatedSampler(std::size_t capacity, std::uint64_t seed)
      : hash_(seed), seed_(seed), capacity_(capacity), map_(capacity + 1) {
    USTREAM_REQUIRE(capacity >= 1, "sampler capacity must be >= 1");
  }

  // --- stream updates ------------------------------------------------------

  void add(std::uint64_t label) { add(label, V{}); }

  // Adds (label, value). The value is a per-label attribute: re-insertions
  // of the same label keep the first value (duplicate-insensitive); streams
  // where a label's value varies are outside the SumDistinct model.
  //
  // Survival is tested in threshold form: `(h & reject_mask_) == 0` with
  // reject_mask_ = 2^level - 1 is the single-compare equivalent of
  // `trailing_zeros(h) >= level` (docs/ALGORITHM.md §6), so rejected items
  // never pay the trailing-zeros extraction or a map probe.
  void add(std::uint64_t label, V value) {
    ++items_processed_;
    const std::uint64_t h = hash_(label);
    if ((h & reject_mask_) != 0) return;  // below the sampling threshold
    add_survivor(label, value, h);
  }

  // Working buffers for add_batch, reusable across calls and samplers (an
  // F0Estimator shares one among its copies for each batch).
  struct BatchScratch {
    std::vector<std::uint64_t> labels;  // survivors set aside for the top-down path
    std::vector<std::uint8_t> levels;   // their levels
    std::vector<std::uint64_t> sorted;  // the same labels grouped by level, highest first
  };

  // Batched ingestion. Bit-identical to calling add() per label in order —
  // property-tested via serialized-bytes equality — but it evicts at most
  // once per batch (docs/ALGORITHM.md §6). The state after any stream is
  // the survivor set at the minimal feasible level, a function of the
  // labels seen alone, so a batch can find its final level before it
  // evicts anything. Labels are hashed 64 at a time by hash_block() (SIMD
  // for PairwiseHash), which returns the threshold test as a survivor
  // bitmask; a leveled sampler sees mostly all-rejected blocks. Survivors
  // then take one of two paths:
  //   * while a block's survivors cannot overflow the sample, they are
  //     inserted in stream order as they come;
  //   * once they might — from the start when the batch's expected
  //     survivors, labels.size() / 2^level, exceed the free room — the
  //     rest that the sample does not already hold are set aside. If they
  //     fit after all they go in in stream order; otherwise they are
  //     counting-sorted by level and inserted from the highest level
  //     down, stopping at the first level l at which the sample exceeds
  //     capacity, and one filter raises straight to l + 1.
  // Labels below the final level are never inserted, and a batch that
  // raises by k levels pays one eviction pass instead of k.
  void add_batch(std::span<const std::uint64_t> labels)
    requires(!kHasValue)
  {
    BatchScratch scratch;
    add_batch(labels, scratch);
  }

  void add_batch(std::span<const std::uint64_t> labels, BatchScratch& scratch)
    requires(!kHasValue)
  {
    // Counter only, no span: one relaxed fetch_add amortized over the
    // whole batch keeps this path inside the <2% overhead gate.
    USTREAM_COUNTER_ADD("ustream_ingest_batch_items_total", labels.size());
    items_processed_ += labels.size();

    const std::size_t expected = level_ >= 64 ? 0 : labels.size() >> level_;
    bool set_aside = map_.size() + expected > capacity_;
    scratch.labels.clear();
    scratch.levels.clear();
    HeldTrial trial{!map_.empty()};
    std::uint64_t h[kBatchBlock];
    for (std::size_t i = 0; i < labels.size(); i += kBatchBlock) {
      const std::size_t n = std::min(kBatchBlock, labels.size() - i);
      std::uint64_t survivors = hash_block(hash_, labels.data() + i, h, n, reject_mask_);
      if (survivors == 0) continue;
      set_aside = set_aside ||
                  map_.size() + static_cast<std::size_t>(std::popcount(survivors)) > capacity_;
      if (set_aside) {
        set_aside_block(labels.data() + i, h, survivors, labels.size(), scratch, trial);
        continue;
      }
      while (survivors != 0) {  // these cannot overflow the sample
        const auto j = static_cast<std::size_t>(std::countr_zero(survivors));
        survivors &= survivors - 1;
        map_.try_emplace(labels[i + j],
                         Slot{V{}, static_cast<std::uint8_t>(hash_level(h[j], Hash::kBits))});
      }
    }
    const std::vector<std::uint64_t>& rest = scratch.labels;
    if (map_.size() + rest.size() <= capacity_) {  // no raise possible: order is moot
      for (std::size_t k = 0; k < rest.size(); ++k) {
        map_.try_emplace(rest[k], Slot{V{}, scratch.levels[k]});
      }
      return;
    }
    insert_top_down(rest, scratch.levels, scratch.sorted);
  }

  // Valued batch: labels[i] carries values[i]; spans must be equal length.
  void add_batch(std::span<const std::uint64_t> labels, std::span<const V> values)
    requires(kHasValue)
  {
    USTREAM_REQUIRE(labels.size() == values.size(),
                    "add_batch requires one value per label");
    USTREAM_COUNTER_ADD("ustream_ingest_batch_items_total", labels.size());
    items_processed_ += labels.size();
    std::uint64_t h[kBatchBlock];
    for (std::size_t i = 0; i < labels.size(); i += kBatchBlock) {
      const std::size_t n = std::min(kBatchBlock, labels.size() - i);
      std::uint64_t survivors = hash_block(hash_, labels.data() + i, h, n, reject_mask_);
      while (survivors != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(survivors));
        survivors &= survivors - 1;
        add_survivor(labels[i + j], values[i + j], h[j]);
      }
    }
  }

  // --- the paper's estimators ----------------------------------------------

  // Estimate of F0, the number of distinct labels observed.
  double estimate_distinct() const noexcept {
    return static_cast<double>(map_.size()) * std::ldexp(1.0, level_);
  }

  // Estimate of the sum of per-label values over distinct labels.
  double estimate_sum() const noexcept
    requires std::is_arithmetic_v<V>
  {
    double s = 0.0;
    for (const auto& e : map_) s += static_cast<double>(e.value.value);
    return s * std::ldexp(1.0, level_);
  }

  // Estimate of |{distinct labels x : pred(x [, value(x)]) }|.
  template <typename Pred>
  double estimate_count_if(Pred pred) const {
    std::size_t k = 0;
    for (const auto& e : map_) {
      if constexpr (std::is_invocable_r_v<bool, Pred, std::uint64_t, V>) {
        if (pred(e.key, e.value.value)) ++k;
      } else {
        if (pred(e.key)) ++k;
      }
    }
    return static_cast<double>(k) * std::ldexp(1.0, level_);
  }

  // The coordinated sample of distinct labels currently held.
  std::vector<std::uint64_t> sample_labels() const {
    std::vector<std::uint64_t> out;
    out.reserve(map_.size());
    for (const auto& e : map_) out.push_back(e.key);
    return out;
  }

  // --- merge (the union operation) -----------------------------------------

  bool can_merge_with(const CoordinatedSampler& other) const noexcept {
    return seed_ == other.seed_ && capacity_ == other.capacity_;
  }

  // Folds `other` into this sampler. Requires identical seed and capacity
  // (the coordination contract). Result state is identical to a single
  // sampler that observed both streams.
  //
  // Single pass: all of other's entries at or above the current level are
  // inserted first and the capacity raise runs ONCE at the end, instead of
  // interleaving per-entry raises (each an O(|S|) filter) with insertion.
  // The final state is unchanged — it is the survivor set at the minimal
  // feasible level, a pure function of the distinct labels absorbed
  // (DESIGN.md §7) — the map just transiently holds up to 2·capacity
  // entries.
  void merge(const CoordinatedSampler& other) {
    USTREAM_REQUIRE(can_merge_with(other),
                    "merge requires samplers with identical seed and capacity");
    if (other.level_ > level_) evict_below(other.level_);
    for (const auto& e : other.map_) {
      if (e.value.level < level_) continue;
      map_.try_emplace(e.key, e.value);
    }
    if (map_.size() > capacity_) raise_level();
    items_processed_ += other.items_processed_;
  }

  // k-way merge: the site-order fold `for (o : others) merge(*o)`, after
  // checking every input, so a mismatched input leaves this sampler as it
  // was. The fold beats inserting every input's entries at the maximum
  // input level and raising once: its accumulator climbs to the union's
  // level after a few inputs and then rejects most entries with one
  // compare (DESIGN.md §7.3).
  //
  // The accumulator first gets a fresh sampler's table (room for capacity
  // + 1, kept through level raises), capped by the entries the inputs
  // hold (DESIGN.md §6.4), so a decoded sampler — sized for its own
  // entries — does not regrow and reshrink its table on every input.
  void merge_many(std::span<const CoordinatedSampler* const> others) {
    std::size_t entries = map_.size();
    for (const CoordinatedSampler* o : others) {
      USTREAM_REQUIRE(o != nullptr && can_merge_with(*o),
                      "merge requires samplers with identical seed and capacity");
      entries += o->map_.size();
    }
    map_.presize(std::min(capacity_ + 1, entries));
    for (const CoordinatedSampler* o : others) merge(*o);
  }

  // --- introspection ---------------------------------------------------------

  int level() const noexcept { return level_; }
  // Labels whose hash has any of these low bits set are below the current
  // level (the branchless survival test `(h & reject_mask()) == 0`).
  std::uint64_t reject_mask() const noexcept { return reject_mask_; }
  std::size_t size() const noexcept { return map_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t seed() const noexcept { return seed_; }
  std::uint64_t items_processed() const noexcept { return items_processed_; }
  std::uint64_t level_raises() const noexcept { return level_raises_; }
  static constexpr int max_level() noexcept { return Hash::kBits; }

  // Level assigned to a label by the shared hash (exposed for tests and
  // for the distributed runtime's diagnostics).
  int level_of(std::uint64_t label) const noexcept {
    return hash_level(hash_(label), Hash::kBits);
  }

  bool contains(std::uint64_t label) const noexcept { return map_.contains(label); }

  const DenseMap<Slot>& entries() const noexcept { return map_; }

  // In-memory footprint, for the space experiments (E2).
  std::size_t bytes_used() const noexcept { return sizeof(*this) + map_.bytes_used(); }

  // --- wire format ------------------------------------------------------------

  // Serialized size is what the distributed model charges per message (E4).
  void serialize(ByteWriter& w) const {
    w.u8(kWireVersion);
    w.u8(detail::ValueCodec<V>::kTag);
    w.u64(seed_);
    w.varint(capacity_);
    w.u8(static_cast<std::uint8_t>(level_));
    write_entries(w, std::vector<Entry>(map_.begin(), map_.end()));
  }

  // Upper bound on the bytes serialize() writes, for presizing buffers.
  std::size_t serialized_size_bound() const noexcept {
    return kHeaderMaxBytes + map_.size() * kEntryMaxBytes;
  }

  std::vector<std::uint8_t> serialize() const {
    ByteWriter w(serialized_size_bound());
    serialize(w);
    return w.take();
  }

  static CoordinatedSampler deserialize(ByteReader& r) {
    if (r.u8() != kWireVersion) throw SerializationError("bad sampler version");
    if (r.u8() != detail::ValueCodec<V>::kTag)
      throw SerializationError("sampler value-type mismatch");
    const std::uint64_t seed = r.u64();
    const std::uint64_t capacity = r.varint();
    if (capacity == 0) throw SerializationError("sampler capacity 0");
    const int level = r.u8();
    if (level > Hash::kBits) throw SerializationError("sampler level out of range");
    const std::uint64_t count = r.varint();
    if (count > capacity) throw SerializationError("sampler overfull");
    // Every entry takes at least two bytes (label delta + level), so a
    // count the buffer cannot back is refused before anything is sized,
    // and the map holds room for the count — never for the capacity the
    // sender declares (DESIGN.md §6.4). It is unindexed: the entries
    // arrive in label order, and a decoded sampler is mostly only
    // iterated, so its probe table waits for the first mutation.
    if (count > r.remaining() / 2) throw SerializationError("truncated sampler");
    CoordinatedSampler s(static_cast<std::size_t>(capacity), seed,
                         static_cast<std::size_t>(count));
    s.set_level(level);
    s.read_entries<Insert::kAppend>(r, count);
    return s;
  }

  static CoordinatedSampler deserialize(std::span<const std::uint8_t> bytes) {
    ByteReader r(bytes);
    auto s = deserialize(r);
    if (!r.done()) throw SerializationError("trailing bytes after sampler");
    return s;
  }

  // --- delta wire format (continuous monitoring) -----------------------------
  //
  // A delta from `base` (a past state of THIS sampler's stream, e.g. the
  // referee's last-acked mirror) to the current state is just (new level,
  // entries added since base): entries only ever leave the sample through
  // level raises, and the level of a label is a pure function of the shared
  // hash, so the receiver reconstructs the evictions by filtering its own
  // copy of base at the new level. apply_delta(serialize_delta(base)) on a
  // bit-identical mirror of base lands bit-identical to *this — the
  // property test_wire_matrix enforces byte-for-byte.
  void serialize_delta(ByteWriter& w, const CoordinatedSampler& base) const {
    USTREAM_REQUIRE(can_merge_with(base), "delta requires identical seed and capacity");
    USTREAM_REQUIRE(level_ >= base.level_, "delta base is ahead of the sampler");
    w.u8(kDeltaWireVersion);
    w.u8(detail::ValueCodec<V>::kTag);
    w.u8(static_cast<std::uint8_t>(level_));
    std::vector<Entry> added;
    for (const auto& e : map_) {
      if (!base.map_.contains(e.key)) added.push_back(e);
    }
    write_entries(w, std::move(added));
  }

  // Applies a delta produced by serialize_delta against a mirror of this
  // sampler's state. Throws SerializationError on any inconsistency (level
  // regression, level/seed mismatch, duplicate or overfull) — callers that
  // need rollback on failure apply onto a scratch copy and swap.
  void apply_delta(ByteReader& r) {
    if (r.u8() != kDeltaWireVersion) throw SerializationError("bad sampler delta version");
    if (r.u8() != detail::ValueCodec<V>::kTag)
      throw SerializationError("sampler delta value-type mismatch");
    const int new_level = r.u8();
    if (new_level < level_ || new_level > Hash::kBits)
      throw SerializationError("sampler delta level out of range");
    if (new_level > level_) evict_below(new_level);
    const std::uint64_t count = r.varint();
    if (count > capacity_) throw SerializationError("sampler delta overfull");
    read_entries<Insert::kEmplace>(r, count);
    if (map_.size() > capacity_) throw SerializationError("sampler overfull after delta");
  }

 private:
  static constexpr std::uint8_t kWireVersion = 1;
  static constexpr std::uint8_t kDeltaWireVersion = 1;
  // Hash-block size for add_batch: exactly one survivor-bitmask word, and
  // small enough that the hash buffer stays in L1.
  static constexpr std::size_t kBatchBlock = 64;
  // Set-aside survivors probed for "already held" before add_batch decides
  // whether probing the rest is worth it.
  static constexpr std::size_t kHeldTrial = 32;
  // Entry levels run 0..Hash::kBits.
  static constexpr std::size_t kLevels = static_cast<std::size_t>(Hash::kBits) + 1;

  // version + tag + seed + capacity varint + level + count varint.
  static constexpr std::size_t kHeaderMaxBytes = 1 + 1 + 8 + 10 + 1 + 10;
  // label-delta varint + level + value.
  static constexpr std::size_t kEntryMaxBytes = 10 + 1 + detail::ValueCodec<V>::kMaxBytes;

  // Deserialization: room for `entries` in an unindexed map, with no
  // presized floor, so a decoded sampler's table, once built, shrinks with
  // its sample like any map's.
  CoordinatedSampler(std::size_t capacity, std::uint64_t seed, std::size_t entries)
      : hash_(seed), seed_(seed), capacity_(capacity) {
    map_.reserve_entries(entries);
  }

  // The entry block of both wire formats: count, then the entries in label
  // order (so labels delta-encode compactly), each as label delta, level,
  // value — written through one presized raw buffer.
  static void write_entries(ByteWriter& w, std::vector<Entry> entries) {
    w.varint(entries.size());
    std::vector<Entry> scratch;
    radix_sort_by_key(entries, scratch, [](const Entry& e) { return e.key; });
    std::uint8_t* p = w.begin_raw(entries.size() * kEntryMaxBytes);
    std::uint64_t prev = 0;
    for (const Entry& e : entries) {
      p = put_varint(p, e.key - prev);
      prev = e.key;
      *p++ = e.value.level;
      p = detail::ValueCodec<V>::put(p, e.value.value);
    }
    w.end_raw(p);
  }

  // How read_entries puts entries into the map: appended to the fresh,
  // unindexed map of deserialize, or emplaced into apply_delta's base.
  enum class Insert { kAppend, kEmplace };

  // The entry block's decoder, shared by deserialize and apply_delta:
  // inserts `count` entries, each refused unless its label exceeds the
  // previous entry's (write_entries' order: a zero delta past the first
  // entry, or one that wraps past 2^64, is refused), its level is at or
  // above the sampler's and matches the seed's hash of its label, and —
  // for a delta — its label is not already held. Entries are parsed 64 at
  // a time and each block's labels are hashed by one hash_block call (SIMD
  // for PairwiseHash), then checked and inserted in wire order.
  template <Insert kInsert>
  void read_entries(ByteReader& r, std::uint64_t count) {
    std::uint64_t labels[kBatchBlock];
    std::uint64_t h[kBatchBlock];
    std::uint8_t levels[kBatchBlock];
    V values[kBatchBlock];
    std::uint64_t label = 0;
    for (std::uint64_t i = 0; i < count; i += kBatchBlock) {
      const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatchBlock, count - i));
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t next = label + r.varint();
        if (next <= label && i + j != 0)
          throw SerializationError("sampler labels not strictly increasing");
        label = next;
        labels[j] = label;
        levels[j] = r.u8();
        if (levels[j] < level_ || levels[j] > Hash::kBits)
          throw SerializationError("entry level out of range");
        values[j] = detail::ValueCodec<V>::read(r);
      }
      hash_block(hash_, labels, h, n, 0);
      for (std::size_t j = 0; j < n; ++j) {
        if (hash_level(h[j], Hash::kBits) != levels[j])
          throw SerializationError("entry level inconsistent with seed");
        if constexpr (kInsert == Insert::kAppend) {
          map_.append_sorted(labels[j], Slot{values[j], levels[j]});
        } else if (!map_.try_emplace(labels[j], Slot{values[j], levels[j]}).second) {
          throw SerializationError("duplicate label in sampler");
        }
      }
    }
  }

  // Whether set-aside survivors are worth probing for "already held":
  // decided by the first kHeldTrial probes of a batch.
  struct HeldTrial {
    bool on;
    std::size_t probes = 0;
    std::size_t hits = 0;
  };

  // Sets aside one hash block's survivors (bit j of `survivors` marks
  // labels[j], whose hash is h[j]) for the top-down path. A label already
  // held is a no-op in any order, so it need not wait; probing for it pays
  // only on a stream of repeats, so probing continues past the trial only
  // if most of the trial's probes hit.
  void set_aside_block(const std::uint64_t* labels, const std::uint64_t* h,
                       std::uint64_t survivors, std::size_t batch_size,
                       BatchScratch& scratch, HeldTrial& trial) {
    if (scratch.labels.empty()) {  // room for the whole batch, once
      scratch.labels.reserve(batch_size);
      scratch.levels.reserve(batch_size);
    }
    while (survivors != 0) {
      const auto j = static_cast<std::size_t>(std::countr_zero(survivors));
      survivors &= survivors - 1;
      if (trial.on) {
        const bool held = map_.contains(labels[j]);
        trial.hits += held ? 1 : 0;
        if (++trial.probes == kHeldTrial) trial.on = 2 * trial.hits >= trial.probes;
        if (held) continue;
      }
      scratch.labels.push_back(labels[j]);
      scratch.levels.push_back(static_cast<std::uint8_t>(hash_level(h[j], Hash::kBits)));
    }
  }

  // add_batch's overflow path: `rest` (with their levels) are the set-aside
  // survivors, too many to insert without a raise. Inserts them highest
  // level first and raises to one above the first level l at which the
  // sample, counted at levels >= l, exceeds capacity — the level a
  // per-label add() of the same labels ends at.
  void insert_top_down(std::span<const std::uint64_t> rest,
                       std::span<const std::uint8_t> rest_levels,
                       std::vector<std::uint64_t>& sorted) {
    // Counting sort by level; level l's labels land in [start[l+1], start[l]).
    std::array<std::uint32_t, kLevels + 1> start{};
    for (const std::uint8_t l : rest_levels) ++start[l];
    std::uint32_t offset = 0;
    for (std::size_t l = kLevels; l-- > 0;) {
      const std::uint32_t here = start[l];
      start[l + 1] = offset;
      offset += here;
    }
    start[0] = offset;
    sorted.resize(rest.size());
    std::array<std::uint32_t, kLevels + 1> next = start;
    for (std::size_t k = 0; k < rest.size(); ++k) sorted[next[rest_levels[k] + 1u]++] = rest[k];

    std::array<std::uint32_t, kLevels> held{};
    for (const auto& e : map_) ++held[e.value.level];
    const std::size_t held_total = map_.size();
    std::size_t held_at_or_above = 0;
    for (int l = Hash::kBits; l >= level_; --l) {
      const auto li = static_cast<std::size_t>(l);
      held_at_or_above += held[li];
      // Distinct labels at level >= l: held ones plus those inserted here.
      std::size_t count = map_.size() - held_total + held_at_or_above;
      // The top level has nowhere to raise to (raise_level's safety
      // valve), so it is always inserted whole.
      const bool can_raise = l < Hash::kBits;
      bool over = count > capacity_;
      for (std::size_t k = start[li + 1]; k < start[li] && !(over && can_raise); ++k) {
        if (map_.try_emplace(sorted[k], Slot{V{}, static_cast<std::uint8_t>(l)}).second) {
          over = ++count > capacity_;
        }
      }
      if (over && can_raise) {
        raise_to(l + 1);
        return;
      }
    }
  }

  // Survivor of the threshold test: compute the exact level and insert.
  // Re-checks the level against level_ because a batch caller may hold a
  // mask that predates a level raise earlier in the same block.
  void add_survivor(std::uint64_t label, V value, std::uint64_t h) {
    const int lvl = hash_level(h, Hash::kBits);
    if (lvl < level_) return;
    auto [entry, inserted] =
        map_.try_emplace(label, Slot{value, static_cast<std::uint8_t>(lvl)});
    (void)entry;
    if (inserted && map_.size() > capacity_) raise_level();
  }

  // Every level_ mutation goes through here so the cached reject mask can
  // never go stale. (h & mask) != 0  <=>  trailing_zeros(h) < level.
  void set_level(int level) noexcept {
    level_ = level;
    reject_mask_ = level >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << level) - 1;
  }

  // Adopts a higher level and drops the entries below it.
  void evict_below(int level) {
    set_level(level);
    map_.filter([this](const Entry& e) { return e.value.level >= level_; });
  }

  // Raises a level at a time until the sample fits its capacity. Per-item
  // adds and pairwise merges almost always need a single level; a batch
  // that may need several computes its final level and calls raise_to.
  void raise_level() {
    // Safety valve: if the hash has fewer usable bits than needed the
    // level is capped; with 61 bits this cannot trigger before ~2e18
    // distinct labels.
    while (map_.size() > capacity_ && level_ < Hash::kBits) raise_to(level_ + 1);
  }

  // A capacity raise from level_ to `level`, counted as one raise per
  // level skipped, exactly as if the levels had been raised one by one.
  void raise_to(int level) {
    // A raise is O(|S|) and happens only ~log(F0) times per stream, so a
    // span's two clock reads are noise here.
    USTREAM_TRACE_SPAN("ustream_sampler_level_raise_ns");
    const auto levels = static_cast<std::uint64_t>(level - level_);
    USTREAM_COUNTER_ADD("ustream_sampler_level_raises_total", levels);
    level_raises_ += levels;
    evict_below(level);
  }

  Hash hash_;
  std::uint64_t seed_;
  std::size_t capacity_;
  int level_ = 0;
  std::uint64_t reject_mask_ = 0;  // (1 << level_) - 1, cached
  DenseMap<Slot> map_;
  std::uint64_t items_processed_ = 0;
  std::uint64_t level_raises_ = 0;
};

}  // namespace ustream
