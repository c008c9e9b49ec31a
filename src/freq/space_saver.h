// SpaceSaver — the Metwally–Agrawal–El Abbadi top-k summary, in the
// interval form that makes its merge EXACTLY associative (Agarwal et al.,
// "Mergeable Summaries").
//
// State: up to `capacity` tracked entries {label, count, error} plus one
// scalar `absent_bound` m. Invariants (checked by property tests):
//   * for a tracked label x:   count(x) - error(x) <= f(x) <= count(x)
//   * for an untracked label:                         f(x) <= m
//   * m <= min tracked count; m only grows (to the evicted entry's count).
//
// Ingest is the classic algorithm restated against m: a hit increments its
// counter; a miss inserts {m + w, m}; when that overflows capacity, the
// minimum entry (by (count, label) — the tie-break is part of the wire
// contract) is evicted and m rises to its count. The min lives at the root
// of an indexed binary heap, so a hit costs one map probe plus an O(log
// capacity) sift and an eviction is O(log capacity) — no linear scans on
// the ingest path.
//
// Merge does NOT truncate: the entry set is the union, each label's
// interval is the sum of its per-summary intervals (an absent summary
// contributes [0, m_i]), and the bounds add: count = sum of upper bounds,
// error = count - sum of lower bounds, m = sum of m_i. Interval sums and
// scalar sums are associative and commutative, so any merge tree over the
// same multiset of summaries yields the same state — serialized bytes
// included (entries are written label-sorted) — which is what lets the
// referee's MergeEngine tree-reduce freq payloads byte-identically to the
// sequential site-order fold. The union summary holds at most
// sites x capacity entries; top(k) truncates at query time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dense_map.h"
#include "common/error.h"
#include "common/serialize.h"

namespace ustream {

class SpaceSaver {
 public:
  struct Entry {
    std::uint64_t label = 0;
    std::uint64_t count = 0;  // upper bound on the label's frequency
    std::uint64_t error = 0;  // count - error is the matching lower bound
  };

  explicit SpaceSaver(std::size_t capacity);

  void add(std::uint64_t label, std::uint64_t weight = 1);

  // Frequency interval for one label: tracked labels report their entry,
  // untracked labels report [0, absent_bound].
  struct Bound {
    std::uint64_t upper = 0;
    std::uint64_t lower = 0;
  };
  Bound estimate(std::uint64_t label) const noexcept;

  // The k entries with the largest counts, ordered by (count desc, label
  // asc) — the deterministic order every report in this repo uses.
  std::vector<Entry> top(std::size_t k) const;

  // Entries with a GUARANTEED frequency >= threshold (lower bound test).
  std::vector<Entry> guaranteed_at_least(std::uint64_t threshold) const;

  std::uint64_t absent_bound() const noexcept { return absent_bound_; }
  std::uint64_t total_weight() const noexcept { return total_; }
  std::size_t size() const noexcept { return slots_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  bool contains(std::uint64_t label) const noexcept;
  std::size_t bytes_used() const noexcept;

  bool can_merge_with(const SpaceSaver& other) const noexcept {
    return capacity_ == other.capacity_;
  }
  void merge(const SpaceSaver& other);

  void serialize(ByteWriter& w) const;
  std::vector<std::uint8_t> serialize() const;
  static SpaceSaver deserialize(ByteReader& r);
  static SpaceSaver deserialize(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::uint8_t kWireVersion = 1;

  // Decoding: storage sized for the `entries` on the wire, never for the
  // capacity the sender declares.
  SpaceSaver(std::size_t capacity, std::size_t entries);

  // Eviction order: smallest (count, label) first.
  bool heap_less(std::uint32_t a, std::uint32_t b) const noexcept {
    const Entry& ea = slots_[a];
    const Entry& eb = slots_[b];
    if (ea.count != eb.count) return ea.count < eb.count;
    return ea.label < eb.label;
  }
  void sift_up(std::size_t heap_index) noexcept;
  void sift_down(std::size_t heap_index) noexcept;
  void heap_swap(std::size_t i, std::size_t j) noexcept;
  void rebuild_heap();
  void evict_min();
  // Stale index entries (left behind by slot-reusing evictions) are
  // reclaimed in bulk once the index outgrows the live set 8:1.
  void maybe_compact_index();
  Entry* find_slot(std::uint64_t label) noexcept;
  const Entry* find_slot(std::uint64_t label) const noexcept {
    return const_cast<SpaceSaver*>(this)->find_slot(label);
  }
  void index_put(std::uint64_t label, std::uint32_t slot);

  std::size_t capacity_;
  std::uint64_t absent_bound_ = 0;
  std::uint64_t total_ = 0;
  std::vector<Entry> slots_;          // dense entry storage
  std::vector<std::uint32_t> heap_;   // slot ids, min-(count,label) at root
  std::vector<std::uint32_t> pos_;    // slot id -> heap index
  DenseMap<std::uint32_t> index_;     // label -> slot id (may hold stale rows)
};

}  // namespace ustream
