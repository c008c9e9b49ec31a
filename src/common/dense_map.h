// DenseMap: open-addressing hash map from uint64 labels to a small value
// type, with dense entry storage.
//
// Tailored to the access pattern of level-based samplers:
//   * insert-if-absent and lookup are the hot operations;
//   * deletion only ever happens in bulk ("drop every entry below level l"),
//     implemented as an in-place filter + index rebuild, so the probe table
//     needs no tombstones; the rebuild keeps the table at the size the map
//     was presized for, so a sampler that raises its level and refills
//     never pays a shrink and a regrow;
//   * iteration over live entries must be cache-friendly (dense vector).
//
// The probe table stores 1-based indices into the entry vector; 0 = empty.
// Table placement uses a fixed avalanche mix of the label — independent of
// any sampler hash, so pathological inputs for the sampler's pairwise hash
// cannot also degrade the table.
//
// A map may also be *unindexed*: no probe table at all, its entries in
// strictly increasing key order. A default-constructed map starts so, and
// append_sorted() keeps it so — a decoded sampler, which the referee only
// iterates, never pays for a table. The first mutating call (try_emplace,
// filter, reserve, presize, reset, non-const find) builds the table that
// reserve(size()) would have given, so every later state is the one an
// eagerly indexed map reaches. Const lookups on an unindexed map
// binary-search and never build anything: concurrent readers share it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/error.h"

namespace ustream {

namespace detail {
constexpr std::uint64_t dense_map_mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 32;
  return x;
}
}  // namespace detail

template <typename V>
class DenseMap {
 public:
  struct Entry {
    std::uint64_t key;
    V value;
  };

  DenseMap() = default;  // unindexed and empty
  explicit DenseMap(std::size_t expected_size) : floor_slots_(table_size_for(expected_size)) {
    rebuild(floor_slots_);
    entries_.reserve(expected_size);
  }

  // Makes room for n entries without a regrow. Unlike presizing through
  // the constructor, this sets no floor: a later filter() shrinks to fit.
  // An unindexed map gets at least the table reserve(size()) would give.
  void reserve(std::size_t n) {
    const std::size_t want = table_size_for(slots_.empty() ? std::max(n, entries_.size()) : n);
    if (want > slots_.size()) rebuild(want);
    entries_.reserve(n);
  }

  // reserve(n) plus the constructor's floor: filter() keeps room for n.
  void presize(std::size_t n) {
    floor_slots_ = std::max(floor_slots_, table_size_for(n));
    reserve(n);
  }

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  // Room for n entries in an unindexed map's entry storage; no table.
  void reserve_entries(std::size_t n) { entries_.reserve(n); }

  // Appends (key, value) to an unindexed map; key must exceed every key
  // it holds.
  void append_sorted(std::uint64_t key, V value) {
    USTREAM_REQUIRE(slots_.empty() && (entries_.empty() || key > entries_.back().key),
                    "append_sorted needs an unindexed map and increasing keys");
    entries_.push_back(Entry{key, std::move(value)});
  }

  // Inserts (key, value) if key is absent. Returns {pointer to entry,
  // inserted?}. Pointers are invalidated by any mutating call.
  std::pair<Entry*, bool> try_emplace(std::uint64_t key, V value) {
    if ((entries_.size() + 1) * 8 > slots_.size() * 7) grow();  // also indexes
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = detail::dense_map_mix(key) & mask;
    while (true) {
      const std::uint32_t slot = slots_[pos];
      if (slot == 0) {
        entries_.push_back(Entry{key, std::move(value)});
        slots_[pos] = static_cast<std::uint32_t>(entries_.size());
        return {&entries_.back(), true};
      }
      Entry& e = entries_[slot - 1];
      if (e.key == key) return {&e, false};
      pos = (pos + 1) & mask;
    }
  }

  Entry* find(std::uint64_t key) {
    if (slots_.empty()) index();
    return const_cast<Entry*>(std::as_const(*this).find(key));
  }

  const Entry* find(std::uint64_t key) const noexcept {
    if (slots_.empty()) {
      const auto it = std::lower_bound(
          entries_.begin(), entries_.end(), key,
          [](const Entry& e, std::uint64_t k) { return e.key < k; });
      return it != entries_.end() && it->key == key ? &*it : nullptr;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t pos = detail::dense_map_mix(key) & mask;
    while (true) {
      const std::uint32_t slot = slots_[pos];
      if (slot == 0) return nullptr;
      const Entry& e = entries_[slot - 1];
      if (e.key == key) return &e;
      pos = (pos + 1) & mask;
    }
  }

  bool contains(std::uint64_t key) const noexcept { return find(key) != nullptr; }

  // Keeps exactly the entries for which pred(entry) is true; single pass,
  // then re-indexes the survivors. This is the bulk "raise the level"
  // eviction used by samplers. The probe table shrinks to fit the
  // survivors, but never below the size the constructor presized it for.
  template <typename Pred>
  void filter(Pred pred) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < entries_.size(); ++r) {
      if (pred(static_cast<const Entry&>(entries_[r]))) {
        if (w != r) entries_[w] = std::move(entries_[r]);
        ++w;
      }
    }
    entries_.resize(w);
    reindex();
  }

  void clear() {
    entries_.clear();
    rebuild(kMinSlots);
  }

  // Empties the map but keeps its probe-table size and entry storage, so
  // a map sized once for a bound can be refilled up to it without regrowing.
  void reset() {
    if (slots_.empty()) index();
    std::fill(slots_.begin(), slots_.end(), 0);
    entries_.clear();
  }

  // Dense iteration over live entries, in insertion(-ish) order.
  auto begin() noexcept { return entries_.begin(); }
  auto end() noexcept { return entries_.end(); }
  auto begin() const noexcept { return entries_.begin(); }
  auto end() const noexcept { return entries_.end(); }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  // Probe-table slots, 0 while unindexed; the map grows once size()
  // exceeds 7/8 of them.
  std::size_t table_size() const noexcept { return slots_.size(); }

  // Memory footprint in bytes (entries + probe table), for space accounting.
  std::size_t bytes_used() const noexcept {
    return entries_.capacity() * sizeof(Entry) + slots_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  static std::size_t table_size_for(std::size_t n) {
    // Keep load factor under 7/8.
    std::size_t want = ceil_pow2(n + n / 4 + kMinSlots);
    return want < kMinSlots ? kMinSlots : want;
  }

  void rebuild(std::size_t slot_count) {
    slots_.assign(slot_count, 0);
    reindex_into_current();
  }

  void reindex() { rebuild(std::max(floor_slots_, table_size_for(entries_.size()))); }

  // An unindexed map's first table: what reserve(size()) gives.
  void index() { rebuild(table_size_for(entries_.size())); }

  void grow() {
    if (slots_.empty()) return index();
    slots_.assign(slots_.size() * 2, 0);
    reindex_into_current();
  }

  void reindex_into_current() noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t pos = detail::dense_map_mix(entries_[i].key) & mask;
      while (slots_[pos] != 0) pos = (pos + 1) & mask;
      slots_[pos] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;
  std::size_t floor_slots_ = kMinSlots;  // filter() never shrinks the table below this
};

// A set of uint64 keys built on DenseMap; used by the exact baseline.
class DenseSet {
 public:
  DenseSet() = default;
  explicit DenseSet(std::size_t expected) : map_(expected) {}

  // Returns true if the key was newly inserted.
  bool insert(std::uint64_t key) { return map_.try_emplace(key, Empty{}).second; }
  bool contains(std::uint64_t key) const noexcept { return map_.contains(key); }
  std::size_t size() const noexcept { return map_.size(); }
  std::size_t bytes_used() const noexcept { return map_.bytes_used(); }
  void clear() { map_.clear(); }

  template <typename Fn>
  void for_each(Fn fn) const {
    for (const auto& e : map_) fn(e.key);
  }

 private:
  struct Empty {};
  DenseMap<Empty> map_;
};

}  // namespace ustream
