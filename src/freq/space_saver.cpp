#include "freq/space_saver.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustream {

SpaceSaver::SpaceSaver(std::size_t capacity)
    : capacity_(capacity), index_(capacity + 1) {
  USTREAM_REQUIRE(capacity >= 1, "space-saver capacity must be >= 1");
  slots_.reserve(capacity);
  heap_.reserve(capacity);
  pos_.reserve(capacity);
}

SpaceSaver::SpaceSaver(std::size_t capacity, std::size_t entries)
    : capacity_(capacity), index_(entries + 1) {
  slots_.reserve(entries);
  heap_.reserve(entries);
  pos_.reserve(entries);
}

void SpaceSaver::heap_swap(std::size_t i, std::size_t j) noexcept {
  std::swap(heap_[i], heap_[j]);
  pos_[heap_[i]] = static_cast<std::uint32_t>(i);
  pos_[heap_[j]] = static_cast<std::uint32_t>(j);
}

void SpaceSaver::sift_up(std::size_t heap_index) noexcept {
  while (heap_index > 0) {
    const std::size_t parent = (heap_index - 1) / 2;
    if (!heap_less(heap_[heap_index], heap_[parent])) break;
    heap_swap(heap_index, parent);
    heap_index = parent;
  }
}

void SpaceSaver::sift_down(std::size_t heap_index) noexcept {
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t left = 2 * heap_index + 1;
    if (left >= n) break;
    std::size_t smallest = heap_index;
    if (heap_less(heap_[left], heap_[smallest])) smallest = left;
    const std::size_t right = left + 1;
    if (right < n && heap_less(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == heap_index) break;
    heap_swap(heap_index, smallest);
    heap_index = smallest;
  }
}

void SpaceSaver::rebuild_heap() {
  heap_.resize(slots_.size());
  pos_.resize(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    heap_[i] = static_cast<std::uint32_t>(i);
    pos_[i] = static_cast<std::uint32_t>(i);
  }
  if (heap_.size() > 1) {
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
  }
}

void SpaceSaver::index_put(std::uint64_t label, std::uint32_t slot) {
  auto [entry, inserted] = index_.try_emplace(label, slot);
  if (!inserted) entry->value = slot;  // reclaim a stale row in place
}

SpaceSaver::Entry* SpaceSaver::find_slot(std::uint64_t label) noexcept {
  const auto* e = index_.find(label);
  if (e == nullptr) return nullptr;
  const std::uint32_t slot = e->value;
  // The index may point at a slot a later eviction handed to another
  // label; the slot's own label field is the source of truth.
  if (slot >= slots_.size() || slots_[slot].label != label) return nullptr;
  return &slots_[slot];
}

bool SpaceSaver::contains(std::uint64_t label) const noexcept {
  return find_slot(label) != nullptr;
}

void SpaceSaver::maybe_compact_index() {
  if (index_.size() <= 8 * slots_.size() + 64) return;
  index_.filter([this](const DenseMap<std::uint32_t>::Entry& e) {
    return e.value < slots_.size() && slots_[e.value].label == e.key;
  });
}

void SpaceSaver::add(std::uint64_t label, std::uint64_t weight) {
  if (weight == 0) return;
  total_ += weight;
  if (Entry* hit = find_slot(label)) {
    hit->count += weight;
    // The key only grew, so the slot can only move toward the leaves.
    sift_down(pos_[static_cast<std::size_t>(hit - slots_.data())]);
    return;
  }
  if (slots_.size() >= capacity_) {
    USTREAM_COUNTER_ADD("ustream_freq_heavy_evictions_total", 1);
  }
  admit(label, weight);
}

void SpaceSaver::admit(std::uint64_t label, std::uint64_t weight) {
  if (slots_.size() < capacity_) {
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Entry{label, absent_bound_ + weight, absent_bound_});
    heap_.push_back(slot);
    pos_.push_back(static_cast<std::uint32_t>(heap_.size() - 1));
    sift_up(heap_.size() - 1);
    index_put(label, slot);
    return;
  }
  // Full: the candidate {absent_bound_ + weight, absent_bound_} joins a
  // notional capacity+1 set and the (count, label)-minimum is evicted,
  // raising the absent bound to its count. When the candidate IS the
  // minimum this degenerates to bumping the bound; otherwise the heap root
  // is evicted and its slot reused in place.
  const std::uint32_t root = heap_[0];
  const Entry& min_entry = slots_[root];
  const std::uint64_t candidate_count = absent_bound_ + weight;
  const bool candidate_is_min =
      candidate_count < min_entry.count ||
      (candidate_count == min_entry.count && label < min_entry.label);
  if (candidate_is_min) {
    absent_bound_ = candidate_count;
    return;
  }
  const std::uint64_t evicted_count = min_entry.count;
  slots_[root] = Entry{label, absent_bound_ + weight, absent_bound_};
  absent_bound_ = evicted_count;
  sift_down(pos_[root]);
  index_put(label, root);
  maybe_compact_index();
}

void SpaceSaver::settle(std::uint32_t slot, WeightedLabels& out) {
  slots_[slot].count += pending_[slot];
  out.labels.push_back(slots_[slot].label);
  out.weights.push_back(pending_[slot]);
  pending_[slot] = 0;
  sift_down(pos_[slot]);
}

void SpaceSaver::add_batch(std::span<const std::uint64_t> labels, WeightedLabels& out) {
  out.labels.clear();
  out.weights.clear();
  // Each output row is a miss or settles at least one hit: no regrowth.
  out.labels.reserve(labels.size());
  out.weights.reserve(labels.size());
  pending_.resize(slots_.size());
  total_ += labels.size();
  std::uint64_t evictions = 0;
  for (const std::uint64_t label : labels) {
    if (const Entry* hit = find_slot(label)) {
      ++pending_[static_cast<std::size_t>(hit - slots_.data())];
      continue;
    }
    out.labels.push_back(label);
    out.weights.push_back(1);
    if (slots_.size() >= capacity_) {
      ++evictions;
      // Settle until the root's stored count is its true count: only then
      // is it the minimum the scalar path would compare against.
      while (pending_[heap_[0]] != 0) settle(heap_[0], out);
    }
    admit(label, 1);
    // Sized by the slots in use, never by the declared capacity: a decoded
    // summary may declare far more than it will ever hold.
    pending_.resize(slots_.size());
  }
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (pending_[slot] != 0) settle(slot, out);
  }
  USTREAM_COUNTER_ADD("ustream_freq_heavy_evictions_total", evictions);
}

SpaceSaver::Bound SpaceSaver::estimate(std::uint64_t label) const noexcept {
  if (const Entry* e = find_slot(label)) {
    return Bound{e->count, e->count - e->error};
  }
  return Bound{absent_bound_, 0};
}

std::vector<SpaceSaver::Entry> SpaceSaver::top(std::size_t k) const {
  std::vector<Entry> out(slots_.begin(), slots_.end());
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.label < b.label;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<SpaceSaver::Entry> SpaceSaver::guaranteed_at_least(
    std::uint64_t threshold) const {
  std::vector<Entry> out;
  for (const Entry& e : slots_) {
    if (e.count - e.error >= threshold) out.push_back(e);
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.label < b.label;
  });
  return out;
}

std::size_t SpaceSaver::bytes_used() const noexcept {
  return sizeof(*this) + slots_.capacity() * sizeof(Entry) +
         (heap_.capacity() + pos_.capacity()) * sizeof(std::uint32_t) +
         pending_.capacity() * sizeof(std::uint64_t) + index_.bytes_used();
}

void SpaceSaver::merge(const SpaceSaver& other) {
  USTREAM_REQUIRE(can_merge_with(other),
                  "merge requires space-savers with identical capacity");
  USTREAM_TRACE_SPAN("ustream_freq_merge_ns");
  const std::uint64_t my_bound = absent_bound_;
  // Tracked-here labels: add the other summary's interval (its absent
  // bound when it never tracked the label).
  for (Entry& mine : slots_) {
    if (const Entry* theirs = other.find_slot(mine.label)) {
      mine.count += theirs->count;
      mine.error += theirs->error;
    } else {
      mine.count += other.absent_bound_;
      mine.error += other.absent_bound_;
    }
  }
  // Tracked-only-there labels join with THIS summary's pre-merge bound.
  for (const Entry& theirs : other.slots_) {
    if (find_slot(theirs.label) != nullptr) continue;
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Entry{theirs.label, my_bound + theirs.count, my_bound + theirs.error});
    index_put(theirs.label, slot);
  }
  absent_bound_ += other.absent_bound_;
  total_ += other.total_;
  rebuild_heap();
  maybe_compact_index();
}

void SpaceSaver::serialize(ByteWriter& w) const {
  w.u8(kWireVersion);
  w.varint(capacity_);
  w.varint(absent_bound_);
  w.varint(total_);
  w.varint(slots_.size());
  // Label-sorted, delta-encoded: the canonical byte layout every merge
  // order of the same summaries shares.
  std::vector<const Entry*> order;
  order.reserve(slots_.size());
  for (const Entry& e : slots_) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const Entry* a, const Entry* b) { return a->label < b->label; });
  std::uint64_t prev = 0;
  for (const Entry* e : order) {
    w.varint(e->label - prev);
    prev = e->label;
    w.varint(e->count);
    w.varint(e->error);
  }
}

std::vector<std::uint8_t> SpaceSaver::serialize() const {
  ByteWriter w(16 + slots_.size() * 12);
  serialize(w);
  return w.take();
}

SpaceSaver SpaceSaver::deserialize(ByteReader& r) {
  if (r.u8() != kWireVersion) throw SerializationError("bad space-saver version");
  const std::uint64_t capacity = r.varint();
  if (capacity == 0) throw SerializationError("space-saver capacity 0");
  const std::uint64_t absent_bound = r.varint();
  const std::uint64_t total = r.varint();
  const std::uint64_t count = r.varint();
  // A merged union summary legitimately exceeds its per-site capacity, but
  // every entry costs at least 3 encoded bytes — bound the allocation by
  // what the buffer can actually carry (DESIGN.md §6.4).
  if (count > r.remaining() / 3 + 1) throw SerializationError("space-saver overfull");
  SpaceSaver s(static_cast<std::size_t>(capacity), static_cast<std::size_t>(count));
  s.absent_bound_ = absent_bound;
  s.total_ = total;
  std::uint64_t label = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t delta = r.varint();
    if (i > 0 && delta == 0) throw SerializationError("duplicate space-saver label");
    label += delta;
    Entry e;
    e.label = label;
    e.count = r.varint();
    e.error = r.varint();
    if (e.error > e.count || e.count == 0) {
      throw SerializationError("space-saver entry bounds inverted");
    }
    if (e.count < absent_bound) {
      throw SerializationError("space-saver entry below absent bound");
    }
    const auto slot = static_cast<std::uint32_t>(s.slots_.size());
    s.slots_.push_back(e);
    s.index_put(e.label, slot);
  }
  if (s.total_ != 0) {
    // total is the summed stream weight; each tracked lower bound is part
    // of it, so their sum can never exceed it.
    std::uint64_t lower_sum = 0;
    for (const Entry& e : s.slots_) lower_sum += e.count - e.error;
    if (lower_sum > s.total_) throw SerializationError("space-saver totals inconsistent");
  }
  s.rebuild_heap();
  return s;
}

SpaceSaver SpaceSaver::deserialize(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  auto s = deserialize(r);
  if (!r.done()) throw SerializationError("trailing bytes after space-saver");
  return s;
}

}  // namespace ustream
