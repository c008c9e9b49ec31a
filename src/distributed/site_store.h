// SiteSketchStore — the referee's per-site sketch store (DESIGN.md §12.5).
//
// Holds each site's latest sketch (its "slot") and group tag. Every referee
// — the serve paths, collect_and_merge, ContinuousUnionMonitor — keeps its
// slots here, so one policy decides what a frame may do to them: a full
// frame replaces the slot, a delta patches a COPY that replaces the slot
// only if the patch applied, and either way the sketch must merge with the
// ones already held (same seed and shape) or the frame is refused.
//
// Reads go through lazily built caches, the union of all slots and one
// union per group tag, each behind the store's mutex. A slot change either
// FOLDS into a built cache (one merge on the next read) or marks it for a
// rebuild from the slots. Filling an empty slot folds; replacing one folds
// only if merge(new, old) serializes exactly like new (an applied delta
// always does; a full frame is checked) — then the cache, which contains
// old, merged with new equals the union with old swapped for new. That
// holds for an F0 sketch whose label set only grew and fails for additive
// FreqSketch merges; any other change (a restart with a smaller state, a
// group re-tag) rebuilds, so a cache never holds more than the current
// slots.
//
// A rebuild of a sketch with merge_many (the F0 estimators) is one
// merge_many over the cache's slots in site order on MergeEngine::shared()'s
// pool: its accumulator is presized, where a two-way fold into a copy of
// the first slot regrew that copy's table on every merge. It serializes
// exactly like the two-way fold, which FreqSketch keeps. A queued fold
// stays a plain merge: it is one site's worth of work, and a pool job per
// accepted delta cost more CPU than it saved. Lock order: the store mutex,
// then the pool's job mutex; a pool task never takes a store mutex.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/frame.h"
#include "core/merge_engine.h"
#include "obs/trace.h"

namespace ustream {

template <typename Sketch>
class SiteSketchStore {
 public:
  using Slots = std::vector<std::optional<Sketch>>;  // per site; nullopt = nothing held

  explicit SiteSketchStore(std::size_t sites) : slots_(sites), groups_(sites, 0) {}

  // The body of every referee's payload sink. Returns false — slot, tag
  // and caches untouched — when the payload does not parse, a delta has no
  // slot to patch or does not apply, or the sketch cannot merge with the
  // ones already held.
  bool accept(std::size_t site, std::uint16_t group, PayloadKind kind,
              std::span<const std::uint8_t> payload) {
    try {
      if (kind == PayloadKind::kF0Delta) {
        if constexpr (requires(Sketch& s, std::span<const std::uint8_t> b) {
                        s.apply_delta(b);
                      }) {
          std::lock_guard<std::mutex> lock(*mu_);
          if (site >= slots_.size() || !slots_[site].has_value()) return false;
          Sketch next = *slots_[site];
          next.apply_delta(payload);
          // apply_delta only raises levels and adds entries (it refuses
          // anything else), so the patched slot absorbs the old one.
          return install(site, group, std::move(next), /*extends=*/true);
        }
        return false;
      }
      Sketch full = [&] {
        USTREAM_TRACE_SPAN("ustream_sketch_decode_ns");
        return Sketch::deserialize(payload);
      }();
      std::lock_guard<std::mutex> lock(*mu_);
      return install(site, group, std::move(full));
    } catch (const SerializationError&) {
      return false;
    }
  }

  // Same policy for an already decoded sketch (files at rest).
  bool put(std::size_t site, std::uint16_t group, Sketch sketch) {
    std::lock_guard<std::mutex> lock(*mu_);
    return install(site, group, std::move(sketch));
  }

  bool has(std::size_t site) const {
    std::lock_guard<std::mutex> lock(*mu_);
    return site < slots_.size() && slots_[site].has_value();
  }

  // Read access under the store mutex. Pointers a View hands out stay valid
  // until the read() callback returns; nullptr means "nothing held".
  class View {
   public:
    std::size_t sites() const noexcept { return store_.slots_.size(); }
    const Sketch* site(std::size_t s) const {
      return s < store_.slots_.size() && store_.slots_[s] ? &*store_.slots_[s] : nullptr;
    }
    const Sketch* all() const { return store_.refresh(store_.all_, std::nullopt); }
    const Sketch* group(std::uint16_t g) const {
      auto [it, created] = store_.by_group_.try_emplace(g);
      const Sketch* out = store_.refresh(it->second, g);
      // Only groups some slot carries keep a cache: a query for an unused
      // tag must not grow the store.
      if (out == nullptr) store_.by_group_.erase(it);
      return out;
    }

   private:
    friend class SiteSketchStore;
    explicit View(const SiteSketchStore& store) : store_(store) {}
    const SiteSketchStore& store_;
  };

  template <typename Fn>
  decltype(auto) read(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(*mu_);
    const View view(*this);
    return fn(view);
  }

  // Moves the slots out for the end-of-run reduction (MergeEngine::reduce /
  // reduce_groups); the store is empty afterwards.
  Slots take_slots() {
    std::lock_guard<std::mutex> lock(*mu_);
    all_ = Cache{};
    by_group_.clear();
    Slots out(slots_.size());
    out.swap(slots_);
    held_.reset();
    return out;
  }

 private:
  struct Cache {
    std::optional<Sketch> sketch;
    std::vector<std::size_t> pending;  // sites whose current slot is still to fold in
    bool stale = true;                 // rebuild from the slots on the next read
  };

  static bool absorbs(const Sketch& next, const Sketch& old) {
    Sketch merged = next;
    merged.merge(old);
    return merged.serialize() == next.serialize();
  }

  void note(Cache& cache, std::size_t site, bool fold) {
    if (cache.stale) return;
    // A rebuild costs one pass over the slots, so a queue that long is
    // never worth keeping; this also bounds it when nobody reads.
    if (fold && cache.pending.size() < slots_.size()) {
      cache.pending.push_back(site);
      return;
    }
    cache.stale = true;
    cache.sketch.reset();
    cache.pending.clear();
  }

  bool install(std::size_t site, std::uint16_t group, Sketch&& next, bool extends = false) {
    if (site >= slots_.size() || (held_ && !slots_[*held_]->can_merge_with(next))) return false;
    std::optional<Sketch>& slot = slots_[site];
    const std::uint16_t was = groups_[site];
    const auto group_cache = by_group_.find(group);
    const bool regroup = slot.has_value() && was != group;
    const bool live = !all_.stale || (!regroup && group_cache != by_group_.end() &&
                                      !group_cache->second.stale);
    const bool fold = !slot.has_value() || extends || (live && absorbs(next, *slot));
    note(all_, site, fold);
    if (regroup) {
      if (auto it = by_group_.find(was); it != by_group_.end()) note(it->second, site, false);
    }
    // A site joining a group folds like an empty fill of that group.
    if (group_cache != by_group_.end()) note(group_cache->second, site, fold || regroup);
    slot = std::move(next);
    groups_[site] = group;
    if (!held_) held_ = site;
    return true;
  }

  const Sketch* refresh(Cache& cache, std::optional<std::uint16_t> group) const {
    const auto fold_in = [&cache](const Sketch& s) {
      if (cache.sketch) {
        cache.sketch->merge(s);
      } else {
        cache.sketch.emplace(s);
      }
    };
    if (cache.stale) {
      std::vector<const Sketch*> parts;
      for (std::size_t s = 0; s < slots_.size(); ++s) {
        if (slots_[s] && (!group || groups_[s] == *group)) parts.push_back(&*slots_[s]);
      }
      cache.sketch.reset();
      if constexpr (requires(Sketch& a, std::span<const Sketch* const> o, ThreadPool& tp) {
                      a.merge_many(o, tp);
                    }) {
        if (!parts.empty()) {
          cache.sketch.emplace(*parts.front());
          cache.sketch->merge_many(std::span(parts).subspan(1), MergeEngine::shared().pool());
        }
      } else {
        for (const Sketch* p : parts) fold_in(*p);
      }
      cache.stale = false;
    } else {
      std::sort(cache.pending.begin(), cache.pending.end());
      cache.pending.erase(std::unique(cache.pending.begin(), cache.pending.end()),
                          cache.pending.end());
      for (std::size_t s : cache.pending) fold_in(*slots_[s]);
    }
    cache.pending.clear();
    return cache.sketch ? &*cache.sketch : nullptr;
  }

  // Behind a pointer so a store (and a monitor holding one) stays movable.
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  Slots slots_;
  std::vector<std::uint16_t> groups_;
  std::optional<std::size_t> held_;  // any filled slot: the merge-compatibility reference
  mutable Cache all_;
  mutable std::map<std::uint16_t, Cache> by_group_;
};

}  // namespace ustream
