// MergeEngine — the referee's parallel merge substrate.
//
// The paper's referee folds t site sketches left-to-right; that is a
// serial chain of t-1 merges. Every sketch in this library is a pure
// function of the distinct-label set it has absorbed (see the invariants
// in coordinated_sampler.h and DESIGN.md §7), so merge is associative and
// commutative up to the leftmost-value-wins rule for valued entries — and
// leftmost-wins is itself associative as long as input ORDER is preserved.
// Any reduction tree that keeps the inputs in site order therefore yields
// a referee state BYTE-IDENTICAL to the sequential site-order fold.
//
// The schedule depends on the sketch kind:
//
//   * copy-parallel sketches — those with merge_many(others, pool), i.e.
//     the multi-copy estimators (F0Estimator, DistinctSumEstimator) — are
//     handed to that method. Their copies are independent samplers, so
//     each pool slot folds whole copies over all sites, in site order:
//     per copy this IS the sequential fold. A fold's accumulator raises
//     its sampling level once and then rejects most incoming entries with
//     a cheap level compare, so it is also the least total work.
//   * every other sketch (BottomKSampler, FreqSketch, ...) runs two phases:
//     1. block folds — the sites are split into p contiguous blocks (one
//        per pool slot); each slot folds its block sequentially, keeping
//        the fold's work profile. Wall-clock ~ (t/p) merges.
//     2. tree over heads — the p block results merge as a balanced tree
//        in block order, pairs of a round running on the pool; the final
//        (largest) pair merges copy-parallel (merge(other, pool)) when the
//        sketch supports it. A fully balanced tree would pay full
//        capacity-to-capacity merges at every internal node — measured
//        ~4x the fold's total work at 256 sites (bench_merge) — so only
//        p-1 such head merges are paid.
//
// Determinism contract (enforced by tests/test_merge_engine.cpp):
//   reduce(parts) == parts[0].merge(parts[1]).merge(parts[2])... as
//   serialized bytes, for every sketch kind, any pool size (including 0
//   workers = fully inline), and any scheduling of the round's tasks —
//   copies, blocks and tree pairs are disjoint and each keeps site order,
//   so the result cannot depend on execution order.
//
// Pool sizing: workers = threads-1 and the calling thread participates in
// every parallel_for, so a 1-core host degenerates to exactly the
// sequential fold with no synchronization at all.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ustream {

// A small fixed pool executing level-synchronous parallel_for jobs. The
// caller always participates, so `workers == 0` is a valid (purely
// inline) configuration and the pool never deadlocks on a 1-core host.
class ThreadPool {
 public:
  // Spawns `workers` persistent worker threads (0 is fine).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  // Runs body(i) exactly once for every i in [0, n), distributing indices
  // over the workers plus the calling thread; returns when all n calls
  // have finished. The first exception thrown by any body is rethrown on
  // the caller after the job completes. Re-entrant calls from inside a
  // pool task run inline (the pool's job state is single-level); calls
  // from separate threads take turns, one job at a time.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void run_indices(const std::function<void(std::size_t)>& body, std::size_t n) noexcept;

  std::vector<std::thread> workers_;
  std::mutex job_mu_;  // held by a non-nested caller for its whole job
  std::mutex mu_;
  std::condition_variable work_cv_;  // a new job generation is available
  std::condition_variable done_cv_;  // all workers finished the generation
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t workers_busy_ = 0;
  std::exception_ptr error_;
};

class MergeEngine {
 public:
  // threads == 0 picks hardware_concurrency (clamped to [1, 16]); the
  // pool then holds threads-1 workers because the caller participates.
  explicit MergeEngine(std::size_t threads = 0);

  // Process-wide engine used by DistributedRun::collect() and
  // shard_and_merge when the caller does not pass one. Lazily built.
  static MergeEngine& shared();

  ThreadPool& pool() noexcept { return pool_; }
  std::size_t threads() const noexcept { return pool_.worker_count() + 1; }

  // Deterministic reduction over `parts` in index order, scheduled per
  // sketch kind (see the file comment): copy-parallel sketches go to
  // merge_many(others, pool); the rest run contiguous block folds (one
  // block per pool slot) followed by a balanced tree over the block
  // heads. Byte-identical to the sequential fold of `parts`. Returns
  // nullopt iff parts is empty. Inputs are consumed.
  template <typename Sketch>
  std::optional<Sketch> reduce(std::vector<Sketch>&& parts) {
    USTREAM_TRACE_SPAN("ustream_merge_reduce_ns");
    USTREAM_COUNTER_ADD("ustream_merge_parts_total", parts.size());
    if (parts.empty()) return std::nullopt;
    if (parts.size() == 1) return std::move(parts[0]);
    if constexpr (requires(Sketch& a, std::span<const Sketch* const> others, ThreadPool& tp) {
                    a.merge_many(others, tp);
                  }) {
      std::vector<const Sketch*> rest;
      rest.reserve(parts.size() - 1);
      for (std::size_t i = 1; i < parts.size(); ++i) rest.push_back(&parts[i]);
      parts[0].merge_many(std::span<const Sketch* const>(rest), pool_);
      return std::move(parts[0]);
    }
    const std::size_t slots = pool_.worker_count() + 1;
    if (slots == 1) {
      // Inline host: the fold IS the work-optimal schedule.
      for (std::size_t i = 1; i < parts.size(); ++i) parts[0].merge(parts[i]);
      return std::move(parts[0]);
    }
    // Phase 1: fold p contiguous blocks concurrently, in site order.
    const std::size_t blocks = std::min(slots, parts.size());
    const std::size_t per = (parts.size() + blocks - 1) / blocks;
    pool_.parallel_for(blocks, [&](std::size_t b) {
      const std::size_t begin = b * per;
      const std::size_t end = std::min(parts.size(), begin + per);
      for (std::size_t i = begin + 1; i < end; ++i) parts[begin].merge(parts[i]);
    });
    std::vector<std::size_t> idx;  // block heads, still in site order
    idx.reserve(blocks);
    for (std::size_t b = 0; b < blocks && b * per < parts.size(); ++b) {
      idx.push_back(b * per);
    }
    // Phase 2: balanced tree over the heads (an odd tail carries).
    while (idx.size() > 2) {
      const std::size_t pairs = idx.size() / 2;
      pool_.parallel_for(pairs, [&](std::size_t p) {
        parts[idx[2 * p]].merge(parts[idx[2 * p + 1]]);
      });
      std::vector<std::size_t> survivors;
      survivors.reserve(pairs + (idx.size() & 1));
      for (std::size_t p = 0; p < pairs; ++p) survivors.push_back(idx[2 * p]);
      if (idx.size() & 1) survivors.push_back(idx.back());
      idx = std::move(survivors);
    }
    if (idx.size() == 2) {
      // The last merge is the largest; run it copy-parallel on the caller
      // (NOT inside parallel_for, which would force the nested pool use
      // inline) so it too spans every slot.
      if constexpr (requires(Sketch& a, const Sketch& b, ThreadPool& tp) {
                      a.merge(b, tp);
                    }) {
        parts[idx[0]].merge(parts[idx[1]], pool_);
      } else {
        parts[idx[0]].merge(parts[idx[1]]);
      }
    }
    return std::move(parts[idx[0]]);
  }

  // Same, over a degraded collection: missing sites (nullopt) are skipped
  // with the order of the present sites preserved — exactly what the
  // sequential referee loop did with partial collections.
  template <typename Sketch>
  std::optional<Sketch> reduce(std::vector<std::optional<Sketch>>&& parts) {
    std::vector<Sketch> live;
    live.reserve(parts.size());
    for (auto& p : parts) {
      if (p) live.push_back(std::move(*p));
    }
    return reduce(std::move(live));
  }

 private:
  ThreadPool pool_;
};

}  // namespace ustream
