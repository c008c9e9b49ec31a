// ContinuousUnionMonitor — an extension beyond the paper's one-shot model.
//
// The SPAA'01 model has parties communicate only once, after their streams
// end. Real monitoring products also want a LIVE union estimate. The
// mergeable-sketch property makes the obvious periodic protocol sound:
// every site pushes a fresh snapshot of its sketch after each
// `report_interval` items; the referee keeps the latest snapshot per site
// and answers queries by merging the snapshots it has. The answer is then
// an estimate of the union of the observed PREFIXES — never an overcount —
// and the communication/staleness tradeoff is exactly report_interval.
// (This is the direction later formalized in the continuous distributed
// monitoring literature; here it is the natural corollary of mergeability.)
//
// Fault tolerance: snapshots travel as checksummed frames tagged with
// (site, epoch), epoch increasing per site. The referee quarantines frames
// that fail CRC or decode, drops duplicates, and ignores snapshots older
// than the one it holds (latest-wins), so a dropping/duplicating/reordering
// transport only ever makes the estimate STALER, never wrong: the answer
// stays a prefix-union estimate, and staleness() quantifies the lag.
// flush() adds ack/retry with capped backoff so end-of-stream state
// converges even through a lossy transport.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/f0_estimator.h"
#include "core/params.h"
#include "core/windowed_sampler.h"
#include "distributed/channel.h"
#include "distributed/collect.h"
#include "distributed/site_store.h"
#include "distributed/transport.h"

namespace ustream {

// Site-side state machine of the delta protocol (DESIGN.md §12). Tracks one
// site's estimator against the referee's last-acked mirror and stays SILENT
// until a threshold crossing — any copy raising its level, or any copy's
// sampled set growing by a (1+growth) factor since the last transmission
// (the paper-adjacent trigger: between crossings the referee's copy of the
// site is within (1+growth) of the live one, so the live union estimate
// keeps a multiplicative envelope at all times). When an update is due it
// emits a DELTA against the acked base (PayloadKind::kF0Delta) while the
// chain is intact, and a full frame (kF0Estimator) on first contact or
// after any loss — the resync that re-bases the chain.
//
// Transport-agnostic: callers frame and send the payload, learn the
// verdict (in-process drain, TCP ack byte), and report it back through
// delivered()/lost().
class DeltaSiteSession {
 public:
  DeltaSiteSession(const EstimatorParams& params, double growth);

  // Observes one label. Returns true when the send threshold is crossed —
  // the caller should then transmit next_update(). Non-triggering adds are
  // counted as suppressed updates (the communication the thresholds save).
  bool add(std::uint64_t label);

  struct Outgoing {
    std::vector<std::uint8_t> payload;
    std::uint32_t epoch = 0;
    bool is_delta = false;
  };

  // Builds the next transmission at a fresh epoch: a delta against the
  // acked base when the chain is intact, else a full frame.
  Outgoing next_update();
  // Forces a full frame at a fresh epoch (end-of-stream flush / resync).
  Outgoing next_full();
  // Re-encodes the in-flight full frame at the same epoch (flush retries;
  // the latest-wins referee dedups the retransmissions).
  Outgoing resend();

  // Verdict on the in-flight transmission: delivered() advances the acked
  // base to the state that was sent; lost() pends a full-frame resync.
  void delivered();
  void lost();

  const F0Estimator& sketch() const noexcept { return sketch_; }
  std::uint32_t epoch() const noexcept { return epoch_; }
  // True while the referee's acked base lags the live sketch.
  bool dirty() const noexcept { return !base_.has_value() || items_ != base_items_; }
  bool needs_full() const noexcept { return !base_.has_value() || need_full_; }

  std::uint64_t deltas_sent() const noexcept { return deltas_sent_; }
  std::uint64_t fulls_sent() const noexcept { return fulls_sent_; }
  std::uint64_t resyncs() const noexcept { return resyncs_; }
  std::uint64_t suppressed() const noexcept { return suppressed_; }

 private:
  bool update_due() const;
  std::vector<std::pair<int, std::size_t>> signature() const;

  double growth_;
  F0Estimator sketch_;
  std::optional<F0Estimator> base_;     // the referee's last-acked mirror
  std::optional<F0Estimator> pending_;  // state captured at the in-flight send
  bool pending_full_ = false;
  bool need_full_ = false;
  std::uint32_t epoch_ = 0;
  std::uint64_t items_ = 0;
  std::uint64_t base_items_ = 0;
  std::uint64_t pending_items_count_ = 0;
  // Per-copy (level, size) at the last transmission: the thresholds.
  std::vector<std::pair<int, std::size_t>> sent_sig_;
  std::uint64_t deltas_sent_ = 0;
  std::uint64_t fulls_sent_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t suppressed_ = 0;
};

// Selects the continuous protocol variant.
struct ContinuousMonitorOptions {
  // false: the original periodic full-snapshot protocol (every
  // report_interval items). true: threshold-silent sites sending delta
  // frames, full frames only for resync — communication sublinear in
  // stream length (ROADMAP item 2).
  bool delta_protocol = false;
  // (1+growth) sampled-set growth trigger; the live estimate then stays
  // within a [(1-eps)/(1+growth), (1+eps)] envelope of the exact prefix
  // union (DESIGN.md §12.3). The ISSUE's eps/2 shape: growth = eps/2.
  double growth = 0.5;
};

class ContinuousUnionMonitor {
 public:
  // Perfect in-process transport (the original model).
  ContinuousUnionMonitor(std::size_t sites, std::uint64_t report_interval,
                         const EstimatorParams& params);
  // In-process transport with explicit protocol options.
  ContinuousUnionMonitor(std::size_t sites, std::uint64_t report_interval,
                         const EstimatorParams& params,
                         const ContinuousMonitorOptions& options);
  // Custom transport (e.g. FaultyChannel) and retry policy for flush().
  ContinuousUnionMonitor(std::size_t sites, std::uint64_t report_interval,
                         const EstimatorParams& params, std::unique_ptr<Transport> transport,
                         const RetryPolicy& policy = RetryPolicy{},
                         const ContinuousMonitorOptions& options = ContinuousMonitorOptions{});

  // Site observes one label; may trigger a snapshot push.
  void observe(std::size_t site, std::uint64_t label);

  // Force every site to push its current state (end-of-stream flush) and
  // retry per policy until each site's final snapshot is acked or its
  // attempt budget is exhausted. Returns the collection status.
  const CollectReport& flush();

  // Union estimate from the snapshots currently at the referee.
  //
  // Incremental: the referee's SiteSketchStore keeps a cached union and a
  // query only folds in the snapshots that arrived since the last call —
  // typically zero or a handful — instead of copying and merging all t.
  // Folding a site's NEWER snapshot over its older one already in the
  // cache is exact: the older snapshot covers a prefix of the newer one's
  // stream, and sampler state is a duplicate-insensitive pure function of
  // the absorbed label set (DESIGN.md §7), so old ∪ new == new — the
  // store checks exactly that before it folds. Verified against
  // estimate_full_remerge() in tests.
  double estimate() const;

  // The non-incremental reference path: copy-and-merge every snapshot on
  // each call. Kept for the equivalence tests and the E8 bench row that
  // measures what the incremental cache saves.
  double estimate_full_remerge() const;

  // Per-site lag: items observed at the site but not yet reflected in the
  // snapshot the referee holds. Grows with drop probability.
  std::vector<std::uint64_t> staleness() const;

  // Live collection status: which sites have a snapshot at the referee,
  // their epochs, quarantine/duplicate/stale counters.
  const CollectReport& status() const noexcept { return state_.report(); }

  ChannelStats channel_stats() const { return transport_->stats(); }
  std::uint64_t snapshots_received() const noexcept { return snapshots_; }

  // Delta-protocol telemetry, aggregated over sites (zero in snapshot mode).
  std::uint64_t deltas_sent() const noexcept;
  std::uint64_t fulls_sent() const noexcept;
  std::uint64_t delta_resyncs() const noexcept;
  std::uint64_t suppressed_updates() const noexcept;

 private:
  void push(std::size_t site);
  void push_delta(std::size_t site, const DeltaSiteSession::Outgoing& out);
  void settle_delta(std::size_t site);
  void drain_into_referee();
  bool accept(const Frame& frame);
  const CollectReport& flush_delta();

  EstimatorParams params_;
  std::uint64_t report_interval_;
  RetryPolicy policy_;
  ContinuousMonitorOptions options_;
  std::vector<F0Estimator> site_sketches_;
  std::vector<DeltaSiteSession> sessions_;  // delta mode only
  std::vector<std::uint64_t> since_report_;
  std::vector<std::uint64_t> observed_;   // items seen per site
  std::vector<std::uint32_t> epoch_;      // last pushed epoch per site
  // (epoch, items-observed-at-push) per site, pruned once acked: lets
  // staleness() attribute an accepted epoch to the prefix it covered.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> pending_items_;
  std::vector<std::uint64_t> acked_items_;  // items covered by referee snapshot
  SiteSketchStore<F0Estimator> store_;      // the referee's per-site snapshots
  std::unique_ptr<Transport> transport_;
  CollectState state_;
  std::uint64_t snapshots_ = 0;
};

// The delta protocol extended to sliding-window union estimates. Each site
// runs a WindowedF0Estimator and ships its ops as kWindowedDelta op-replay
// frames every `ops_per_delta` observations (expiry is driven by the op
// timestamps, so replaying the ops replays the expiries); the referee
// replays them into bit-identical per-site mirrors and answers
// estimate(window_start) with windowed_union_estimate over the mirrors —
// non-destructive, so any window start stays queryable. Chain breaks fall
// back to a full kWindowedF0 resync exactly as in the prefix protocol.
class ContinuousWindowedMonitor {
 public:
  ContinuousWindowedMonitor(std::size_t sites, std::uint64_t ops_per_delta,
                            const EstimatorParams& params,
                            std::unique_ptr<Transport> transport = nullptr,
                            const RetryPolicy& policy = RetryPolicy{});

  // Site observes one (label, timestamp); timestamps are per-site
  // non-decreasing. May trigger a delta push.
  void observe(std::size_t site, std::uint64_t label, std::uint64_t timestamp);

  // Pushes every site's outstanding state (full frames) with ack/retry.
  const CollectReport& flush();

  // Sliding-window union estimate from the referee's mirrors.
  double estimate(std::uint64_t window_start) const;
  // Reference: the same union computed from the live site estimators —
  // what a zero-lag referee would answer. Equal to estimate() after a
  // converged flush (the mirrors are bit-identical).
  double site_estimate(std::uint64_t window_start) const;

  const CollectReport& status() const noexcept { return state_.report(); }
  ChannelStats channel_stats() const { return transport_->stats(); }
  std::uint64_t deltas_sent() const noexcept { return deltas_sent_; }
  std::uint64_t fulls_sent() const noexcept { return fulls_sent_; }

 private:
  void push(std::size_t site);
  void send_full(std::size_t site, bool fresh);
  void drain_into_referee();
  bool accept(const Frame& frame);

  EstimatorParams params_;
  std::uint64_t ops_per_delta_;
  RetryPolicy policy_;
  std::vector<WindowedF0Estimator> site_sketches_;
  // Ops accumulated since the mirror's acked base (cleared on every send:
  // a delivered delta advances the base past them; a lost one forces a
  // full-frame resync that carries the whole state anyway).
  std::vector<std::vector<WindowedF0Estimator::Op>> op_log_;
  std::vector<std::uint64_t> acked_seq_;
  std::vector<std::uint64_t> acked_ts_;
  std::vector<bool> need_full_;
  std::vector<bool> based_;  // mirror established at least once
  std::vector<std::uint32_t> epoch_;
  std::vector<std::optional<WindowedF0Estimator>> mirrors_;
  std::unique_ptr<Transport> transport_;
  CollectState state_;
  std::uint64_t deltas_sent_ = 0;
  std::uint64_t fulls_sent_ = 0;
};

}  // namespace ustream
