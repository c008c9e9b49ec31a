#include "distributed/continuous.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"

namespace ustream {

// ---------------------------------------------------------------------------
// DeltaSiteSession

DeltaSiteSession::DeltaSiteSession(const EstimatorParams& params, double growth)
    : growth_(growth), sketch_(params) {
  USTREAM_REQUIRE(growth > 0.0, "growth threshold must be positive");
}

std::vector<std::pair<int, std::size_t>> DeltaSiteSession::signature() const {
  std::vector<std::pair<int, std::size_t>> sig;
  sig.reserve(sketch_.num_copies());
  for (std::size_t c = 0; c < sketch_.num_copies(); ++c) {
    const auto& copy = sketch_.copy(c);
    sig.emplace_back(copy.level(), copy.size());
  }
  return sig;
}

bool DeltaSiteSession::update_due() const {
  if (sent_sig_.empty()) {
    // Never transmitted: due as soon as any copy holds a sample.
    for (std::size_t c = 0; c < sketch_.num_copies(); ++c) {
      if (sketch_.copy(c).size() > 0) return true;
    }
    return false;
  }
  for (std::size_t c = 0; c < sketch_.num_copies(); ++c) {
    const auto& copy = sketch_.copy(c);
    const auto& [sent_level, sent_size] = sent_sig_[c];
    if (copy.level() > sent_level) return true;  // level-raise notification
    const double limit = static_cast<double>(sent_size) * (1.0 + growth_);
    if (sent_size == 0 ? copy.size() > 0
                       : static_cast<double>(copy.size()) > limit) {
      return true;  // (1+growth)-factor growth of the sampled set
    }
  }
  return false;
}

bool DeltaSiteSession::add(std::uint64_t label) {
  sketch_.add(label);
  ++items_;
  if (update_due()) return true;
  ++suppressed_;
  USTREAM_COUNTER_ADD("ustream_continuous_suppressed_total", 1);
  return false;
}

DeltaSiteSession::Outgoing DeltaSiteSession::next_update() {
  Outgoing out;
  out.epoch = ++epoch_;
  if (needs_full()) {
    out.payload = sketch_.serialize();
    out.is_delta = false;
    pending_full_ = true;
    ++fulls_sent_;
    USTREAM_COUNTER_ADD("ustream_continuous_full_frames_total", 1);
  } else {
    out.payload = sketch_.serialize_delta(*base_);
    out.is_delta = true;
    pending_full_ = false;
    ++deltas_sent_;
    USTREAM_COUNTER_ADD("ustream_continuous_deltas_total", 1);
  }
  pending_.emplace(sketch_);
  pending_items_count_ = items_;
  sent_sig_ = signature();
  return out;
}

DeltaSiteSession::Outgoing DeltaSiteSession::next_full() {
  need_full_ = true;
  return next_update();
}

DeltaSiteSession::Outgoing DeltaSiteSession::resend() {
  USTREAM_REQUIRE(pending_.has_value() && pending_full_,
                  "resend() only retransmits an in-flight full frame");
  Outgoing out;
  out.epoch = epoch_;
  out.payload = pending_->serialize();
  out.is_delta = false;
  return out;
}

void DeltaSiteSession::delivered() {
  if (!pending_) return;
  base_ = std::move(*pending_);
  pending_.reset();
  base_items_ = pending_items_count_;
  need_full_ = false;
}

void DeltaSiteSession::lost() {
  pending_.reset();
  need_full_ = true;
  ++resyncs_;
  USTREAM_COUNTER_ADD("ustream_continuous_resyncs_total", 1);
}

// ---------------------------------------------------------------------------
// ContinuousUnionMonitor

ContinuousUnionMonitor::ContinuousUnionMonitor(std::size_t sites, std::uint64_t report_interval,
                                               const EstimatorParams& params)
    : ContinuousUnionMonitor(sites, report_interval, params, nullptr) {}

ContinuousUnionMonitor::ContinuousUnionMonitor(std::size_t sites, std::uint64_t report_interval,
                                               const EstimatorParams& params,
                                               const ContinuousMonitorOptions& options)
    : ContinuousUnionMonitor(sites, report_interval, params, nullptr, RetryPolicy{}, options) {}

ContinuousUnionMonitor::ContinuousUnionMonitor(std::size_t sites, std::uint64_t report_interval,
                                               const EstimatorParams& params,
                                               std::unique_ptr<Transport> transport,
                                               const RetryPolicy& policy,
                                               const ContinuousMonitorOptions& options)
    : params_(params),
      report_interval_(report_interval),
      policy_(policy),
      options_(options),
      since_report_(sites, 0),
      observed_(sites, 0),
      epoch_(sites, 0),
      pending_items_(sites),
      acked_items_(sites, 0),
      store_(sites),
      transport_(transport ? std::move(transport) : std::make_unique<Channel>(sites)),
      state_(sites, PayloadKind::kF0Estimator, DedupMode::kLatestWins) {
  USTREAM_REQUIRE(sites >= 1, "need at least one site");
  USTREAM_REQUIRE(report_interval >= 1, "report interval must be >= 1");
  USTREAM_REQUIRE(transport_->num_sites() == sites,
                  "transport site count does not match the monitor");
  if (options_.delta_protocol) {
    state_.enable_deltas(PayloadKind::kF0Delta);
    sessions_.reserve(sites);
    for (std::size_t i = 0; i < sites; ++i) sessions_.emplace_back(params, options_.growth);
  } else {
    site_sketches_.reserve(sites);
    for (std::size_t i = 0; i < sites; ++i) site_sketches_.emplace_back(params);
  }
}

void ContinuousUnionMonitor::observe(std::size_t site, std::uint64_t label) {
  if (options_.delta_protocol) {
    const bool due = sessions_.at(site).add(label);
    ++observed_[site];
    if (due) push_delta(site, sessions_[site].next_update());
    return;
  }
  site_sketches_.at(site).add(label);
  ++observed_[site];
  if (++since_report_[site] >= report_interval_) push(site);
}

void ContinuousUnionMonitor::push(std::size_t site) {
  since_report_[site] = 0;
  const std::uint32_t epoch = ++epoch_[site];
  pending_items_[site].emplace_back(epoch, observed_[site]);
  state_.record_fresh_send(site);
  transport_->send(site,
                   frame_encode({PayloadKind::kF0Estimator, static_cast<std::uint32_t>(site),
                                 epoch},
                                site_sketches_[site].serialize()));
  drain_into_referee();
}

void ContinuousUnionMonitor::push_delta(std::size_t site, const DeltaSiteSession::Outgoing& out) {
  const PayloadKind kind = out.is_delta ? PayloadKind::kF0Delta : PayloadKind::kF0Estimator;
  pending_items_[site].emplace_back(out.epoch, observed_[site]);
  state_.record_fresh_send(site);
  transport_->send(site,
                   frame_encode({kind, static_cast<std::uint32_t>(site), out.epoch}, out.payload));
  drain_into_referee();
  settle_delta(site);
}

// In-process ack for the delta protocol: after the drain, the chain either
// advanced to the session's epoch (delivered) or the frame was lost,
// quarantined, or rejected (resync owed). A lossy transport may also deliver
// it LATE — after a resync already re-based the chain — in which case the
// late delta is stale/duplicate-dropped by the dedup state, which is exactly
// the never-overcount contract.
void ContinuousUnionMonitor::settle_delta(std::size_t site) {
  const SiteCollectStatus& status = state_.report().per_site[site];
  if (status.reported && status.accepted_epoch == sessions_[site].epoch()) {
    sessions_[site].delivered();
  } else {
    sessions_[site].lost();
  }
}

void ContinuousUnionMonitor::drain_into_referee() {
  for (const auto& message : transport_->drain()) {
    state_.admit(message, [this](const Frame& frame) { return accept(frame); });
  }
}

// The ledger's sink. The store applies a delta transactionally and refuses
// a payload that will not parse or apply (a CRC collision on a corrupted
// frame), keeping the previous snapshot; the ledger then records Q for a
// full frame or R for a delta and leaves the site's entry where it was, so
// flush() keeps retrying it.
bool ContinuousUnionMonitor::accept(const Frame& frame) {
  const std::size_t site = frame.header.site;
  const std::uint32_t epoch = frame.header.epoch;
  if (!store_.accept(site, 0, frame.header.kind, frame.payload)) return false;
  ++snapshots_;
  // Attribute the ack to the prefix that snapshot covered.
  auto& pending = pending_items_[site];
  for (const auto& [e, items] : pending) {
    if (e == epoch) {
      acked_items_[site] = items;
      break;
    }
  }
  std::erase_if(pending, [epoch](const auto& entry) { return entry.first <= epoch; });
  return true;
}

const CollectReport& ContinuousUnionMonitor::flush() {
  if (options_.delta_protocol) return flush_delta();
  for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
    if (since_report_[i] > 0 || !store_.has(i)) push(i);
  }
  // Ack/retry until every site's LATEST epoch is at the referee or the
  // per-site attempt budget is spent. Retransmissions reuse the site's
  // current epoch, so the latest-wins dedup merges each snapshot once.
  const auto converged = [this](std::size_t i) {
    return state_.report().per_site[i].reported &&
           state_.report().per_site[i].accepted_epoch == epoch_[i];
  };
  for (std::uint32_t round = 1; round < policy_.max_attempts_per_site; ++round) {
    bool missing = false;
    for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
      if (!converged(i)) missing = true;
    }
    if (!missing) break;
    apply_backoff(policy_, round);
    for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
      if (converged(i)) continue;
      state_.record_send(i);
      transport_->send(i, frame_encode({PayloadKind::kF0Estimator,
                                        static_cast<std::uint32_t>(i), epoch_[i]},
                                       site_sketches_[i].serialize()));
    }
    drain_into_referee();
  }
  state_.finalize(policy_.max_attempts_per_site);
  return state_.report();
}

// Delta-mode flush: every site whose acked base lags its live sketch sends a
// FULL frame at a fresh epoch (the unconditional resync — cheap relative to
// the stream, and it re-bases the chain no matter what state the lossy
// transport left it in), then retries that same frame per policy until acked.
const CollectReport& ContinuousUnionMonitor::flush_delta() {
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (sessions_[i].dirty() || !store_.has(i)) {
      push_delta(i, sessions_[i].next_full());
    }
  }
  const auto converged = [this](std::size_t i) {
    return state_.report().per_site[i].reported &&
           state_.report().per_site[i].accepted_epoch == sessions_[i].epoch();
  };
  for (std::uint32_t round = 1; round < policy_.max_attempts_per_site; ++round) {
    bool missing = false;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (!converged(i)) missing = true;
    }
    if (!missing) break;
    apply_backoff(policy_, round);
    // Each retry re-bases with a fresh-epoch full frame (the state it
    // carries is the same, so a late-delivered older retry is stale-dropped
    // by latest-wins, never wrong).
    std::vector<std::size_t> sent;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (converged(i)) continue;
      const auto out = sessions_[i].next_full();
      pending_items_[i].emplace_back(out.epoch, observed_[i]);
      state_.record_send(i);
      transport_->send(i,
                       frame_encode({PayloadKind::kF0Estimator, static_cast<std::uint32_t>(i),
                                     out.epoch},
                                    out.payload));
      sent.push_back(i);
    }
    drain_into_referee();
    for (std::size_t i : sent) settle_delta(i);
  }
  state_.finalize(policy_.max_attempts_per_site);
  return state_.report();
}

double ContinuousUnionMonitor::estimate() const {
  return store_.read([](const auto& view) {
    const F0Estimator* all = view.all();
    return all != nullptr ? all->estimate() : 0.0;
  });
}

double ContinuousUnionMonitor::estimate_full_remerge() const {
  return store_.read([](const auto& view) {
    std::optional<F0Estimator> merged;
    for (std::size_t i = 0; i < view.sites(); ++i) {
      const F0Estimator* snap = view.site(i);
      if (snap == nullptr) continue;
      if (!merged) {
        merged = *snap;
      } else {
        merged->merge(*snap);
      }
    }
    return merged ? merged->estimate() : 0.0;
  });
}

std::vector<std::uint64_t> ContinuousUnionMonitor::staleness() const {
  std::vector<std::uint64_t> lag(observed_.size(), 0);
  for (std::size_t i = 0; i < observed_.size(); ++i) {
    lag[i] = observed_[i] - acked_items_[i];
  }
  return lag;
}

std::uint64_t ContinuousUnionMonitor::deltas_sent() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.deltas_sent();
  return n;
}

std::uint64_t ContinuousUnionMonitor::fulls_sent() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.fulls_sent();
  return n;
}

std::uint64_t ContinuousUnionMonitor::delta_resyncs() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.resyncs();
  return n;
}

std::uint64_t ContinuousUnionMonitor::suppressed_updates() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s.suppressed();
  return n;
}

// ---------------------------------------------------------------------------
// ContinuousWindowedMonitor

ContinuousWindowedMonitor::ContinuousWindowedMonitor(std::size_t sites,
                                                     std::uint64_t ops_per_delta,
                                                     const EstimatorParams& params,
                                                     std::unique_ptr<Transport> transport,
                                                     const RetryPolicy& policy)
    : params_(params),
      ops_per_delta_(ops_per_delta),
      policy_(policy),
      op_log_(sites),
      acked_seq_(sites, 0),
      acked_ts_(sites, 0),
      need_full_(sites, false),
      based_(sites, false),
      epoch_(sites, 0),
      mirrors_(sites),
      transport_(transport ? std::move(transport) : std::make_unique<Channel>(sites)),
      state_(sites, PayloadKind::kWindowedF0, DedupMode::kLatestWins) {
  USTREAM_REQUIRE(sites >= 1, "need at least one site");
  USTREAM_REQUIRE(ops_per_delta >= 1, "ops_per_delta must be >= 1");
  USTREAM_REQUIRE(transport_->num_sites() == sites,
                  "transport site count does not match the monitor");
  state_.enable_deltas(PayloadKind::kWindowedDelta);
  site_sketches_.reserve(sites);
  for (std::size_t i = 0; i < sites; ++i) site_sketches_.emplace_back(params);
}

void ContinuousWindowedMonitor::observe(std::size_t site, std::uint64_t label,
                                        std::uint64_t timestamp) {
  site_sketches_.at(site).add(label, timestamp);
  op_log_[site].emplace_back(label, timestamp);
  if (op_log_[site].size() >= ops_per_delta_) push(site);
}

void ContinuousWindowedMonitor::push(std::size_t site) {
  const bool full = !based_[site] || need_full_[site];
  const std::uint32_t epoch = ++epoch_[site];
  std::vector<std::uint8_t> payload;
  PayloadKind kind;
  if (full) {
    payload = site_sketches_[site].serialize();
    kind = PayloadKind::kWindowedF0;
    ++fulls_sent_;
    USTREAM_COUNTER_ADD("ustream_continuous_full_frames_total", 1);
  } else {
    payload = WindowedF0Estimator::encode_delta(acked_seq_[site], acked_ts_[site],
                                                std::span<const WindowedF0Estimator::Op>(
                                                    op_log_[site]));
    kind = PayloadKind::kWindowedDelta;
    ++deltas_sent_;
    USTREAM_COUNTER_ADD("ustream_continuous_deltas_total", 1);
  }
  // Either way the ops are now represented in flight: a delivered frame
  // advances the base past them; a lost one forces a full resync that
  // carries the whole state anyway.
  op_log_[site].clear();
  state_.record_fresh_send(site);
  transport_->send(site, frame_encode({kind, static_cast<std::uint32_t>(site), epoch},
                                      std::move(payload)));
  drain_into_referee();
  const SiteCollectStatus& status = state_.report().per_site[site];
  if (status.reported && status.accepted_epoch == epoch) {
    acked_seq_[site] = site_sketches_[site].sequence();
    acked_ts_[site] = site_sketches_[site].last_timestamp();
    based_[site] = true;
    need_full_[site] = false;
  } else {
    need_full_[site] = true;
    USTREAM_COUNTER_ADD("ustream_continuous_resyncs_total", 1);
  }
}

void ContinuousWindowedMonitor::send_full(std::size_t site, bool fresh) {
  const std::uint32_t epoch = fresh ? ++epoch_[site] : epoch_[site];
  if (fresh) {
    ++fulls_sent_;
    USTREAM_COUNTER_ADD("ustream_continuous_full_frames_total", 1);
    state_.record_fresh_send(site);
  } else {
    state_.record_send(site);
  }
  op_log_[site].clear();
  transport_->send(site, frame_encode({PayloadKind::kWindowedF0,
                                       static_cast<std::uint32_t>(site), epoch},
                                      site_sketches_[site].serialize()));
}

const CollectReport& ContinuousWindowedMonitor::flush() {
  for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
    const bool dirty = !based_[i] || acked_seq_[i] != site_sketches_[i].sequence();
    if (dirty || !mirrors_[i].has_value()) send_full(i, /*fresh=*/true);
  }
  drain_into_referee();
  const auto converged = [this](std::size_t i) {
    return state_.report().per_site[i].reported &&
           state_.report().per_site[i].accepted_epoch == epoch_[i];
  };
  const auto settle = [this, &converged] {
    for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
      if (!converged(i)) continue;
      acked_seq_[i] = site_sketches_[i].sequence();
      acked_ts_[i] = site_sketches_[i].last_timestamp();
      based_[i] = true;
      need_full_[i] = false;
    }
  };
  settle();
  for (std::uint32_t round = 1; round < policy_.max_attempts_per_site; ++round) {
    bool missing = false;
    for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
      if (!converged(i)) missing = true;
    }
    if (!missing) break;
    apply_backoff(policy_, round);
    for (std::size_t i = 0; i < site_sketches_.size(); ++i) {
      if (!converged(i)) send_full(i, /*fresh=*/false);
    }
    drain_into_referee();
    settle();
  }
  state_.finalize(policy_.max_attempts_per_site);
  return state_.report();
}

void ContinuousWindowedMonitor::drain_into_referee() {
  for (const auto& message : transport_->drain()) {
    state_.admit(message, [this](const Frame& frame) { return accept(frame); });
  }
}

bool ContinuousWindowedMonitor::accept(const Frame& frame) {
  std::optional<WindowedF0Estimator>& mirror = mirrors_[frame.header.site];
  const std::span<const std::uint8_t> payload(frame.payload);
  try {
    if (frame.header.kind == PayloadKind::kWindowedDelta) {
      if (!mirror.has_value()) return false;
      // apply_delta validates everything (including the base match) before
      // mutating, so a refused delta leaves the mirror untouched.
      mirror->apply_delta(payload);
    } else {
      mirror = WindowedF0Estimator::deserialize(payload);
    }
    return true;
  } catch (const SerializationError&) {
    return false;
  }
}

double ContinuousWindowedMonitor::estimate(std::uint64_t window_start) const {
  std::vector<const WindowedF0Estimator*> parts;
  parts.reserve(mirrors_.size());
  for (const auto& m : mirrors_) {
    if (m.has_value()) parts.push_back(&*m);
  }
  return windowed_union_estimate(parts, window_start);
}

double ContinuousWindowedMonitor::site_estimate(std::uint64_t window_start) const {
  std::vector<const WindowedF0Estimator*> parts;
  parts.reserve(site_sketches_.size());
  for (const auto& s : site_sketches_) parts.push_back(&s);
  return windowed_union_estimate(parts, window_start);
}

}  // namespace ustream
