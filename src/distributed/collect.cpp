#include "distributed/collect.h"

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "obs/trace.h"

namespace ustream {

std::chrono::microseconds backoff_delay(const RetryPolicy& policy,
                                        std::uint32_t round) noexcept {
  if (round == 0) return std::chrono::microseconds{0};
  const std::uint32_t shift = std::min<std::uint32_t>(round - 1, 20);
  const auto scaled = policy.base_backoff * (1u << shift);
  return std::min(scaled, policy.max_backoff);
}

void apply_backoff(const RetryPolicy& policy, std::uint32_t round) {
  const auto delay = backoff_delay(policy, round);
  if (policy.sleep_on_backoff && delay.count() > 0) {
    USTREAM_TRACE_SPAN("ustream_collect_backoff_ns");
    std::this_thread::sleep_for(delay);
  }
}

std::vector<std::size_t> CollectReport::missing_sites() const {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < per_site.size(); ++i) {
    if (!per_site[i].reported) missing.push_back(i);
  }
  return missing;
}

std::uint64_t CollectReport::total_attempts() const noexcept {
  std::uint64_t attempts = 0;
  for (const auto& site : per_site) attempts += site.attempts;
  return attempts;
}

std::string CollectReport::summary() const {
  std::string s = "collected " + std::to_string(sites_reported) + "/" +
                  std::to_string(sites_total) + " sites" +
                  (degraded() ? " (DEGRADED: union estimate is a lower bound)" : "") + ", " +
                  std::to_string(retries) + " retries, " +
                  std::to_string(frames_quarantined) + " quarantined, " +
                  std::to_string(duplicates_dropped) + " duplicates, " +
                  std::to_string(stale_dropped) + " stale" +
                  (deltas_applied > 0 || resyncs > 0
                       ? ", " + std::to_string(deltas_applied) + " deltas, " +
                             std::to_string(resyncs) + " resyncs"
                       : "") +
                  "\nattempts: " + std::to_string(total_attempts()) + " sends for " +
                  std::to_string(sites_reported) + " accepted frames";
  const auto missing = missing_sites();
  if (!missing.empty()) {
    s += "\nmissing sites:";
    for (auto site : missing) {
      s += " " + std::to_string(site);
      if (per_site[site].exhausted) {
        s += "(exhausted after " + std::to_string(per_site[site].attempts) + " attempts)";
      }
    }
  }
  return s;
}

CollectState::CollectState(std::size_t sites, PayloadKind expected_kind, DedupMode mode)
    : expected_kind_(expected_kind), mode_(mode) {
  report_.sites_total = sites;
  report_.per_site.resize(sites);
}

void CollectState::enable_deltas(PayloadKind delta_kind) {
  USTREAM_REQUIRE(mode_ == DedupMode::kLatestWins,
                  "the delta protocol requires latest-wins dedup");
  USTREAM_REQUIRE(delta_kind != expected_kind_,
                  "delta kind must differ from the full-frame kind");
  delta_kind_ = delta_kind;
}

std::optional<Frame> CollectState::decode(std::span<const std::uint8_t> frame_bytes) {
  try {
    return frame_decode(frame_bytes);
  } catch (const SerializationError&) {
    return std::nullopt;
  }
}

Verdict CollectState::judge(const FrameHeader& header) const {
  const bool delta = is_delta(header.kind);
  // Structurally sound frame, but from the wrong protocol or an unknown
  // sender: quarantine — the CRC protects integrity, not intent.
  if ((header.kind != expected_kind_ && !delta) || header.site >= report_.per_site.size()) {
    return Verdict::kQuarantined;
  }
  const SiteCollectStatus& status = report_.per_site[header.site];
  if (delta) {
    // A delta only extends an intact chain. Retransmits of an
    // already-applied epoch are duplicates/stale (the ack was lost, the
    // state wasn't); everything else is a chain break that obliges the
    // site to resync with a full frame — including a delta that claims
    // another group than its chain: the site re-tagged itself, so its
    // mirror is stale.
    if (!status.reported) return Verdict::kResync;
    if (header.epoch == status.accepted_epoch) return Verdict::kDuplicate;
    if (header.epoch < status.accepted_epoch) return Verdict::kStale;
    if (header.epoch != status.accepted_epoch + 1 || header.group != status.group) {
      return Verdict::kResync;
    }
    return Verdict::kAccepted;
  }
  if (status.reported) {
    if (mode_ == DedupMode::kExactlyOnce || header.epoch == status.accepted_epoch) {
      return Verdict::kDuplicate;
    }
    if (header.epoch < status.accepted_epoch) return Verdict::kStale;
  }
  return Verdict::kAccepted;
}

void CollectState::record(const FrameHeader& header, Verdict verdict) {
  switch (verdict) {
    case Verdict::kAccepted: {
      SiteCollectStatus& status = report_.per_site[header.site];
      if (!status.reported) {
        status.reported = true;
        report_.sites_reported += 1;
      }
      status.accepted_epoch = header.epoch;
      status.group = header.group;
      if (is_delta(header.kind)) report_.deltas_applied += 1;
      break;
    }
    case Verdict::kDuplicate: report_.duplicates_dropped += 1; break;
    case Verdict::kStale: report_.stale_dropped += 1; break;
    case Verdict::kQuarantined: report_.frames_quarantined += 1; break;
    case Verdict::kResync: report_.resyncs += 1; break;
  }
}

Verdict CollectState::quarantine() noexcept {
  report_.frames_quarantined += 1;
  return Verdict::kQuarantined;
}

std::optional<CollectState::Accepted> CollectState::ingest(
    std::span<const std::uint8_t> frame_bytes) {
  std::optional<Accepted> out;
  admit(frame_bytes, [&out](Frame& frame) {
    out = Accepted{frame.header.site, frame.header.epoch, frame.header.kind,
                   frame.header.group, std::move(frame.payload)};
    return true;
  });
  return out;
}

void CollectState::record_send(std::size_t site) {
  SiteCollectStatus& status = report_.per_site[site];
  if (status.attempts > 0) report_.retries += 1;
  status.attempts += 1;
}

void CollectState::record_fresh_send(std::size_t site) {
  report_.per_site[site].attempts += 1;
}

void CollectState::restore_accepted(std::size_t site, std::uint32_t epoch,
                                    std::uint16_t group) {
  USTREAM_REQUIRE(site < report_.per_site.size(),
                  "restore_accepted: site out of range");
  SiteCollectStatus& status = report_.per_site[site];
  if (!status.reported) {
    status.reported = true;
    report_.sites_reported += 1;
  }
  status.accepted_epoch = epoch;
  status.group = group;
  if (status.attempts == 0) status.attempts = 1;
}

void CollectState::finalize(std::uint32_t max_attempts) {
  for (auto& status : report_.per_site) {
    status.exhausted = !status.reported && status.attempts >= max_attempts;
  }
}

}  // namespace ustream
