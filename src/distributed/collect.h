// The referee's fault-tolerance toolkit: retry policy, frame validation /
// dedup state, and the CollectReport that makes degraded mode quantifiable.
//
// Mergeable sketches give graceful degradation for free — a missing site's
// sketch lowers the union estimate by a bounded, one-sided amount — but
// only if the referee can SAY which sites are missing. CollectReport is
// that statement: callers still get an estimate from a partial union, plus
// the evidence needed to reason about its bias.
//
// Dedup contract: a frame is identified by (site, epoch). One-shot
// collection (DistributedRun) uses kExactlyOnce — the first valid frame
// per site wins, every later one (retransmit or network duplicate) is
// dropped, so the referee merges each site exactly once. Continuous
// monitoring uses kLatestWins — newer epochs replace older snapshots,
// stale reordered deliveries are discarded, so the per-site prefix only
// moves forward and the union estimate never overcounts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/frame.h"
#include "core/merge_engine.h"

namespace ustream {

// Ack/retry shape for collection rounds. Backoff between rounds is capped
// exponential: base * 2^round, clamped to max. The defaults keep an
// in-process soak run fast while still exercising the schedule; a real
// deployment would scale these to network RTTs.
struct RetryPolicy {
  std::uint32_t max_attempts_per_site = 6;
  std::chrono::microseconds base_backoff{50};
  std::chrono::microseconds max_backoff{2000};
  bool sleep_on_backoff = true;  // tests may disable the actual sleep
};

// Backoff before retry round `round` (round counts from 1).
std::chrono::microseconds backoff_delay(const RetryPolicy& policy, std::uint32_t round) noexcept;
void apply_backoff(const RetryPolicy& policy, std::uint32_t round);

struct SiteCollectStatus {
  std::uint32_t attempts = 0;       // frames sent on this site's behalf
  bool reported = false;            // a valid frame was accepted
  bool exhausted = false;           // budget spent without acceptance
  std::uint32_t accepted_epoch = 0; // epoch of the accepted/latest snapshot
  std::uint16_t group = 0;          // group id of the accepted snapshot (v2 frames)
};

struct CollectReport {
  std::size_t sites_total = 0;
  std::size_t sites_reported = 0;
  std::uint64_t retries = 0;             // sends beyond each site's first
  std::uint64_t frames_quarantined = 0;  // failed CRC/decode/validation
  std::uint64_t duplicates_dropped = 0;  // same (site, epoch) seen again
  std::uint64_t stale_dropped = 0;       // older epoch than already accepted
  std::uint64_t deltas_applied = 0;      // delta frames accepted onto a chain
  std::uint64_t resyncs = 0;             // delta chain breaks (full frame owed)
  std::vector<SiteCollectStatus> per_site;

  bool complete() const noexcept { return sites_reported == sites_total; }
  bool degraded() const noexcept { return !complete(); }
  std::vector<std::size_t> missing_sites() const;
  // Sum of per-site attempts: every frame sent on some site's behalf,
  // retransmissions included — the "stats count every attempt" contract
  // (DESIGN.md §6.2). Compare against sites_reported (frames that changed
  // referee state) to see what the fault recovery cost.
  std::uint64_t total_attempts() const noexcept;
  // One line per fact, e.g. for the CLI:
  //   collected 7/8 sites (DEGRADED), 5 retries, 3 quarantined, 2 duplicates
  //   attempts: 12 sends for 7 accepted frames
  //   missing sites: 4 (exhausted after 6 attempts)
  std::string summary() const;
};

enum class DedupMode { kExactlyOnce, kLatestWins };

// Validates drained frames and maintains the per-site dedup state plus the
// running CollectReport. The payload of an accepted frame is handed back to
// the caller; everything else lands in a report counter.
class CollectState {
 public:
  CollectState(std::size_t sites, PayloadKind expected_kind, DedupMode mode);

  // Opts into the continuous-mode delta protocol: frames of `delta_kind`
  // are accepted IFF they extend the site's chain exactly — the site has
  // reported and the delta's epoch is accepted_epoch + 1. Anything else
  // (unreported site, epoch gap) counts a resync: the frame is dropped and
  // the site owes a full frame of the expected kind, which re-bases the
  // chain through the ordinary latest-wins path. Requires kLatestWins — a
  // chain is meaningless under exactly-once.
  void enable_deltas(PayloadKind delta_kind);

  struct Accepted {
    std::size_t site = 0;
    std::uint32_t epoch = 0;
    PayloadKind kind = PayloadKind::kOpaque;  // expected kind, or the delta kind
    std::uint16_t group = 0;                  // frame's group tag (0 = ungrouped)
    std::vector<std::uint8_t> payload;
  };

  // Frame-layer verdict on one drained message. Returns the payload iff
  // this (site, epoch) is accepted under the dedup mode; otherwise updates
  // quarantine/duplicate/stale counters and returns nullopt. Never throws
  // on bad bytes — corruption is data here, not an error.
  std::optional<Accepted> ingest(std::span<const std::uint8_t> frame_bytes);

  // Attempt accounting. record_send counts a retransmission (retry) when
  // the site was already sent on behalf of; record_fresh_send never does —
  // continuous monitors use it for periodic pushes of NEW epochs, which are
  // fresh messages, not retries.
  void record_send(std::size_t site);
  void record_fresh_send(std::size_t site);
  // Un-accepts a frame whose CRC passed but whose payload failed to
  // deserialize (a 2^-32 CRC collision): quarantines it and reopens the
  // site so the retry loop can try again.
  void reject_accepted(std::size_t site);
  // Un-accepts the frame ingest() just accepted for `site` because a
  // GLOBAL arbiter (another referee shard) already holds a conflicting
  // acceptance, restoring the site's prior local state and counting the
  // frame as a duplicate (or stale, when the global winner's epoch is
  // newer). This is how a sharded referee keeps the folded ledger
  // identical to a sequential referee over the same frame stream: the
  // frame a single loop would have dropped at its own dedup table is
  // dropped here at the shared one, under the same counter.
  void demote_accepted(std::size_t site, std::uint32_t previous_epoch,
                       bool previously_reported, bool count_stale,
                       std::uint16_t previous_group = 0);
  // Un-accepts a DELTA ingest() just accepted because the global arbiter's
  // chain head disagrees (another shard advanced the site, or the payload
  // failed to apply): rolls the epoch back and converts the acceptance
  // into a resync, so the site retransmits a full frame.
  void demote_delta(std::size_t site, std::uint32_t previous_epoch);
  // Ledger restore hook for crash recovery (durability/recovery.h): marks
  // `site` as reported at `epoch` with one attempt, exactly as if its
  // winning frame had been sent once and accepted. Replayed WAL frames go
  // through ingest() for validation; this hook then transplants the
  // resulting acceptance into the referee's live ledger without touching
  // the retry/duplicate counters — attempts spent before the crash are
  // history the restarted ledger reports as one clean send per site.
  void restore_accepted(std::size_t site, std::uint32_t epoch,
                        std::uint16_t group = 0);
  void finalize(std::uint32_t max_attempts);  // marks exhausted sites

  bool site_reported(std::size_t site) const { return report_.per_site[site].reported; }
  std::uint32_t site_attempts(std::size_t site) const { return report_.per_site[site].attempts; }
  bool all_reported() const noexcept { return report_.sites_reported == report_.sites_total; }

  CollectReport& report() noexcept { return report_; }
  const CollectReport& report() const noexcept { return report_; }

 private:
  PayloadKind expected_kind_;
  DedupMode mode_;
  std::optional<PayloadKind> delta_kind_;
  CollectReport report_;
};

// Folds per-shard referee ledgers into the single report a sequential
// referee over the same frame stream would produce. Per site: attempts
// sum, reported = any shard reported, accepted_epoch = max over reporting
// shards (cross-shard demotion guarantees at most one shard holds the
// winning epoch), group = the winning shard's group tag. Quarantine/
// duplicate/stale counters sum; retries are recomputed from the folded
// attempts (sum over sites of attempts - 1) so a site whose
// retransmissions landed on different shards still counts them — each
// shard alone saw one attempt, the union saw a retry.
CollectReport merge_reports(const std::vector<CollectReport>& parts);

// Per-group sketch for a grouped collection: the reduced union of one
// group's reporting sites, plus which sites contributed.
template <typename Sketch>
struct GroupSketch {
  std::uint16_t group = 0;
  std::vector<std::size_t> sites;  // reporting sites in site order
  Sketch sketch;
};

// The grouped counterpart of MergeEngine::reduce: buckets the accepted
// per-site sketches by the group tag recorded in `report` and reduces each
// bucket independently through the engine. Site order is preserved within
// each bucket and groups come out sorted by id, so the result is
// deterministic and byte-identical to running one single-group collection
// per group over the same frames — the property the sharded-referee tests
// pin down. Sites that never reported are skipped (per-group degraded
// mode); groups with no reporting site simply don't appear.
template <typename Sketch>
std::vector<GroupSketch<Sketch>> reduce_groups(
    const CollectReport& report, std::vector<std::optional<Sketch>>&& accepted,
    MergeEngine& engine = MergeEngine::shared()) {
  std::vector<GroupSketch<Sketch>> out;
  std::vector<std::uint16_t> order;  // group ids, first-seen; sorted below
  for (std::size_t site = 0; site < accepted.size(); ++site) {
    if (!accepted[site].has_value()) continue;
    const std::uint16_t g =
        site < report.per_site.size() ? report.per_site[site].group : 0;
    if (std::find(order.begin(), order.end(), g) == order.end()) order.push_back(g);
  }
  std::sort(order.begin(), order.end());
  for (std::uint16_t g : order) {
    std::vector<std::size_t> sites;
    std::vector<std::optional<Sketch>> members;
    for (std::size_t site = 0; site < accepted.size(); ++site) {
      if (!accepted[site].has_value()) continue;
      const std::uint16_t sg =
          site < report.per_site.size() ? report.per_site[site].group : 0;
      if (sg != g) continue;
      sites.push_back(site);
      members.push_back(std::move(accepted[site]));
      accepted[site].reset();
    }
    auto reduced = engine.reduce(std::move(members));
    if (!reduced.has_value()) continue;  // unreachable: bucket had members
    out.push_back(GroupSketch<Sketch>{g, std::move(sites), std::move(*reduced)});
  }
  return out;
}

}  // namespace ustream
