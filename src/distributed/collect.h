// The referee's fault-tolerance toolkit: retry policy, the acceptance
// ledger (CollectState: frame validation, dedup, one verdict per frame) and
// the CollectReport that makes degraded mode quantifiable.
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

// The ledger's decision on one frame. The values are the ack bytes the TCP
// referee echoes (net::PushAck), so a verdict crosses the wire unchanged.
enum class Verdict : std::uint8_t {
  kAccepted = 'A',     // the sink took the payload; the site's entry moved
  kDuplicate = 'D',    // same (site, epoch) already held (any epoch, exactly-once)
  kStale = 'S',        // older epoch than the one held
  kQuarantined = 'Q',  // failed CRC/decode/validation, or the sink refused a full frame
  kResync = 'R',       // a delta that does not extend the chain; a full frame is owed
};

// The acceptance ledger: per-site dedup state plus the running
// CollectReport. Every referee — DistributedRun, the continuous monitors,
// the TCP RefereeServer (one ledger for all its shards) and crash recovery
// — decides each frame's verdict here, once: admit() judges the frame,
// hands an accepted payload to the caller's sink, and records the outcome.
// A sink that refuses turns the verdict into Q (full frame) or R (delta)
// and leaves the site's entry as it was, so nothing is ever undone.
class CollectState {
 public:
  CollectState(std::size_t sites, PayloadKind expected_kind, DedupMode mode);

  // Opts into the continuous-mode delta protocol: frames of `delta_kind`
  // are accepted IFF they extend the site's chain exactly — the site has
  // reported and the delta's epoch is accepted_epoch + 1 under the chain's
  // group, on whichever referee shard it arrives. Anything else counts a
  // resync: the frame is dropped and the site owes a full frame of the
  // expected kind, which re-bases the chain through the ordinary
  // latest-wins path. Requires kLatestWins — a chain is meaningless under
  // exactly-once.
  void enable_deltas(PayloadKind delta_kind);

  // Frame-layer validation (magic, version, CRC); nullopt = corrupt bytes.
  // Kept apart from admit() so a referee can run it outside its lock.
  static std::optional<Frame> decode(std::span<const std::uint8_t> frame_bytes);

  // Judges a decoded frame against the ledger and records the verdict.
  // On an acceptance `sink(Frame&)` runs first — it may move the payload
  // out — and returns whether it took the frame. Never throws on bad
  // bytes — corruption is data here, not an error.
  template <typename Sink>
  Verdict admit(Frame& frame, Sink&& sink) {
    Verdict verdict = judge(frame.header);
    if (verdict == Verdict::kAccepted && !sink(frame)) {
      verdict = is_delta(frame.header.kind) ? Verdict::kResync : Verdict::kQuarantined;
    }
    record(frame.header, verdict);
    return verdict;
  }
  // Records bytes that did not decode (or never completed): always Q.
  Verdict quarantine() noexcept;
  // decode() + admit(), for callers with no lock to keep decode out of.
  template <typename Sink>
  Verdict admit(std::span<const std::uint8_t> frame_bytes, Sink&& sink) {
    std::optional<Frame> frame = decode(frame_bytes);
    return frame ? admit(*frame, sink) : quarantine();
  }

  struct Accepted {
    std::size_t site = 0;
    std::uint32_t epoch = 0;
    PayloadKind kind = PayloadKind::kOpaque;  // expected kind, or the delta kind
    std::uint16_t group = 0;                  // frame's group tag (0 = ungrouped)
    std::vector<std::uint8_t> payload;
  };
  // admit() with a sink that takes every payload: returns it iff accepted.
  std::optional<Accepted> ingest(std::span<const std::uint8_t> frame_bytes);

  // Attempt accounting. record_send counts a retransmission (retry) when
  // the site was already sent on behalf of; record_fresh_send never does —
  // continuous monitors use it for periodic pushes of NEW epochs, which are
  // fresh messages, not retries.
  void record_send(std::size_t site);
  void record_fresh_send(std::size_t site);
  // Ledger restore hook for crash recovery (durability/recovery.h): marks
  // `site` as reported at `epoch` with one attempt, exactly as if its
  // winning frame had been sent once and accepted.
  // Recovery judges the replayed WAL frames with admit(); this hook
  // transplants the result into the referee's live ledger without touching
  // the retry/duplicate counters — attempts spent before the crash are
  // history the restarted ledger reports as one clean send per site.
  void restore_accepted(std::size_t site, std::uint32_t epoch,
                        std::uint16_t group = 0);
  void finalize(std::uint32_t max_attempts);  // marks exhausted sites

  bool site_reported(std::size_t site) const { return report_.per_site[site].reported; }
  std::uint32_t site_attempts(std::size_t site) const { return report_.per_site[site].attempts; }
  bool all_reported() const noexcept { return report_.sites_reported == report_.sites_total; }

  const CollectReport& report() const noexcept { return report_; }

 private:
  bool is_delta(PayloadKind kind) const noexcept {
    return delta_kind_.has_value() && kind == *delta_kind_;
  }
  Verdict judge(const FrameHeader& header) const;
  void record(const FrameHeader& header, Verdict verdict);

  PayloadKind expected_kind_;
  DedupMode mode_;
  std::optional<PayloadKind> delta_kind_;
  CollectReport report_;
};

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
