#include "durability/recovery.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ustream::durability {

namespace {

obs::Counter& replayed_counter() {
  static obs::Counter& c = obs::default_registry().counter(
      "ustream_recovery_replayed_frames_total");
  return c;
}

// Replays one record through the ledger and classifies it in `result`. An
// accepted frame's bytes go to the site's winner slot. Q is a corrupt
// record (it sliced structurally but fails frame validation); D, S and R
// are superseded by a frame already replayed — possible when a snapshot
// overlaps segment tails, or when a later-replayed full frame re-based the
// chain a delta extended.
void replay_record(CollectState& state, std::optional<PayloadKind> delta_kind,
                   std::span<const std::uint8_t> frame_bytes,
                   RecoveryResult& result) {
  const Verdict verdict = state.admit(frame_bytes, [&](const Frame& frame) {
    auto& slot = result.sites[frame.header.site];
    if (delta_kind.has_value() && frame.header.kind == *delta_kind) {
      // The ledger only accepts a delta onto an intact chain, so the site's
      // full frame is already in the slot; the delta stacks on top of it.
      slot->deltas.emplace_back(frame_bytes.begin(), frame_bytes.end());
      slot->epoch = frame.header.epoch;
    } else {
      slot = RecoveredSite{frame.header.epoch, {frame_bytes.begin(), frame_bytes.end()}, {}};
    }
    return true;
  });
  switch (verdict) {
    case Verdict::kAccepted:
      result.frames_replayed += 1;
      replayed_counter().add(1);
      break;
    case Verdict::kQuarantined: result.frames_corrupt += 1; break;
    case Verdict::kDuplicate:
    case Verdict::kStale:
    case Verdict::kResync: result.frames_superseded += 1; break;
  }
}

}  // namespace

std::size_t RecoveryResult::sites_recovered() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sites) {
    if (s.has_value()) ++n;
  }
  return n;
}

std::string RecoveryResult::summary() const {
  std::string s = "recovered " + std::to_string(sites_recovered()) + "/" +
                  std::to_string(sites.size()) + " sites from " +
                  std::to_string(frames_replayed) + " replayed frames";
  if (used_snapshot) {
    s += " (snapshot " + std::to_string(snapshot_seq) + " + " +
         std::to_string(segments_replayed) + " tail segments, " +
         std::to_string(segments_skipped) + " covered)";
  } else {
    s += " (" + std::to_string(segments_replayed) + " segments, no snapshot)";
  }
  if (torn_tails > 0) {
    s += "; " + std::to_string(torn_tails) + " torn tail(s), " +
         std::to_string(stranded_bytes) + " bytes stranded";
  }
  if (frames_corrupt > 0) {
    s += "; " + std::to_string(frames_corrupt) + " corrupt frame(s) dropped";
  }
  return s;
}

RecoveryResult recover_referee_state(const RecoveryOptions& options) {
  RecoveryResult result;
  result.sites.resize(options.sites);

  // One replay ledger carries the dedup semantics for snapshot and tail
  // alike — the same admit() live frames go through.
  CollectState state(options.sites, options.expected_kind, options.dedup);
  if (options.delta_kind.has_value()) state.enable_deltas(*options.delta_kind);

  // Newest valid snapshot first; corrupt ones fall back to the previous.
  const auto snapshots = scan_snapshots(options.dir);
  for (const auto& snap : snapshots) {
    result.max_snapshot_seq = std::max(result.max_snapshot_seq, snap.seq);
  }
  std::uint32_t covered_below = 0;  // segments with watermark < this skip
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    if (!it->valid) continue;
    std::vector<std::vector<std::uint8_t>> frames;
    try {
      frames = load_snapshot(it->path);
    } catch (const SerializationError&) {
      continue;  // damaged after scan (races only in tests); fall back
    }
    for (const auto& frame : frames) {
      replay_record(state, options.delta_kind, frame, result);
    }
    result.used_snapshot = true;
    result.snapshot_seq = it->seq;
    result.run_id = it->run_id;
    covered_below = it->seq;
    break;
  }

  // Replay every segment the snapshot does not cover, in (seq, shard)
  // order (see header comment).
  const auto segments = scan_wal_segments(options.dir);
  for (const auto& seg : segments) {
    result.max_segment_seq = std::max(result.max_segment_seq, seg.seq);
    if (!seg.header_valid) {
      // Unreadable header: nothing in this file can be trusted. Count and
      // move on — the other segments' records still replay.
      result.frames_corrupt += 1;
      continue;
    }
    if (!result.used_snapshot) result.run_id = seg.run_id;
    if (result.used_snapshot && seg.watermark < covered_below) {
      result.segments_skipped += 1;
      continue;
    }
    SegmentReader reader(seg.path);
    while (auto record = reader.next()) {
      replay_record(state, options.delta_kind, *record, result);
    }
    if (reader.torn_tail()) {
      result.torn_tails += 1;
      result.stranded_bytes += reader.stranded_bytes();
    }
    result.segments_replayed += 1;
  }

  return result;
}

bool wal_dir_dirty(const std::string& dir) {
  return !scan_wal_segments(dir).empty() || !scan_snapshots(dir).empty();
}

DurableLog::DurableLog(Options options, std::size_t sites, std::uint64_t run_id)
    : options_(std::move(options)), run_id_(run_id) {
  USTREAM_REQUIRE(!wal_dir_dirty(options_.dir),
                  "WAL dir '" + options_.dir +
                      "' already holds segments or snapshots; pass --recover "
                      "to resume that run or point --wal-dir at a clean "
                      "directory");
  recovered_.sites.resize(sites);
  if (options_.snapshot_every > 0) winners_.resize(sites);
  open_writer(/*start_seq=*/0, /*watermark=*/0);
}

DurableLog::DurableLog(Options options, std::size_t sites, RecoveryResult recovered)
    : options_(std::move(options)),
      run_id_(recovered.run_id),
      recovered_(std::move(recovered)) {
  USTREAM_REQUIRE(recovered_.sites.size() == sites,
                  "recovered state has a different site count than serve");
  if (options_.snapshot_every > 0) winners_ = recovered_.sites;
  next_snapshot_seq_ = recovered_.max_snapshot_seq + 1;
  // New segments start past every existing one and are stamped covered by
  // nothing (watermark = last snapshot actually used, so they replay on
  // the next recovery even if newer corrupt snapshots exist).
  open_writer(recovered_.max_segment_seq + 1,
              recovered_.used_snapshot ? recovered_.snapshot_seq : 0);
}

DurableLog::~DurableLog() {
  try {
    sync_all();
  } catch (...) {
    // Best effort on teardown; committed records are already durable.
  }
}

void DurableLog::open_writer(std::uint32_t start_seq, std::uint32_t watermark) {
  WalConfig config;
  config.dir = options_.dir;
  config.run_id = run_id_;
  config.fsync = options_.fsync;
  config.fsync_interval = options_.fsync_interval;
  config.segment_bytes = options_.segment_bytes;
  writer_ = std::make_unique<WalWriter>(std::move(config), start_seq, watermark);
}

void DurableLog::log_accepted(std::uint32_t site, std::uint32_t epoch,
                              std::span<const std::uint8_t> frame_bytes,
                              bool is_delta) {
  USTREAM_REQUIRE(site < recovered_.sites.size(), "log_accepted: site out of range");
  writer_->append(frame_bytes);
  writer_->commit();
  records_logged_ += 1;
  // Only a snapshot reads the winners; without one nothing is retained.
  if (options_.snapshot_every == 0) return;
  if (is_delta) {
    USTREAM_REQUIRE(winners_[site].has_value(),
                    "delta logged for a site with no full frame on record");
    winners_[site]->deltas.emplace_back(frame_bytes.begin(), frame_bytes.end());
    winners_[site]->epoch = epoch;
  } else {
    winners_[site] = RecoveredSite{epoch,
                                   {frame_bytes.begin(), frame_bytes.end()},
                                   {}};
  }
  accepted_since_snapshot_ += 1;
  maybe_snapshot();
}

void DurableLog::release_recovered_frames() noexcept {
  for (auto& site : recovered_.sites) {
    if (!site.has_value()) continue;
    site->frame = {};
    site->deltas = {};
  }
}

std::uint64_t DurableLog::retained_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto* sites : {&recovered_.sites, &winners_}) {
    for (const auto& site : *sites) {
      if (!site.has_value()) continue;
      total += site->frame.size();
      for (const auto& delta : site->deltas) total += delta.size();
    }
  }
  return total;
}

void DurableLog::maybe_snapshot() {
  if (accepted_since_snapshot_ < options_.snapshot_every) return;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(winners_.size());
  for (const auto& winner : winners_) {
    if (!winner.has_value()) continue;
    // Chain order matters: the full frame first, then its deltas, so a
    // snapshot replay rebuilds the chain through the same acceptance path.
    frames.push_back(winner->frame);
    for (const auto& delta : winner->deltas) frames.push_back(delta);
  }
  const std::uint32_t seq = next_snapshot_seq_++;
  write_snapshot(options_.dir, run_id_, seq, frames);
  // Rotate into a fresh segment stamped with the new watermark:
  // everything logged so far is covered by snapshot `seq`.
  writer_->rotate(seq);
  accepted_since_snapshot_ = 0;
  snapshots_written_ += 1;
}

void DurableLog::sync_all() { writer_->sync(); }

}  // namespace ustream::durability
