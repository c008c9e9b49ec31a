// Crash recovery for the referee: scan, replay, resume (DESIGN.md §11).
//
// Recovery rebuilds the arbiter's acceptance state from the durable
// artifacts in a WAL dir: the newest valid snapshot (a compacted WAL,
// snapshot.h) plus every WAL segment the snapshot does not cover, replayed
// through a fresh CollectState::admit — the SAME acceptance path live
// frames take, so exactly-once / latest-wins semantics are preserved by
// construction. The referee logs every accepted frame to ONE segment
// chain in acceptance order, so replay in chain order is the live order:
// a delta replays after its base, whichever shard accepted either. A dir
// an older build wrote holds one chain per shard; segments replay in
// (seq, shard) order. Inside such a run a delta sat in its base's chain,
// which that order keeps in seq order, and full frames are order-free
// (exactly-once logged each site at most once, latest-wins is a max over
// epochs). A resumed run's segments start past every old seq, so they
// replay after all of the old run's.
//
// What "byte-identical resume" means: the recovered referee holds, for
// every site that was acked before the crash, the exact frame bytes that
// won arbitration. Sites re-pushing after the restart are deduped against
// that state exactly as they would have been against the live state, so
// the merged output of (crash, recover, finish) equals the uninterrupted
// run's bytes. Attempt/duplicate *counters* restart at one-per-recovered-
// site: retries burned before the crash are not replayed (the WAL logs
// winners, not traffic).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/frame.h"
#include "distributed/collect.h"
#include "durability/snapshot.h"
#include "durability/wal.h"

namespace ustream::durability {

// One site's recovered acceptance: the winning epoch and the verbatim
// winning frame (kept so snapshots can be rewritten and re-pushes after
// restart can be compared against real state, not a summary of it).
// Under the continuous delta protocol the winning state is a CHAIN: the
// last full frame plus every delta accepted on top of it, in log order
// (`epoch` is then the chain head — the last delta's epoch). Replaying
// frame-then-deltas through the same sink path reproduces the pre-crash
// mirror; a snapshot writes the full frame and then every delta, in that
// order, so a recovery from snapshot rebuilds it identically.
struct RecoveredSite {
  std::uint32_t epoch = 0;
  std::vector<std::uint8_t> frame;
  std::vector<std::vector<std::uint8_t>> deltas;
};

struct RecoveryResult {
  // site -> recovered acceptance (nullopt = site had not reported).
  std::vector<std::optional<RecoveredSite>> sites;
  std::uint64_t frames_replayed = 0;   // verdict A from the replay ledger
  std::uint64_t frames_superseded = 0; // verdict D, S or R: a newer state won
  std::uint64_t frames_corrupt = 0;    // verdict Q: failed frame CRC/validation
  std::uint64_t segments_replayed = 0;
  std::uint64_t segments_skipped = 0;  // covered by the loaded snapshot
  std::uint64_t torn_tails = 0;        // segments ending in a partial record
  std::uint64_t stranded_bytes = 0;    // bytes past the last intact record
  bool used_snapshot = false;
  std::uint32_t snapshot_seq = 0;
  std::uint64_t run_id = 0;
  // Highest segment seq seen, so a restarted writer continues past every
  // existing segment instead of colliding with one.
  std::uint32_t max_segment_seq = 0;
  std::uint32_t max_snapshot_seq = 0;

  std::size_t sites_recovered() const noexcept;
  std::string summary() const;  // one line for the serve banner / JSON
};

struct RecoveryOptions {
  std::string dir;
  std::size_t sites = 0;
  PayloadKind expected_kind = PayloadKind::kOpaque;
  DedupMode dedup = DedupMode::kExactlyOnce;
  // Continuous mode: accept logged delta frames of this kind onto their
  // site's chain during replay (requires kLatestWins, like the live path).
  std::optional<PayloadKind> delta_kind;
};

// Replays the WAL dir into a RecoveryResult. Corrupt snapshots fall back
// to the previous valid one; a segment's torn tail ends that segment's
// replay cleanly (the intact prefix is kept). Segments whose header is
// invalid or whose run_id disagrees with the chain are skipped with a
// corrupt count rather than aborting — recovery's job is to salvage every
// frame that provably survived, not to insist the dir is pristine.
RecoveryResult recover_referee_state(const RecoveryOptions& options);

// The referee's durability coordinator: the one WalWriter every shard logs
// to, the set of winning frames (kept only when snapshots are on), and the
// snapshot trigger. All methods are called under the referee's cross-shard
// arbiter mutex — the mutex that already serializes acceptance is what
// makes "log in acceptance order" free — so DurableLog itself takes no
// locks.
class DurableLog {
 public:
  struct Options {
    std::string dir;
    FsyncPolicy fsync = FsyncPolicy::kInterval;
    std::chrono::milliseconds fsync_interval{50};
    std::uint64_t segment_bytes = 64ull << 20;
    // Snapshot after this many newly accepted frames (0 = never).
    std::uint64_t snapshot_every = 0;
  };

  // Fresh log (no recovery): `dir` must not already hold WAL artifacts —
  // starting a new run over an old run's log would make `--recover` a
  // footgun, so the caller must pass recovered state or use a clean dir.
  DurableLog(Options options, std::size_t sites, std::uint64_t run_id);
  // Resumed log: continues the segment chain and snapshot sequence from
  // `recovered`, and seeds the winning-frame set from it.
  DurableLog(Options options, std::size_t sites, RecoveryResult recovered);
  ~DurableLog();

  // Logs one arbitration winner: appends the frame to the WAL and commits
  // (write + policy fsync) so the caller may ack. May write a snapshot and
  // rotate the writer when snapshot_every is hit. `is_delta` appends the
  // frame to the site's recovered chain instead of replacing it (the site
  // must already hold a full frame); a full frame always resets the chain.
  void log_accepted(std::uint32_t site, std::uint32_t epoch,
                    std::span<const std::uint8_t> frame_bytes,
                    bool is_delta = false);

  // Final flush+fsync (clean shutdown).
  void sync_all();

  const RecoveryResult& recovered() const noexcept { return recovered_; }
  // Drops the recovered frame bytes once the referee has replayed them
  // into its sink; the per-site epochs and every count stay.
  void release_recovered_frames() noexcept;
  // Frame bytes held in memory: the recovered chains until released, plus
  // the winners a snapshot would write — none when snapshot_every is 0.
  std::uint64_t retained_bytes() const noexcept;
  std::uint64_t run_id() const noexcept { return run_id_; }
  std::uint64_t records_logged() const noexcept { return records_logged_; }
  std::uint64_t bytes_logged() const noexcept { return writer_->bytes_appended(); }
  std::uint64_t fsyncs() const noexcept { return writer_->fsyncs(); }
  std::uint64_t snapshots_written() const noexcept { return snapshots_written_; }

 private:
  void open_writer(std::uint32_t start_seq, std::uint32_t watermark);
  void maybe_snapshot();

  Options options_;
  std::uint64_t run_id_ = 0;
  RecoveryResult recovered_;
  std::unique_ptr<WalWriter> writer_;
  // site -> current winning chain (what a snapshot serializes); empty
  // when snapshot_every is 0, since nothing else reads it.
  std::vector<std::optional<RecoveredSite>> winners_;
  std::uint32_t next_snapshot_seq_ = 1;
  std::uint64_t accepted_since_snapshot_ = 0;
  std::uint64_t records_logged_ = 0;
  std::uint64_t snapshots_written_ = 0;
};

// True if `dir` already holds WAL segments or snapshots (used by serve to
// demand an explicit --recover instead of silently mixing runs).
bool wal_dir_dirty(const std::string& dir);

}  // namespace ustream::durability
