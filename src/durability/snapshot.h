// Epoch snapshots: compaction for the referee's WAL (DESIGN.md §11).
//
// A snapshot is a *compacted WAL*: one record per reported site — the
// frame that currently wins that site's slot in the cross-shard arbiter —
// in the same [u32 len][frame] record format behind the same 32-byte
// checksummed header (wal.h), with the header's `seq` field carrying the
// snapshot sequence number and `shard` fixed to kSnapshotShard. Reusing
// the record format means recovery has exactly one replay path: a
// snapshot loads by replaying its records through CollectState just like
// a WAL segment, so snapshot-assisted and tail-only recovery cannot
// diverge.
//
// Coordination with the WAL needs no byte cursors: writing snapshot S
// rotates the referee's writer into a fresh segment stamped with
// watermark S. Recovery then replays the newest valid snapshot plus only
// the segments whose watermark >= S — the covered tail is skipped, and
// if the newest snapshot is corrupt the previous one still works (older
// segments replay more records, but replaying a superseded record just
// loses arbitration — correctness is unaffected).
//
// Snapshots are written to a temp file and renamed into place, so a crash
// mid-snapshot leaves either the old set or the old set plus one complete
// new file — never a half-written current snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "durability/wal.h"

namespace ustream::durability {

// Sentinel shard id marking a header as a snapshot rather than a segment.
inline constexpr std::uint32_t kSnapshotShard = 0xffffffffu;

std::string snapshot_name(std::uint32_t seq);

struct SnapshotInfo {
  std::string path;
  std::uint64_t run_id = 0;
  std::uint32_t seq = 0;
  std::uint64_t file_bytes = 0;
  bool valid = false;   // header + every record structurally intact
  std::string error;
};

// Writes snapshot `seq` containing `frames` (winning frames, verbatim)
// atomically into `dir`. Throws SerializationError on filesystem failure.
void write_snapshot(const std::string& dir, std::uint64_t run_id,
                    std::uint32_t seq,
                    const std::vector<std::vector<std::uint8_t>>& frames);

// Lists snapshots in `dir`, sorted by seq ascending; corrupt files are
// included with valid=false so recovery can fall back and `ustream wal`
// can display them. A snapshot with a torn record tail is invalid in its
// entirety (unlike a WAL segment): it was written atomically, so a torn
// tail means the file itself is damaged, not that a crash interrupted it.
std::vector<SnapshotInfo> scan_snapshots(const std::string& dir);

// Loads every frame of one snapshot. Throws SerializationError if the
// header or any record is invalid (callers filter on SnapshotInfo::valid).
std::vector<std::vector<std::uint8_t>> load_snapshot(const std::string& path);

}  // namespace ustream::durability
