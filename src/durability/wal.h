// Write-ahead log for the referee's collection plane (DESIGN.md §11).
//
// A referee crash mid-collection used to discard every accepted frame even
// though the sites already held 'A' acks for them — the one fault the
// retry/dedup machinery cannot paper over, because an acked site never
// retransmits on its own. The WAL closes that hole: an accepted wire frame
// is appended to the referee's one log, in acceptance order, and written
// to the kernel BEFORE its ack byte is queued, so a kill -9 referee can be
// restarted with `serve --recover` and every acked frame replayed
// (durability/recovery.h).
//
// The record format leans on PR 2's framing: accepted frames are already
// CRC32C-checksummed version-1 wire frames, so the log record IS the frame,
// verbatim, behind the same u32 length prefix the TCP stream uses:
//
//   segment := header record*
//   record  := [u32 LE length][frame bytes]      (length <= kMaxRecordBytes)
//
// Segment header (32 bytes, little-endian, CRC32C over bytes [0, 28)):
//
//   offset  size  field
//        0     4  magic      "USWL" (0x4c575355)
//        4     1  version    kWalVersion
//        5     3  reserved   must be zero
//        8     8  run_id     identifies one collection run across restarts
//       16     4  shard      0 (older builds wrote one chain per referee
//                            shard and put its index here)
//       20     4  seq        segment sequence number within the chain
//       24     4  watermark  snapshots written before this segment opened
//       28     4  crc        CRC32C over bytes [0, 28)
//
// Torn-write tolerance: a crash can strand a partial record at the tail of
// the last segment (short length prefix, short body, or garbage bytes).
// Replay slices records structurally (length in bounds, body complete) and
// validates every frame's own CRC; the first record that fails either
// check ends that segment's replay cleanly — the intact prefix is kept,
// nothing after it is trusted (the stream is desynchronized past a bad
// length). tests/test_durability.cpp fuzzes this with the same seeded
// corruption matrix style as tests/test_fuzz.cpp.
//
// Fsync policy is the durability/throughput dial (group commit):
//   kAlways    fsync before every ack — survives power loss per frame;
//   kInterval  fsync when `fsync_interval` has elapsed since the last one —
//              bounded power-loss window, cheap steady state;
//   kNever     no fsync until close() — survives process death (the write()
//              has reached the kernel) but not machine death.
// All three policies write() buffered records before commit() returns, so
// the ack-implies-logged contract holds against kill -9 regardless.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace ustream::durability {

inline constexpr std::uint32_t kWalMagic = 0x4c575355u;  // "USWL"
inline constexpr std::uint8_t kWalVersion = 1;
inline constexpr std::size_t kWalHeaderBytes = 32;
inline constexpr std::size_t kMaxRecordBytes = 64u << 20;

enum class FsyncPolicy : std::uint8_t { kAlways, kInterval, kNever };

const char* fsync_policy_name(FsyncPolicy policy) noexcept;
// Parses "always" / "interval" / "never"; throws InvalidArgument otherwise.
FsyncPolicy parse_fsync_policy(const std::string& name);

struct WalConfig {
  std::string dir;
  std::uint64_t run_id = 0;
  FsyncPolicy fsync = FsyncPolicy::kInterval;
  std::chrono::milliseconds fsync_interval{50};
  // Rotation threshold: a commit that leaves the segment past this size
  // closes it and opens the next one in the chain.
  std::uint64_t segment_bytes = 64ull << 20;
};

// Segment file name within a WAL dir: wal-<shard>-<seq>.log (zero-padded
// so lexicographic order is chain order). WalWriter names its segments
// with shard 0; a nonzero shard only names a segment an older build wrote.
std::string wal_segment_name(std::uint32_t shard, std::uint32_t seq);

// The 32-byte checksummed segment header (exposed for snapshot files,
// which reuse the layout, and for corruption tests).
std::vector<std::uint8_t> encode_wal_header(std::uint64_t run_id,
                                            std::uint32_t shard,
                                            std::uint32_t seq,
                                            std::uint32_t watermark);

// One segment's header plus what a structural scan learned about it.
struct SegmentInfo {
  std::string path;
  std::uint64_t run_id = 0;
  std::uint32_t shard = 0;
  std::uint32_t seq = 0;
  std::uint32_t watermark = 0;  // snapshots written before this segment opened
  std::uint64_t file_bytes = 0;
  bool header_valid = false;    // magic/version/CRC all check out
  std::string error;            // why header_valid is false, for `ustream wal`
};

// Scans `dir` for WAL segments and parses their headers. Returns segments
// sorted by (seq, shard) — chain order, and for a dir an older build wrote
// with one chain per shard, every old segment before the ones a resumed
// run appended past them (recovery.h); files whose header fails validation are still
// listed (header_valid = false) so inspection tools can show them. A
// missing directory is an empty WAL, not an error.
std::vector<SegmentInfo> scan_wal_segments(const std::string& dir);

// Iterates the records of one segment. Structural slicing only — callers
// replay each record through frame_decode (recovery.h) or show it
// (`ustream wal dump`); this class just finds the record boundaries and
// detects the torn tail.
class SegmentReader {
 public:
  // Reads the whole file; throws SerializationError if the header is
  // invalid (callers filter on SegmentInfo::header_valid first).
  explicit SegmentReader(const std::string& path);

  const SegmentInfo& info() const noexcept { return info_; }

  // Next record's frame bytes, or nullopt at end-of-segment (clean or
  // torn — check torn_tail() to tell which).
  std::optional<std::span<const std::uint8_t>> next();

  // True once next() stopped because the tail is not a complete record:
  // a short length prefix, a body shorter than its announced length, or a
  // length past kMaxRecordBytes (garbage — the stream is desynchronized).
  bool torn_tail() const noexcept { return torn_tail_; }
  std::uint64_t records_read() const noexcept { return records_read_; }
  // Bytes stranded past the last intact record (0 for a clean tail).
  std::uint64_t stranded_bytes() const noexcept { return stranded_bytes_; }

 private:
  SegmentInfo info_;
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = kWalHeaderBytes;
  std::uint64_t records_read_ = 0;
  std::uint64_t stranded_bytes_ = 0;
  bool torn_tail_ = false;
  bool done_ = false;
};

// Append side: the referee's one writer, owned by its DurableLog and driven
// under the cross-shard arbiter mutex (referee_server.cpp), so no locking
// of its own. append() buffers; commit() write()s the buffer to the segment file
// and fsyncs per policy — the ack for an accepted frame is only queued
// after commit() returns.
class WalWriter {
 public:
  // Opens segment `start_seq` in config.dir (creating the directory), with
  // `watermark` snapshots already written. Throws SerializationError on
  // any filesystem failure — durability that cannot be provided must be a
  // loud error, not a silent downgrade.
  WalWriter(WalConfig config, std::uint32_t start_seq, std::uint32_t watermark);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Buffers one record ([len][frame]). The frame is appended verbatim —
  // it carries its own CRC.
  void append(std::span<const std::uint8_t> frame_bytes);

  // Writes every buffered byte to the kernel (one write() — the group
  // commit), fsyncs per policy, then rotates if the segment is past
  // config.segment_bytes.
  void commit();

  // Closes the current segment and opens the next with a new watermark
  // (called when a snapshot supersedes everything logged so far).
  void rotate(std::uint32_t watermark);

  // Flushes and fsyncs regardless of policy (clean shutdown).
  void sync();

  std::uint64_t records_appended() const noexcept { return records_; }
  std::uint64_t bytes_appended() const noexcept { return bytes_; }
  std::uint64_t fsyncs() const noexcept { return fsyncs_; }
  std::uint64_t rotations() const noexcept { return rotations_; }
  std::uint32_t segment_seq() const noexcept { return seq_; }

 private:
  void open_segment();
  void flush_buffer();
  void do_fsync();

  WalConfig config_;
  int fd_ = -1;
  std::uint32_t seq_ = 0;
  std::uint32_t watermark_ = 0;
  std::uint64_t segment_offset_ = 0;  // bytes written to the current segment
  std::vector<std::uint8_t> buffer_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t rotations_ = 0;
  std::chrono::steady_clock::time_point last_fsync_;
};

}  // namespace ustream::durability
