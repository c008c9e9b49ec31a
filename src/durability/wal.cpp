#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>

#include "common/crc32c.h"
#include "obs/metrics.h"

namespace ustream::durability {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::string errno_message(const char* op, const std::string& path) {
  return std::string(op) + " failed for " + path + ": " + std::strerror(errno);
}

obs::Counter& wal_records_counter() {
  static obs::Counter& c =
      obs::default_registry().counter("ustream_wal_records_total");
  return c;
}
obs::Counter& wal_bytes_counter() {
  static obs::Counter& c =
      obs::default_registry().counter("ustream_wal_bytes_total");
  return c;
}
obs::Counter& wal_fsyncs_counter() {
  static obs::Counter& c =
      obs::default_registry().counter("ustream_wal_fsyncs_total");
  return c;
}
obs::Counter& wal_rotations_counter() {
  static obs::Counter& c =
      obs::default_registry().counter("ustream_wal_rotations_total");
  return c;
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kInterval:
      return "interval";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "interval") return FsyncPolicy::kInterval;
  if (name == "never") return FsyncPolicy::kNever;
  throw InvalidArgument("unknown fsync policy '" + name +
                        "' (expected always, interval, or never)");
}

std::string wal_segment_name(std::uint32_t shard, std::uint32_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "wal-%05u-%08u.log", shard, seq);
  return buf;
}

std::vector<std::uint8_t> encode_wal_header(std::uint64_t run_id,
                                            std::uint32_t shard,
                                            std::uint32_t seq,
                                            std::uint32_t watermark) {
  std::vector<std::uint8_t> out;
  out.reserve(kWalHeaderBytes);
  put_u32(out, kWalMagic);
  out.push_back(kWalVersion);
  out.push_back(0);
  out.push_back(0);
  out.push_back(0);
  put_u64(out, run_id);
  put_u32(out, shard);
  put_u32(out, seq);
  put_u32(out, watermark);
  put_u32(out, crc32c(std::span<const std::uint8_t>(out.data(), 28)));
  return out;
}

namespace {

// Parses the 32-byte segment header into `info`; on failure sets
// info.error and returns false instead of throwing, so scans can list
// corrupt files for `ustream wal` to display.
bool parse_wal_header(std::span<const std::uint8_t> bytes, SegmentInfo& info) {
  if (bytes.size() < kWalHeaderBytes) {
    info.error = "file shorter than the 32-byte segment header";
    return false;
  }
  const std::uint8_t* p = bytes.data();
  if (get_u32(p) != kWalMagic) {
    info.error = "bad magic (not a WAL segment)";
    return false;
  }
  if (p[4] != kWalVersion) {
    info.error = "unsupported WAL version " + std::to_string(p[4]);
    return false;
  }
  if (p[5] != 0 || p[6] != 0 || p[7] != 0) {
    info.error = "nonzero reserved header bytes";
    return false;
  }
  const std::uint32_t want = get_u32(p + 28);
  const std::uint32_t got = crc32c(bytes.subspan(0, 28));
  if (want != got) {
    info.error = "header CRC mismatch";
    return false;
  }
  info.run_id = get_u64(p + 8);
  info.shard = get_u32(p + 16);
  info.seq = get_u32(p + 20);
  info.watermark = get_u32(p + 24);
  return true;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SerializationError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw SerializationError("short read from " + path);
  }
  return bytes;
}

}  // namespace

std::vector<SegmentInfo> scan_wal_segments(const std::string& dir) {
  std::vector<SegmentInfo> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return segments;  // absent dir == empty WAL
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("wal-", 0) != 0 || name.size() < 8 ||
        name.substr(name.size() - 4) != ".log") {
      continue;
    }
    SegmentInfo info;
    info.path = dir + "/" + name;
    try {
      const auto bytes = read_file_bytes(info.path);
      info.file_bytes = bytes.size();
      info.header_valid = parse_wal_header(bytes, info);
    } catch (const SerializationError& e) {
      info.error = e.what();
    }
    segments.push_back(std::move(info));
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.path < b.path;
            });
  return segments;
}

SegmentReader::SegmentReader(const std::string& path)
    : bytes_(read_file_bytes(path)) {
  info_.path = path;
  info_.file_bytes = bytes_.size();
  info_.header_valid = parse_wal_header(bytes_, info_);
  if (!info_.header_valid) {
    throw SerializationError("WAL segment " + path + ": " + info_.error);
  }
}

std::optional<std::span<const std::uint8_t>> SegmentReader::next() {
  if (done_) return std::nullopt;
  if (pos_ == bytes_.size()) {  // clean end
    done_ = true;
    return std::nullopt;
  }
  if (bytes_.size() - pos_ < 4) {
    torn_tail_ = true;
    stranded_bytes_ = bytes_.size() - pos_;
    done_ = true;
    return std::nullopt;
  }
  const std::uint32_t len = get_u32(bytes_.data() + pos_);
  if (len > kMaxRecordBytes || bytes_.size() - pos_ - 4 < len) {
    torn_tail_ = true;
    stranded_bytes_ = bytes_.size() - pos_;
    done_ = true;
    return std::nullopt;
  }
  std::span<const std::uint8_t> record(bytes_.data() + pos_ + 4, len);
  pos_ += 4 + len;
  ++records_read_;
  return record;
}

WalWriter::WalWriter(WalConfig config, std::uint32_t start_seq,
                     std::uint32_t watermark)
    : config_(std::move(config)),
      seq_(start_seq),
      watermark_(watermark),
      last_fsync_(std::chrono::steady_clock::now()) {
  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw SerializationError(errno_message("mkdir", config_.dir));
  }
  open_segment();
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    try {
      flush_buffer();
    } catch (...) {
      // Destructor: the process is going down anyway; data already
      // committed is on disk, uncommitted appends were never acked.
    }
    ::close(fd_);
  }
}

void WalWriter::open_segment() {
  const std::string path = config_.dir + "/" +
                           wal_segment_name(0, seq_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd_ < 0) throw SerializationError(errno_message("open", path));
  const auto header =
      encode_wal_header(config_.run_id, 0, seq_, watermark_);
  const char* p = reinterpret_cast<const char*>(header.data());
  std::size_t left = header.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SerializationError(errno_message("write", path));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  // The header must be durable before any record relies on it: fsync the
  // file, then the directory so the new name survives too.
  if (::fsync(fd_) != 0) {
    throw SerializationError(errno_message("fsync", path));
  }
  const int dirfd = ::open(config_.dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);
    ::close(dirfd);
  }
  segment_offset_ = header.size();
}

void WalWriter::append(std::span<const std::uint8_t> frame_bytes) {
  USTREAM_REQUIRE(frame_bytes.size() <= kMaxRecordBytes,
                  "WAL record larger than kMaxRecordBytes");
  put_u32(buffer_, static_cast<std::uint32_t>(frame_bytes.size()));
  buffer_.insert(buffer_.end(), frame_bytes.begin(), frame_bytes.end());
  ++records_;
  wal_records_counter().add(1);
}

void WalWriter::flush_buffer() {
  if (buffer_.empty()) return;
  const char* p = reinterpret_cast<const char*>(buffer_.data());
  std::size_t left = buffer_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SerializationError(errno_message("write", config_.dir));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  bytes_ += buffer_.size();
  segment_offset_ += buffer_.size();
  wal_bytes_counter().add(buffer_.size());
  buffer_.clear();
}

void WalWriter::do_fsync() {
  if (::fsync(fd_) != 0) {
    throw SerializationError(errno_message("fsync", config_.dir));
  }
  ++fsyncs_;
  wal_fsyncs_counter().add(1);
  last_fsync_ = std::chrono::steady_clock::now();
}

void WalWriter::commit() {
  flush_buffer();
  switch (config_.fsync) {
    case FsyncPolicy::kAlways:
      do_fsync();
      break;
    case FsyncPolicy::kInterval: {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_fsync_ >= config_.fsync_interval) do_fsync();
      break;
    }
    case FsyncPolicy::kNever:
      break;
  }
  if (segment_offset_ >= config_.segment_bytes) rotate(watermark_);
}

void WalWriter::rotate(std::uint32_t watermark) {
  flush_buffer();
  do_fsync();  // the old segment is final — make it durable
  ::close(fd_);
  fd_ = -1;
  ++seq_;
  watermark_ = watermark;
  ++rotations_;
  wal_rotations_counter().add(1);
  open_segment();
}

void WalWriter::sync() {
  flush_buffer();
  do_fsync();
}

}  // namespace ustream::durability
