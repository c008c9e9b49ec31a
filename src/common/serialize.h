// Byte-level serialization for sketches and distributed messages.
//
// The wire format is what the distributed-streams model charges for: each
// party ships exactly one serialized sketch to the referee (E4 measures
// these bytes). Format: little-endian fixed-width integers plus LEB128
// varints for counts and deltas. Explicitly versioned per message type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"

namespace ustream {

// Writes v as an unsigned LEB128 varint at p (1-10 bytes); returns one past
// the last byte written.
inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { buf_.reserve(reserve_bytes); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  // Unsigned LEB128 variable-length integer (1-10 bytes).
  void varint(std::uint64_t v);
  // ZigZag-encoded signed varint.
  void svarint(std::int64_t v);
  void bytes(std::span<const std::uint8_t> data);
  void str(const std::string& s);

  // Raw append for hot encoders: grows the buffer by `max_bytes` and
  // returns where they start. The caller writes through the pointer (e.g.
  // with put_varint) and passes one past its last byte to end_raw(), which
  // trims the unused tail; no other write may come in between.
  std::uint8_t* begin_raw(std::size_t max_bytes) {
    const std::size_t at = buf_.size();
    buf_.resize(at + max_bytes);
    return buf_.data() + at;
  }
  void end_raw(const std::uint8_t* end) noexcept {
    buf_.resize(static_cast<std::size_t>(end - buf_.data()));
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  // Inline: the sampler decoders call these once or twice per entry.
  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  // Unsigned LEB128; refuses a varint that runs past 10 bytes or 64 bits.
  // With 10 bytes left, the longest legal varint cannot run off the end,
  // so the bytes are read without a bounds check each; the result, the
  // position and the refusals match the checked loop below.
  std::uint64_t varint() {
    if (remaining() >= kMaxVarintBytes) {
      const std::uint8_t* p = data_.data() + pos_;
      std::uint64_t v = 0;
      for (std::size_t k = 0; k + 1 < kMaxVarintBytes; ++k) {
        v |= static_cast<std::uint64_t>(p[k] & 0x7f) << (7 * k);
        if (!(p[k] & 0x80)) {
          pos_ += k + 1;
          return v;
        }
      }
      const std::uint8_t last = p[kMaxVarintBytes - 1];  // bit 63 only
      pos_ += kMaxVarintBytes;
      if ((last & 0x7f) > 1) throw SerializationError("varint overflow");
      if (!(last & 0x80)) return v | static_cast<std::uint64_t>(last) << 63;
      need(1);
      ++pos_;
      throw SerializationError("varint too long");
    }
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      need(1);
      const std::uint8_t b = data_[pos_++];
      if (shift >= 64) throw SerializationError("varint too long");
      if (shift == 63 && (b & 0x7f) > 1) throw SerializationError("varint overflow");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
    }
  }
  std::int64_t svarint();
  std::vector<std::uint8_t> bytes(std::size_t n);
  std::string str();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  std::size_t position() const noexcept { return pos_; }

 private:
  static constexpr std::size_t kMaxVarintBytes = 10;

  void need(std::size_t n) const {
    if (remaining() < n) throw SerializationError("truncated buffer");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ustream
