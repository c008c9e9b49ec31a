#include "common/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ustream {
namespace {

TEST(Serialize, FixedWidthRoundtrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.141592653589793);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VarintEdgeCases) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 129,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 std::numeric_limits<std::uint64_t>::max()};
  ByteWriter w;
  for (auto v : cases) w.varint(v);
  ByteReader r(w.data());
  for (auto v : cases) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, VarintSizes) {
  ByteWriter w;
  w.varint(127);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(128);
  EXPECT_EQ(w2.size(), 2u);
  ByteWriter w3;
  w3.varint(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(w3.size(), 10u);
}

TEST(Serialize, SignedVarintRoundtrip) {
  const std::int64_t cases[] = {0, 1, -1, 63, -64, 64, -65,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  ByteWriter w;
  for (auto v : cases) w.svarint(v);
  ByteReader r(w.data());
  for (auto v : cases) EXPECT_EQ(r.svarint(), v);
}

TEST(Serialize, StringRoundtrip) {
  ByteWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(1000, 'x'));
  ByteReader r(w.data());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
}

TEST(Serialize, BytesRoundtrip) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 255, 0};
  ByteWriter w;
  w.bytes(payload);
  ByteReader r(w.data());
  EXPECT_EQ(r.bytes(5), payload);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TruncatedReadsThrow) {
  ByteWriter w;
  w.u32(5);
  {
    ByteReader r(w.data());
    EXPECT_THROW(r.u64(), SerializationError);
  }
  {
    ByteReader r(std::span<const std::uint8_t>{});
    EXPECT_THROW(r.u8(), SerializationError);
  }
  {
    // Varint whose continuation bit never ends.
    const std::vector<std::uint8_t> bad(3, 0x80);
    ByteReader r(bad);
    EXPECT_THROW(r.varint(), SerializationError);
  }
}

TEST(Serialize, OverlongVarintThrows) {
  // 11 continuation bytes exceed the 64-bit capacity.
  std::vector<std::uint8_t> bad(10, 0xff);
  bad.push_back(0x01);
  ByteReader r(bad);
  EXPECT_THROW(r.varint(), SerializationError);
}

// ByteReader::varint reads without per-byte bounds checks while 10 bytes
// remain. This is the byte-at-a-time decoder it must agree with: same
// value, same end position, same refusals.
struct VarintOutcome {
  std::uint64_t value = 0;
  std::size_t end = 0;
  std::string error;  // empty: decoded
  friend bool operator==(const VarintOutcome&, const VarintOutcome&) = default;
};

VarintOutcome reference_varint(const std::vector<std::uint8_t>& buf, std::size_t pos) {
  VarintOutcome out;
  int shift = 0;
  while (true) {
    if (pos == buf.size()) {
      out.error = "truncated buffer";
      break;
    }
    const std::uint8_t b = buf[pos++];
    if (shift >= 64) {
      out.error = "varint too long";
      break;
    }
    if (shift == 63 && (b & 0x7f) > 1) {
      out.error = "varint overflow";
      break;
    }
    out.value |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
  }
  out.end = pos;
  if (!out.error.empty()) out.value = 0;
  return out;
}

VarintOutcome reader_varint(const std::vector<std::uint8_t>& buf, std::size_t pos) {
  ByteReader r(buf);
  for (std::size_t i = 0; i < pos; ++i) r.u8();
  VarintOutcome out;
  try {
    out.value = r.varint();
  } catch (const SerializationError& e) {
    out.error = e.what();
  }
  out.end = r.position();
  return out;
}

TEST(Serialize, VarintMatchesByteAtATimeDecoderAtEveryDistanceFromTheEnd) {
  std::vector<std::vector<std::uint8_t>> forms;
  const auto encode = [](std::uint64_t v) {
    std::uint8_t buf[10];
    return std::vector<std::uint8_t>(buf, put_varint(buf, v));
  };
  for (int bytes = 1; bytes <= 10; ++bytes) {  // every canonical length, both ends
    const std::uint64_t lo = bytes == 1 ? 0 : std::uint64_t{1} << (7 * (bytes - 1));
    const std::uint64_t hi = bytes == 10 ? ~std::uint64_t{0} : (std::uint64_t{1} << (7 * bytes)) - 1;
    for (const std::uint64_t v : {lo, lo + 1, hi - 1, hi}) {
      forms.push_back(encode(v));
      ASSERT_EQ(forms.back().size(), static_cast<std::size_t>(bytes)) << v;
    }
  }
  // Non-canonical padding: 0 and 1 spread over 2..10 bytes.
  for (std::size_t bytes = 2; bytes <= 10; ++bytes) {
    for (const std::uint8_t first : {std::uint8_t{0x80}, std::uint8_t{0x81}}) {
      std::vector<std::uint8_t> f(bytes, 0x80);
      f[0] = first;
      f.back() = 0x00;
      forms.push_back(f);
    }
  }
  // The 10th byte carries bit 63 only: anything above 1 overflows.
  for (const std::uint8_t last :
       {std::uint8_t{0x02}, std::uint8_t{0x7f}, std::uint8_t{0x82}, std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> f(9, 0xff);
    f.push_back(last);
    forms.push_back(f);
  }
  // A 10th byte that continues makes the varint too long.
  for (const std::uint8_t last : {std::uint8_t{0x80}, std::uint8_t{0x81}}) {
    std::vector<std::uint8_t> f(9, 0xff);
    f.push_back(last);
    f.push_back(0x00);
    forms.push_back(f);
  }

  constexpr std::size_t kPrefix = 3;  // the reader starts mid-buffer
  for (const auto& form : forms) {
    for (std::size_t distance = 0; distance <= 11; ++distance) {
      // `distance` bytes remain at the reader: the form, cut short or
      // followed by continuation-flagged filler an overread would absorb.
      std::vector<std::uint8_t> buf(kPrefix, 0xaa);
      for (std::size_t i = 0; i < distance; ++i) buf.push_back(i < form.size() ? form[i] : 0xff);
      const VarintOutcome want = reference_varint(buf, kPrefix);
      const VarintOutcome got = reader_varint(buf, kPrefix);
      EXPECT_EQ(got, want) << "form of " << form.size() << " bytes at distance " << distance
                           << ": got " << got.value << " @" << got.end << " '" << got.error
                           << "', want " << want.value << " @" << want.end << " '"
                           << want.error << "'";
    }
  }
}

TEST(Serialize, RemainingAndPosition) {
  ByteWriter w;
  w.u32(1);
  w.u32(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.position(), 4u);
  r.u32();
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TakeMovesBuffer) {
  ByteWriter w;
  w.u8(7);
  auto buf = w.take();
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 7);
}

}  // namespace
}  // namespace ustream
