// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding every wire frame. Chosen over plain CRC32 for its
// better error-detection properties on short messages and because it is
// the checksum real storage/transport systems standardize on (iSCSI,
// ext4, RocksDB, Akumuli's block store), so captured frames stay
// checkable by off-the-shelf tooling.
//
// Every frame pays it on both sides, and every WAL record once, so x86-64
// hosts with SSE4.2 take the crc32 instruction (8 bytes per instruction;
// one cached CPU probe, like hash_block's AVX-512 kernel). Elsewhere a
// portable slicing-by-8 table path (~1 byte/cycle) computes the same value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ustream {

// CRC of `data` continuing from `crc` (pass 0 to start). The running value
// is pre/post-inverted internally, so composing calls chains correctly:
//   crc32c(b, crc32c(a)) == crc32c(ab).
std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t crc = 0) noexcept;

// The portable table path crc32c() falls back to; exposed so tests can
// hold the hardware path to it.
std::uint32_t crc32c_sw(std::span<const std::uint8_t> data, std::uint32_t crc = 0) noexcept;

}  // namespace ustream
