// LSD radix sort by a 64-bit key, for the sketch serializers: they write
// entries in key order so label deltas encode compactly, and at a few
// thousand entries per sampler eight counting passes beat a comparison
// sort through pointers.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace ustream {

// Sorts `items` ascending by key(item), stably, using `scratch` as the
// second buffer (resized as needed; contents afterwards unspecified).
// Byte digits, one histogram pass for all eight; a digit every key shares
// — the high bytes of small labels — costs no pass.
template <typename T, typename Key>
void radix_sort_by_key(std::vector<T>& items, std::vector<T>& scratch, Key key) {
  const std::size_t n = items.size();
  if (n < 2) return;
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const T& x : items) {
    const std::uint64_t k = key(x);
    for (int d = 0; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 0xFFu];
  }
  scratch.resize(n);
  T* src = items.data();
  T* dst = scratch.data();
  for (int d = 0; d < 8; ++d) {
    auto& c = counts[d];
    if (c[(key(src[0]) >> (8 * d)) & 0xFFu] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& b : c) {
      const std::uint32_t here = b;
      b = sum;
      sum += here;
    }
    for (std::size_t i = 0; i < n; ++i) dst[c[(key(src[i]) >> (8 * d)) & 0xFFu]++] = src[i];
    std::swap(src, dst);
  }
  if (src != items.data()) items.swap(scratch);
}

}  // namespace ustream
