#include "common/dense_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace ustream {
namespace {

TEST(DenseMap, InsertAndFind) {
  DenseMap<int> m;
  auto [e1, ins1] = m.try_emplace(42, 7);
  EXPECT_TRUE(ins1);
  EXPECT_EQ(e1->value, 7);
  auto [e2, ins2] = m.try_emplace(42, 99);
  EXPECT_FALSE(ins2);
  EXPECT_EQ(e2->value, 7);  // first value wins
  EXPECT_EQ(m.size(), 1u);
  EXPECT_NE(m.find(42), nullptr);
  EXPECT_EQ(m.find(43), nullptr);
}

TEST(DenseMap, ZeroAndMaxKeys) {
  DenseMap<int> m;
  m.try_emplace(0, 1);
  m.try_emplace(~std::uint64_t{0}, 2);
  EXPECT_TRUE(m.contains(0));
  EXPECT_TRUE(m.contains(~std::uint64_t{0}));
  EXPECT_EQ(m.size(), 2u);
}

TEST(DenseMap, GrowthKeepsAllKeys) {
  DenseMap<std::uint64_t> m;
  Xoshiro256 rng(1);
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t k = rng.next();
    keys.insert(k);
    m.try_emplace(k, k * 2);
  }
  EXPECT_EQ(m.size(), keys.size());
  for (std::uint64_t k : keys) {
    auto* e = m.find(k);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->value, k * 2);
  }
}

TEST(DenseMap, FilterKeepsPredicate) {
  DenseMap<std::uint64_t> m;
  for (std::uint64_t i = 0; i < 1000; ++i) m.try_emplace(i, i);
  m.filter([](const auto& e) { return e.key % 3 == 0; });
  EXPECT_EQ(m.size(), 334u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(m.contains(i), i % 3 == 0) << i;
  }
  // Map still functions after filter (reindex correct).
  m.try_emplace(2000, 1);
  EXPECT_TRUE(m.contains(2000));
}

TEST(DenseMap, FilterAll) {
  DenseMap<int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.try_emplace(i, 0);
  m.filter([](const auto&) { return false; });
  EXPECT_TRUE(m.empty());
  m.try_emplace(5, 1);
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMap, IterationSeesEveryEntryOnce) {
  DenseMap<int> m;
  for (std::uint64_t i = 100; i < 200; ++i) m.try_emplace(i, 1);
  std::set<std::uint64_t> seen;
  for (const auto& e : m) EXPECT_TRUE(seen.insert(e.key).second);
  EXPECT_EQ(seen.size(), 100u);
}

TEST(DenseMap, ClearResets) {
  DenseMap<int> m;
  for (std::uint64_t i = 0; i < 50; ++i) m.try_emplace(i, 0);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(3));
}

// reset() empties the map in place: across refills of different sizes it
// must keep its table size and answer exactly like a fresh map.
TEST(DenseMap, ResetKeepsTableSizeAndMatchesAFreshMap) {
  DenseMap<std::uint32_t> m(4096);
  const std::size_t table = m.table_size();
  Xoshiro256 rng(7);
  for (const std::size_t fill : {0u, 1u, 10u, 200u, 257u, 4000u, 3u}) {
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < fill; ++i) {
      // Half the keys collide in the low bits, so probe chains form.
      keys.push_back(i % 2 == 0 ? rng.next() : (rng.below(64) << 52));
    }
    DenseMap<std::uint32_t> fresh(4096);
    for (const std::uint64_t k : keys) {
      const auto id = static_cast<std::uint32_t>(m.size());
      EXPECT_EQ(m.try_emplace(k, id).second,
                fresh.try_emplace(k, static_cast<std::uint32_t>(fresh.size())).second);
    }
    ASSERT_EQ(m.size(), fresh.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(m.entries()[i].key, fresh.entries()[i].key);
      EXPECT_EQ(m.entries()[i].value, fresh.entries()[i].value);
    }
    for (const std::uint64_t k : keys) {
      ASSERT_NE(m.find(k), nullptr);
      EXPECT_EQ(m.find(k)->value, fresh.find(k)->value);
    }
    EXPECT_EQ(m.find(rng.next()), nullptr);
    EXPECT_EQ(m.table_size(), table) << "fill " << fill;

    m.reset();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.table_size(), table);
    for (const std::uint64_t k : keys) EXPECT_FALSE(m.contains(k)) << k;
  }
}

// A bulk filter re-indexes into a table no smaller than the one the
// constructor presized: a sampler at capacity that evicts half its entries
// and refills must not shrink and regrow its table on every level raise.
// A map that grew past its presize shrinks back to fit, but not below it.
TEST(DenseMap, FilterNeverShrinksBelowThePresizedTable) {
  DenseMap<std::uint8_t> m(3601);
  const std::size_t presized = m.table_size();
  Xoshiro256 rng(3);
  for (int round = 0; round < 4; ++round) {
    while (m.size() < 3601) m.try_emplace(rng.next(), static_cast<std::uint8_t>(round));
    m.filter([](const auto& e) { return e.key % 2 == 0; });
    EXPECT_EQ(m.table_size(), presized) << "round " << round;
  }
  while (m.size() < 20'000) m.try_emplace(rng.next(), 0);
  EXPECT_GT(m.table_size(), presized);
  m.filter([](const auto& e) { return e.key % 16 == 0; });
  EXPECT_EQ(m.table_size(), presized);
  for (const auto& e : m) EXPECT_EQ(m.find(e.key), &e);

  // Growth and reserve() set no floor: a filter shrinks those to fit.
  DenseMap<std::uint8_t> unsized;
  for (int i = 0; i < 5'000; ++i) unsized.try_emplace(rng.next(), 0);
  const std::size_t grown = unsized.table_size();
  unsized.filter([](const auto& e) { return e.key % 64 == 0; });
  EXPECT_LT(unsized.table_size(), grown);

  DenseMap<std::uint8_t> reserved;
  reserved.reserve(3601);
  EXPECT_EQ(reserved.table_size(), presized);
  while (reserved.size() < 3601) reserved.try_emplace(rng.next(), 0);
  EXPECT_EQ(reserved.table_size(), presized);  // no regrow on the way
  reserved.filter([](const auto& e) { return e.key % 64 == 0; });
  EXPECT_LT(reserved.table_size(), presized);
  for (const auto& e : reserved) EXPECT_EQ(reserved.find(e.key), &e);
}

TEST(DenseMap, BytesUsedGrows) {
  DenseMap<int> small;
  DenseMap<int> big;
  for (std::uint64_t i = 0; i < 10'000; ++i) big.try_emplace(i, 0);
  EXPECT_GT(big.bytes_used(), small.bytes_used());
}

TEST(DenseMap, AdversarialCollidingKeys) {
  // Keys differing only in high bits; the internal mixer must spread them.
  DenseMap<int> m;
  for (std::uint64_t i = 0; i < 4096; ++i) m.try_emplace(i << 52, 0);
  EXPECT_EQ(m.size(), 4096u);
  for (std::uint64_t i = 0; i < 4096; ++i) EXPECT_TRUE(m.contains(i << 52));
}

// An unindexed map (append_sorted into a default-constructed one) against
// the eager map a decoder used to build: reserve(n), then try_emplace in
// the same order. Every mutator builds the table the eager map already
// has, so from the first mutation on the two maps must be identical.
using U64Map = DenseMap<std::uint64_t>;

std::vector<std::uint64_t> sorted_keys(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::set<std::uint64_t> keys;
  while (keys.size() < n) keys.insert(rng.next());
  return {keys.begin(), keys.end()};
}

U64Map unindexed_map(const std::vector<std::uint64_t>& keys) {
  U64Map m;
  m.reserve_entries(keys.size());
  for (const std::uint64_t k : keys) m.append_sorted(k, k ^ 0x55);
  return m;
}

U64Map eager_map(const std::vector<std::uint64_t>& keys) {
  U64Map m;
  m.reserve(keys.size());
  for (const std::uint64_t k : keys) m.try_emplace(k, k ^ 0x55);
  return m;
}

void expect_same_map(const U64Map& got, const U64Map& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.table_size(), want.table_size()) << what;
  // Never more memory: an eager map's table keeps the capacity of any
  // larger table it once had.
  EXPECT_LE(got.bytes_used(), want.bytes_used()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.entries()[i].key, want.entries()[i].key) << what << " entry " << i;
    EXPECT_EQ(got.entries()[i].value, want.entries()[i].value) << what << " entry " << i;
    EXPECT_EQ(got.find(got.entries()[i].key), &got.entries()[i]) << what << " entry " << i;
  }
}

TEST(DenseMap, EveryMutatorOnAnUnindexedMapMatchesAnEagerlyIndexedOne) {
  const std::vector<std::pair<std::string, std::function<void(U64Map&)>>> mutators = {
      {"try_emplace new", [](U64Map& m) { m.try_emplace(12345, 1); }},
      {"try_emplace held",
       [](U64Map& m) {
         if (!m.empty()) {
           EXPECT_FALSE(m.try_emplace(m.entries()[0].key, 1).second);
         }
         m.try_emplace(7, 7);
       }},
      {"filter", [](U64Map& m) { m.filter([](const auto& e) { return e.key % 3 != 0; }); }},
      {"filter none", [](U64Map& m) { m.filter([](const auto&) { return false; }); }},
      {"reserve less", [](U64Map& m) { m.reserve(m.size() / 2); }},
      {"reserve more", [](U64Map& m) { m.reserve(m.size() * 4 + 1); }},
      {"presize then filter",
       [](U64Map& m) {
         m.presize(m.size() * 2 + 1);
         m.filter([](const auto& e) { return e.key % 2 == 0; });
       }},
      {"reset", [](U64Map& m) { m.reset(); }},
      {"non-const find",
       [](U64Map& m) {
         if (!m.empty()) m.find(m.entries().back().key)->value = 99;
         EXPECT_EQ(m.find(12345), nullptr);
       }},
      {"clear", [](U64Map& m) { m.clear(); }},
  };
  for (const std::size_t n : {0u, 1u, 5u, 200u, 3000u}) {
    const auto keys = sorted_keys(n, n + 1);
    const auto extra = sorted_keys(2 * n + 20, n + 2);  // then grown past the first table
    for (const auto& [name, mutate] : mutators) {
      const std::string what = name + " on " + std::to_string(n);
      U64Map unindexed = unindexed_map(keys);
      const U64Map copy = unindexed;
      EXPECT_EQ(unindexed.table_size(), 0u) << what;
      EXPECT_EQ(copy.table_size(), 0u) << what << " (copy)";
      for (U64Map m : {unindexed, copy}) {
        U64Map eager = eager_map(keys);
        mutate(m);
        mutate(eager);
        expect_same_map(m, eager, what);
        for (const std::uint64_t k : extra) {
          EXPECT_EQ(m.try_emplace(k, k).second, eager.try_emplace(k, k).second) << what;
        }
        expect_same_map(m, eager, what + " then grown");
      }
    }
  }
}

TEST(DenseMap, ConstLookupsOnAnUnindexedMapBuildNoTable) {
  const auto keys = sorted_keys(500, 9);
  const U64Map m = unindexed_map(keys);
  for (const std::uint64_t k : keys) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(m.find(k)->value, k ^ 0x55);
    EXPECT_TRUE(m.contains(k));
    EXPECT_FALSE(m.contains(k + 1) && !std::binary_search(keys.begin(), keys.end(), k + 1));
  }
  for (const std::uint64_t absent : {std::uint64_t{0}, keys.front() - 1, keys.back() + 1,
                                     ~std::uint64_t{0}}) {
    EXPECT_EQ(m.find(absent), nullptr) << absent;
  }
  EXPECT_EQ(m.table_size(), 0u);
  const U64Map empty;
  EXPECT_FALSE(empty.contains(0));
  EXPECT_EQ(empty.table_size(), 0u);
}

TEST(DenseMap, AppendSortedRefusesKeysOutOfOrderAndIndexedMaps) {
  U64Map m;
  m.append_sorted(0, 0);  // the smallest key is fine first
  m.append_sorted(5, 0);
  EXPECT_THROW(m.append_sorted(5, 0), InvalidArgument);
  EXPECT_THROW(m.append_sorted(4, 0), InvalidArgument);
  m.try_emplace(9, 0);
  EXPECT_THROW(m.append_sorted(10, 0), InvalidArgument);
}

TEST(DenseSet, InsertSemantics) {
  DenseSet s;
  EXPECT_TRUE(s.insert(10));
  EXPECT_FALSE(s.insert(10));
  EXPECT_TRUE(s.insert(11));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(12));
}

TEST(DenseSet, ForEachVisitsAll) {
  DenseSet s;
  for (std::uint64_t i = 0; i < 500; ++i) s.insert(i * 7);
  std::vector<std::uint64_t> seen;
  s.for_each([&](std::uint64_t k) { seen.push_back(k); });
  EXPECT_EQ(seen.size(), 500u);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i * 7);
}

}  // namespace
}  // namespace ustream
