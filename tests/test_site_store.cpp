// SiteSketchStore, the referee's one per-site store: seeded random event
// sequences (empty fills, deltas, extending and non-extending full
// replacements, group re-tags, rejected frames) over F0Estimator and
// FreqSketch. After every event the cached union and every cached group
// union must serialize byte-identically to MergeEngine::reduce /
// reduce_groups over the current slots — the fold-or-rebuild rule may only
// ever save work, never change an answer.
#include "distributed/site_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/f0_estimator.h"
#include "core/merge_engine.h"
#include "distributed/collect.h"
#include "freq/freq_sketch.h"

namespace ustream {
namespace {

constexpr std::size_t kSites = 6;
constexpr std::uint16_t kGroups = 3;

struct F0Kind {
  using Sketch = F0Estimator;
  static constexpr bool kDeltas = true;
  static Sketch fresh() { return Sketch({.capacity = 48, .copies = 3, .seed = 11}); }
  static Sketch foreign() { return Sketch({.capacity = 48, .copies = 3, .seed = 12}); }
};

struct FreqKind {
  using Sketch = FreqSketch;
  static constexpr bool kDeltas = false;
  static Sketch fresh() {
    return Sketch(FreqConfig{.depth = 3, .width_log2 = 6, .heavy_capacity = 8, .seed = 11});
  }
  static Sketch foreign() {
    return Sketch(FreqConfig{.depth = 3, .width_log2 = 6, .heavy_capacity = 8, .seed = 12});
  }
};

// The store under test next to the state it must hold: each site's live
// sketch (its stream so far), the slot the referee should keep for it, and
// its group tag.
template <typename Kind>
class Scenario {
 public:
  using Sketch = typename Kind::Sketch;

  explicit Scenario(std::uint64_t seed) : rng_(seed), local_(kSites, Kind::fresh()) {}

  void step() {
    const std::size_t site = rng_.below(kSites);
    switch (rng_.below(6)) {
      case 0:  // grow the stream, ship a full frame (an empty fill the first time)
        grow(site);
        send_full(site, groups_[site]);
        break;
      case 1:  // grow the stream, ship a delta against the slot
        if (!Kind::kDeltas || !slots_[site]) return send_full(site, groups_[site]);
        if constexpr (Kind::kDeltas) {
          grow(site);
          ASSERT_TRUE(store_.accept(site, groups_[site], PayloadKind::kF0Delta,
                                    local_[site].serialize_delta(*slots_[site])));
          slots_[site] = local_[site];
        }
        break;
      case 2:  // the site restarts with a smaller state: never an extension
        local_[site] = Kind::fresh();
        grow(site);
        send_full(site, groups_[site]);
        break;
      case 3:  // the site moves to another group
        send_full(site, static_cast<std::uint16_t>(rng_.below(kGroups)));
        break;
      case 4: {  // deltas the store must refuse: no base, or bytes that do not apply
        const std::vector<std::uint8_t> garbage{1, 2, 3, 4};
        EXPECT_FALSE(store_.accept(site, groups_[site], PayloadKind::kF0Delta, garbage));
        break;
      }
      default: {  // a site built under other parameters: refused once anything is held
        Sketch alien = Kind::foreign();
        alien.add(rng_.next());
        const bool held = std::any_of(slots_.begin(), slots_.end(),
                                      [](const auto& s) { return s.has_value(); });
        const bool ok = store_.accept(site, groups_[site], PayloadKind::kOpaque,
                                      alien.serialize());
        EXPECT_NE(ok, held);
        if (ok) {  // the alien became the reference; start over without it
          local_.assign(kSites, Kind::fresh());
          slots_.assign(kSites, std::nullopt);
          store_.take_slots();
        }
        break;
      }
    }
  }

  // Every cache against the reference reductions over the expected slots.
  void check() {
    CollectReport report;
    report.sites_total = kSites;
    report.per_site.resize(kSites);
    for (std::size_t s = 0; s < kSites; ++s) {
      report.per_site[s].reported = slots_[s].has_value();
      report.per_site[s].group = groups_[s];
    }
    auto copies = slots_;
    const std::optional<Sketch> all = MergeEngine::shared().reduce(std::move(copies));
    copies = slots_;
    const auto groups = reduce_groups<Sketch>(report, std::move(copies));
    store_.read([&](const auto& view) {
      for (std::size_t s = 0; s < kSites; ++s) {
        const Sketch* got = view.site(s);
        ASSERT_EQ(got != nullptr, slots_[s].has_value()) << "site " << s;
        if (got != nullptr) {
          ASSERT_EQ(got->serialize(), slots_[s]->serialize()) << "site " << s;
        }
      }
      const Sketch* got_all = view.all();
      ASSERT_EQ(got_all != nullptr, all.has_value());
      if (got_all != nullptr) {
        ASSERT_EQ(got_all->serialize(), all->serialize());
      }
      for (std::uint16_t g = 0; g < kGroups; ++g) {
        const GroupSketch<Sketch>* want = nullptr;
        for (const auto& gs : groups) {
          if (gs.group == g) want = &gs;
        }
        const Sketch* got = view.group(g);
        ASSERT_EQ(got != nullptr, want != nullptr) << "group " << g;
        if (got != nullptr) {
          ASSERT_EQ(got->serialize(), want->sketch.serialize()) << "group " << g;
        }
      }
    });
  }

 private:
  void grow(std::size_t site) {
    const std::uint64_t n = 1 + rng_.below(60);
    for (std::uint64_t i = 0; i < n; ++i) local_[site].add(rng_.below(3000));
  }

  void send_full(std::size_t site, std::uint16_t group) {
    ASSERT_TRUE(store_.accept(site, group, PayloadKind::kOpaque, local_[site].serialize()));
    slots_[site] = local_[site];
    groups_[site] = group;
  }

  Xoshiro256 rng_;
  SiteSketchStore<Sketch> store_{kSites};
  std::vector<Sketch> local_;
  std::vector<std::optional<Sketch>> slots_ = std::vector<std::optional<Sketch>>(kSites);
  std::vector<std::uint16_t> groups_ = std::vector<std::uint16_t>(kSites, 0);
};

template <typename Kind>
class SiteStoreTest : public ::testing::Test {};
using Kinds = ::testing::Types<F0Kind, FreqKind>;
TYPED_TEST_SUITE(SiteStoreTest, Kinds, );

TYPED_TEST(SiteStoreTest, CachesMatchReductionAfterEveryEvent) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Scenario<TypeParam> scenario(seed);
    for (int i = 0; i < 150; ++i) {
      scenario.step();
      scenario.check();
      if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed << " event " << i;
    }
  }
}

// Reads only every few events, so folds queue up between reads and the
// same site can change several times before its pending fold lands.
TYPED_TEST(SiteStoreTest, CachesMatchReductionWithQueuedFolds) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    Scenario<TypeParam> scenario(seed);
    for (int i = 0; i < 300; ++i) {
      scenario.step();
      if (i % 7 == 6) scenario.check();
      if (::testing::Test::HasFatalFailure()) FAIL() << "seed " << seed << " event " << i;
    }
  }
}

// The caches rebuild through merge_many and fold queued sites with
// merge(slot, pool) where the sketch has them; either way a cache must
// serialize exactly like the plain two-way fold of its slots in site order.
TYPED_TEST(SiteStoreTest, CachesEqualTheTwoWayFoldOfTheSlots) {
  using Sketch = typename TypeParam::Sketch;
  constexpr std::size_t kMany = 16;
  SiteSketchStore<Sketch> store(kMany);
  std::vector<Sketch> local(kMany, TypeParam::fresh());
  std::vector<std::uint16_t> groups(kMany);
  Xoshiro256 rng(21);
  const auto ship = [&](std::size_t site) {
    for (int k = 0; k < 200; ++k) local[site].add(rng.below(20'000));
    ASSERT_TRUE(store.accept(site, groups[site], PayloadKind::kOpaque, local[site].serialize()));
  };
  const auto expect_folds = [&] {
    const auto fold = [&](std::optional<std::uint16_t> group) {
      std::optional<Sketch> acc;
      for (std::size_t s = 0; s < kMany; ++s) {
        if (group && groups[s] != *group) continue;
        if (acc) {
          acc->merge(local[s]);
        } else {
          acc.emplace(local[s]);
        }
      }
      return acc->serialize();
    };
    store.read([&](const auto& view) {
      EXPECT_EQ(view.all()->serialize(), fold(std::nullopt));
      for (std::uint16_t g = 0; g < kGroups; ++g) {
        EXPECT_EQ(view.group(g)->serialize(), fold(g)) << "group " << g;
      }
    });
  };
  for (std::size_t s = 0; s < kMany; ++s) {
    groups[s] = static_cast<std::uint16_t>(s % kGroups);
    ship(s);
  }
  expect_folds();  // first reads: every cache is rebuilt from the slots
  for (std::size_t s = 0; s < kMany; s += 3) ship(s);
  expect_folds();  // F0 slots that only grew are queued folds
  groups[4] = static_cast<std::uint16_t>((groups[4] + 1) % kGroups);
  ship(4);
  expect_folds();  // a re-tag rebuilds the groups it touches
}

TEST(SiteStore, RestartWithSmallerStateNeverInflatesTheUnion) {
  SiteSketchStore<F0Estimator> store(2);
  F0Estimator big = F0Kind::fresh(), small = F0Kind::fresh(), other = F0Kind::fresh();
  for (std::uint64_t x = 0; x < 5000; ++x) big.add(x);
  for (std::uint64_t x = 0; x < 10; ++x) small.add(x);
  for (std::uint64_t x = 100'000; x < 100'020; ++x) other.add(x);
  ASSERT_TRUE(store.put(0, 0, big));
  ASSERT_TRUE(store.put(1, 0, other));
  const auto estimate = [&store] {
    return store.read([](const auto& view) { return view.all()->estimate(); });
  };
  F0Estimator before = big, after = small;
  before.merge(other);
  after.merge(other);
  EXPECT_DOUBLE_EQ(estimate(), before.estimate());
  ASSERT_TRUE(store.put(0, 0, small));  // site 0 restarted
  EXPECT_DOUBLE_EQ(estimate(), after.estimate());
  EXPECT_LT(after.estimate(), before.estimate());
}

TEST(SiteStore, RefusedFramesLeaveSlotsUntouched) {
  SiteSketchStore<F0Estimator> store(2);
  F0Estimator est = F0Kind::fresh();
  est.add(7);
  EXPECT_FALSE(store.accept(0, 0, PayloadKind::kF0Delta, est.serialize()));  // no base
  EXPECT_FALSE(store.accept(5, 0, PayloadKind::kF0Estimator, est.serialize()));  // no such site
  EXPECT_FALSE(store.accept(0, 0, PayloadKind::kF0Estimator, std::vector<std::uint8_t>{9}));
  EXPECT_FALSE(store.has(0));
  ASSERT_TRUE(store.accept(0, 4, PayloadKind::kF0Estimator, est.serialize()));
  EXPECT_FALSE(store.put(1, 4, F0Kind::foreign()));  // other seed: never joins the union
  EXPECT_FALSE(store.has(1));
  store.read([&](const auto& view) {
    EXPECT_EQ(view.all()->serialize(), est.serialize());
    EXPECT_EQ(view.group(4)->serialize(), est.serialize());
    EXPECT_EQ(view.group(5), nullptr);  // a tag nobody carries has no union
  });
}

// The serve paths' shape: the payload sink writes while the admin /query
// handler reads the caches from another thread. Run under the tsan preset.
TEST(SiteStore, ConcurrentSinkAndQueriesAgreeWithTheFinalReduction) {
  constexpr std::size_t kLiveSites = 4;
  SiteSketchStore<F0Estimator> store(kLiveSites);
  std::vector<F0Estimator> local(kLiveSites, F0Kind::fresh());
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      store.read([](const auto& view) {
        if (const F0Estimator* all = view.all()) {
          EXPECT_GT(all->estimate(), 0.0);
        }
        (void)view.group(1);
      });
    }
  });
  Xoshiro256 rng(7);
  for (int i = 0; i < 400; ++i) {
    const std::size_t site = rng.below(kLiveSites);
    for (int k = 0; k < 20; ++k) local[site].add(rng.next());
    const auto group = static_cast<std::uint16_t>(site % 2);
    EXPECT_TRUE(store.accept(site, group, PayloadKind::kF0Estimator, local[site].serialize()));
  }
  done = true;
  reader.join();
  auto slots = store.read([](const auto& view) {
    SiteSketchStore<F0Estimator>::Slots copy(view.sites());
    for (std::size_t s = 0; s < view.sites(); ++s) {
      if (view.site(s) != nullptr) copy[s] = *view.site(s);
    }
    return copy;
  });
  const auto expected = MergeEngine::shared().reduce(std::move(slots));
  ASSERT_TRUE(expected.has_value());
  store.read([&](const auto& view) { EXPECT_EQ(view.all()->serialize(), expected->serialize()); });
}

}  // namespace
}  // namespace ustream
