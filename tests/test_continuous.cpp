// The continuous-monitoring extension: periodic snapshot pushes, including
// behaviour over a faulty transport (drops make the estimate STALE, never
// wrong: it remains a prefix-union estimate that cannot overcount).
#include "distributed/continuous.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "baselines/exact.h"
#include "common/error.h"
#include "common/stats.h"
#include "distributed/faulty_channel.h"
#include "stream/partitioner.h"

namespace ustream {
namespace {

TEST(Continuous, EmptyMonitorEstimatesZero) {
  ContinuousUnionMonitor mon(3, 100, EstimatorParams::for_guarantee(0.2, 0.1, 1));
  EXPECT_DOUBLE_EQ(mon.estimate(), 0.0);
}

TEST(Continuous, FlushedEstimateMatchesOneShot) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 2);
  const auto w = make_distributed_workload(
      {.sites = 4, .union_distinct = 30'000, .overlap = 0.3, .duplication = 1.5, .seed = 1});
  ContinuousUnionMonitor mon(4, 500, params);
  F0Estimator central(params);
  for (std::size_t s = 0; s < 4; ++s) {
    for (const Item& item : w.site_streams[s]) {
      mon.observe(s, item.label);
      central.add(item.label);
    }
  }
  mon.flush();
  EXPECT_DOUBLE_EQ(mon.estimate(), central.estimate());
}

TEST(Continuous, EstimateNeverExceedsFinalByMuch) {
  // Before the flush, the referee only knows prefixes: the live estimate
  // must track below/at the flushed value (up to estimator noise).
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 3);
  ContinuousUnionMonitor mon(2, 1000, params);
  Xoshiro256 rng(2);
  for (int i = 0; i < 50'000; ++i) mon.observe(static_cast<std::size_t>(i % 2), rng.next());
  const double live = mon.estimate();
  mon.flush();
  const double final_est = mon.estimate();
  EXPECT_LE(live, final_est * 1.15);
  EXPECT_LT(relative_error(final_est, 50'000.0), 0.1);
}

TEST(Continuous, SnapshotCountMatchesInterval) {
  const auto params = EstimatorParams::for_guarantee(0.3, 0.2, 4);
  ContinuousUnionMonitor mon(1, 100, params);
  for (int i = 0; i < 1000; ++i) mon.observe(0, static_cast<std::uint64_t>(i));
  EXPECT_EQ(mon.snapshots_received(), 10u);
  mon.flush();                                  // nothing pending
  EXPECT_EQ(mon.snapshots_received(), 10u);
  mon.observe(0, 9999);
  mon.flush();
  EXPECT_EQ(mon.snapshots_received(), 11u);
}

TEST(Continuous, SmallerIntervalCostsMoreBytes) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 5);
  std::uint64_t bytes_fine = 0, bytes_coarse = 0;
  for (std::uint64_t interval : {std::uint64_t{100}, std::uint64_t{2000}}) {
    ContinuousUnionMonitor mon(2, interval, params);
    Xoshiro256 rng(3);
    for (int i = 0; i < 20'000; ++i) mon.observe(static_cast<std::size_t>(i % 2), rng.next());
    mon.flush();
    (interval == 100 ? bytes_fine : bytes_coarse) = mon.channel_stats().total_bytes;
  }
  EXPECT_GT(bytes_fine, 5 * bytes_coarse);
}

TEST(Continuous, RejectsBadConstruction) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 6);
  EXPECT_THROW(ContinuousUnionMonitor(0, 10, params), InvalidArgument);
  EXPECT_THROW(ContinuousUnionMonitor(2, 0, params), InvalidArgument);
}

TEST(Continuous, ObserveOutOfRangeSiteThrows) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 7);
  ContinuousUnionMonitor mon(2, 10, params);
  EXPECT_THROW(mon.observe(5, 1), std::out_of_range);
}

TEST(Continuous, DroppedSnapshotsNeverOvercount) {
  // Under any drop probability the live answer is an estimate of a UNION
  // OF PREFIXES of what was truly observed — so up to estimator noise
  // (eps = 0.1, plus slack) it can never exceed the exact distinct count.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 8);
  for (double p : {0.05, 0.2, 0.5}) {
    ContinuousUnionMonitor mon(
        4, 250, params, std::make_unique<FaultyChannel>(4, FaultSpec::dropping(p), 81));
    ExactDistinctCounter exact;
    Xoshiro256 rng(9);
    for (int i = 0; i < 40'000; ++i) {
      const std::uint64_t label = rng.below(30'000);
      mon.observe(static_cast<std::size_t>(i % 4), label);
      exact.add(label);
      if (i % 5000 == 4999) {
        EXPECT_LE(mon.estimate(), 1.15 * static_cast<double>(exact.count()))
            << "p=" << p << " at item " << i;
      }
    }
    EXPECT_LE(mon.estimate(), 1.15 * static_cast<double>(exact.count())) << "p=" << p;
  }
}

TEST(Continuous, StalenessGrowsWithDropProbabilityAsPredicted) {
  // With drop probability p and report interval I, the tail of each site's
  // stream waits for a successful push: the referee's lag beyond the
  // no-fault residual is ~ I * p/(1-p) items on average (consecutive
  // dropped pushes are geometric). Check monotonicity and a loose band.
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 10);
  const std::size_t sites = 16;
  const std::uint64_t interval = 200;
  const int items = 60'000;
  double base_mean = 0.0;
  std::vector<double> means;
  for (double p : {0.0, 0.3, 0.6}) {
    ContinuousUnionMonitor mon(
        sites, interval, params,
        std::make_unique<FaultyChannel>(sites, FaultSpec::dropping(p), 82));
    Xoshiro256 rng(11);
    for (int i = 0; i < items; ++i) {
      mon.observe(static_cast<std::size_t>(i) % sites, rng.next());
    }
    const auto lag = mon.staleness();
    const double mean =
        std::accumulate(lag.begin(), lag.end(), 0.0) / static_cast<double>(sites);
    if (p == 0.0) base_mean = mean;
    means.push_back(mean);
    if (p > 0.0) {
      const double predicted_extra = static_cast<double>(interval) * p / (1.0 - p);
      const double extra = mean - base_mean;
      EXPECT_GT(extra, 0.2 * predicted_extra) << "p=" << p;
      EXPECT_LT(extra, 5.0 * predicted_extra) << "p=" << p;
    }
  }
  EXPECT_LT(means[0], means[1]);
  EXPECT_LT(means[1], means[2]);
}

TEST(Continuous, FlushRetriesThroughHeavyDrops) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 12);
  RetryPolicy policy;
  policy.max_attempts_per_site = 16;
  policy.sleep_on_backoff = false;
  ContinuousUnionMonitor faulty(
      3, 500, params, std::make_unique<FaultyChannel>(3, FaultSpec::dropping(0.5), 83),
      policy);
  ContinuousUnionMonitor clean(3, 500, params);
  Xoshiro256 rng(13);
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t label = rng.next();
    faulty.observe(static_cast<std::size_t>(i % 3), label);
    clean.observe(static_cast<std::size_t>(i % 3), label);
  }
  clean.flush();
  const CollectReport& report = faulty.flush();
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_GT(report.retries, 0u);
  // Converged flush == the no-fault answer: retries recovered every drop.
  EXPECT_DOUBLE_EQ(faulty.estimate(), clean.estimate());
  for (auto lag : faulty.staleness()) EXPECT_EQ(lag, 0u);
}

// Re-encodes the first send of each new epoch from site 0, for frames of
// `kind`, with a payload no sketch decodes under a valid CRC: the ledger
// accepts the frame and only the referee's sink can refuse it.
class GarblingTransport : public Transport {
 public:
  GarblingTransport(std::size_t sites, PayloadKind kind) : inner_(sites), kind_(kind) {}

  void send(std::size_t from_site, std::vector<std::uint8_t> message) override {
    const Frame frame = frame_decode(message);
    if (from_site == 0 && frame.header.kind == kind_ && frame.header.epoch > last_epoch_) {
      last_epoch_ = frame.header.epoch;
      message = frame_encode(frame.header, std::vector<std::uint8_t>{1, 2, 3});
      ++garbled_;
    }
    inner_.send(from_site, std::move(message));
  }
  std::vector<std::vector<std::uint8_t>> drain() override { return inner_.drain(); }
  ChannelStats stats() const override { return inner_.stats(); }
  std::size_t num_sites() const noexcept override { return inner_.num_sites(); }

  std::uint64_t garbled() const noexcept { return garbled_; }

 private:
  Channel inner_;
  PayloadKind kind_;
  std::uint32_t last_epoch_ = 0;
  std::uint64_t garbled_ = 0;
};

TEST(Continuous, RefusedSnapshotKeepsFlushRetrying) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 18);
  RetryPolicy policy;
  policy.sleep_on_backoff = false;
  auto transport = std::make_unique<GarblingTransport>(2, PayloadKind::kF0Estimator);
  const GarblingTransport& garbler = *transport;
  ContinuousUnionMonitor mon(2, 1000, params, std::move(transport), policy);
  ContinuousUnionMonitor clean(2, 1000, params);
  Xoshiro256 rng(19);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t label = rng.next();
    mon.observe(static_cast<std::size_t>(i % 2), label);
    clean.observe(static_cast<std::size_t>(i % 2), label);
  }
  clean.flush();
  const CollectReport& report = mon.flush();
  // Every refused snapshot stayed owed: the retry of the last epoch landed.
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_EQ(report.per_site[0].accepted_epoch, 3u);
  EXPECT_EQ(report.frames_quarantined, garbler.garbled());
  EXPECT_EQ(mon.staleness()[0], 0u);
  EXPECT_DOUBLE_EQ(mon.estimate(), clean.estimate());
}

TEST(Continuous, DuplicatedSnapshotsMergeOnce) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 14);
  ContinuousUnionMonitor noisy(
      2, 400, params,
      std::make_unique<FaultyChannel>(2, FaultSpec{.duplicate = 1.0, .reorder = 0.5}, 84));
  ContinuousUnionMonitor clean(2, 400, params);
  Xoshiro256 rng(15);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t label = rng.next();
    noisy.observe(static_cast<std::size_t>(i % 2), label);
    clean.observe(static_cast<std::size_t>(i % 2), label);
  }
  noisy.flush();
  clean.flush();
  EXPECT_DOUBLE_EQ(noisy.estimate(), clean.estimate());
  EXPECT_GT(noisy.status().duplicates_dropped, 0u);
  EXPECT_EQ(noisy.status().frames_quarantined, 0u);
}

TEST(Continuous, CorruptedSnapshotsAreQuarantinedNotMerged) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 16);
  ContinuousUnionMonitor mon(
      2, 300, params,
      std::make_unique<FaultyChannel>(2, FaultSpec::corrupting(0.5), 85));
  ExactDistinctCounter exact;
  Xoshiro256 rng(17);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t label = rng.below(15'000);
    mon.observe(static_cast<std::size_t>(i % 2), label);
    exact.add(label);
  }
  EXPECT_GT(mon.status().frames_quarantined, 0u);
  // Quarantine means the estimate stays a sane prefix-union answer.
  EXPECT_LE(mon.estimate(), 1.15 * static_cast<double>(exact.count()));
}

TEST(Continuous, IncrementalEstimateMatchesFullRemergeThroughout) {
  // The query cache folds only sites whose snapshot epoch moved; the answer
  // must equal the copy-everything reference path at EVERY point, not just
  // at the end. Checkpoints interleave queries with pushes so the cache is
  // exercised warm (no change), cold (first fold) and partially dirty.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 18);
  const std::size_t sites = 8;
  ContinuousUnionMonitor mon(sites, 64, params);
  Xoshiro256 rng(19);
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
  for (int i = 0; i < 40'000; ++i) {
    mon.observe(rng.below(sites), rng.below(25'000));
    if (i % 1000 == 999) {
      ASSERT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge()) << "at item " << i;
      // A second query with no new snapshots must serve the cache verbatim.
      ASSERT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge()) << "at item " << i;
    }
  }
  mon.flush();
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
}

TEST(Continuous, IncrementalEstimateMatchesFullRemergeOverFaultyTransport) {
  // Drops, duplicates and corruption shuffle WHICH epochs reach the
  // referee; the epoch-tagged cache must stay exact regardless (stale or
  // quarantined snapshots simply never dirty their site's tag).
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 20);
  const std::size_t sites = 4;
  RetryPolicy policy;
  policy.max_attempts_per_site = 16;
  policy.sleep_on_backoff = false;
  ContinuousUnionMonitor mon(
      sites, 200, params, std::make_unique<FaultyChannel>(sites, FaultSpec::chaos(0.3), 86),
      policy);
  Xoshiro256 rng(21);
  for (int i = 0; i < 30'000; ++i) {
    mon.observe(rng.below(sites), rng.next());
    if (i % 2500 == 2499) {
      ASSERT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge()) << "at item " << i;
    }
  }
  mon.flush();
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
}

// ---------------------------------------------------------------------------
// Delta protocol (DESIGN.md §12): threshold-silent sites, delta frames,
// full-frame resync on chain breaks.

constexpr ContinuousMonitorOptions kDeltaOpts{.delta_protocol = true, .growth = 0.25};

TEST(ContinuousDelta, SessionSendsFullThenDeltasThenResync) {
  DeltaSiteSession session(EstimatorParams::for_guarantee(0.2, 0.1, 30), 0.25);
  // First crossing emits a full frame (no base yet).
  std::uint64_t label = 0;
  while (!session.add(label)) ++label;
  auto first = session.next_update();
  EXPECT_FALSE(first.is_delta);
  EXPECT_EQ(first.epoch, 1u);
  session.delivered();
  EXPECT_FALSE(session.dirty());
  // Next crossing rides the chain as a delta.
  while (!session.add(++label)) {
  }
  auto second = session.next_update();
  EXPECT_TRUE(second.is_delta);
  EXPECT_EQ(second.epoch, 2u);
  session.delivered();
  // A lost transmission breaks the chain: the next update re-bases full.
  while (!session.add(++label)) {
  }
  auto third = session.next_update();
  EXPECT_TRUE(third.is_delta);
  session.lost();
  EXPECT_TRUE(session.needs_full());
  auto resync = session.next_update();
  EXPECT_FALSE(resync.is_delta);
  session.delivered();
  EXPECT_EQ(session.resyncs(), 1u);
  EXPECT_EQ(session.fulls_sent(), 2u);
  EXPECT_EQ(session.deltas_sent(), 2u);
}

TEST(ContinuousDelta, DeltaReconstructionIsBitIdentical) {
  // The referee applying (full, delta, delta, ...) must hold the SAME bytes
  // as a full serialization of the site's sketch at each acked point.
  DeltaSiteSession session(EstimatorParams::for_guarantee(0.15, 0.05, 31), 0.25);
  std::optional<F0Estimator> mirror;
  Xoshiro256 rng(32);
  for (int i = 0; i < 30'000; ++i) {
    if (!session.add(rng.below(20'000))) continue;
    const auto out = session.next_update();
    if (out.is_delta) {
      mirror->apply_delta(std::span<const std::uint8_t>(out.payload));
    } else {
      mirror = F0Estimator::deserialize(std::span<const std::uint8_t>(out.payload));
    }
    session.delivered();
    ASSERT_EQ(mirror->serialize(), session.sketch().serialize()) << "at item " << i;
  }
}

TEST(ContinuousDelta, EstimateMatchesFullRemergeAtEveryCheckpoint) {
  // Satellite property: with the delta protocol on a clean transport the
  // incremental estimate equals the copy-everything reference at every
  // checkpoint, and the flushed answer equals the one-shot central fold.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 33);
  const std::size_t sites = 6;
  ContinuousUnionMonitor mon(sites, 64, params, kDeltaOpts);
  F0Estimator central(params);
  Xoshiro256 rng(34);
  for (int i = 0; i < 40'000; ++i) {
    const std::uint64_t label = rng.below(25'000);
    mon.observe(rng.below(sites), label);
    central.add(label);
    if (i % 1000 == 999) {
      ASSERT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge()) << "at item " << i;
    }
  }
  mon.flush();
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
  EXPECT_DOUBLE_EQ(mon.estimate(), central.estimate());
  EXPECT_GT(mon.deltas_sent(), 0u);
  EXPECT_GT(mon.suppressed_updates(), mon.deltas_sent());
  EXPECT_EQ(mon.delta_resyncs(), 0u);
}

TEST(ContinuousDelta, ChaosNeverOvercountsAndDropsForceResyncs) {
  // Satellite property: under FaultyChannel chaos every broken delta chain
  // falls back to a full-frame resync, the estimate stays a prefix-union
  // answer (never overcounts beyond estimator noise) at EVERY checkpoint,
  // and the incremental path still equals full remerge.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 35);
  const std::size_t sites = 4;
  RetryPolicy policy;
  policy.max_attempts_per_site = 16;
  policy.sleep_on_backoff = false;
  ContinuousUnionMonitor mon(
      sites, 64, params, std::make_unique<FaultyChannel>(sites, FaultSpec::dropping(0.4), 87),
      policy, kDeltaOpts);
  ExactDistinctCounter exact;
  Xoshiro256 rng(36);
  for (int i = 0; i < 40'000; ++i) {
    const std::uint64_t label = rng.below(25'000);
    mon.observe(rng.below(sites), label);
    exact.add(label);
    if (i % 2500 == 2499) {
      ASSERT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge()) << "at item " << i;
      ASSERT_LE(mon.estimate(), 1.15 * static_cast<double>(exact.count()))
          << "at item " << i;
    }
  }
  EXPECT_GT(mon.delta_resyncs(), 0u);  // drops really broke chains
  const CollectReport& report = mon.flush();
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
  EXPECT_LE(mon.estimate(), 1.15 * static_cast<double>(exact.count()));
  for (auto lag : mon.staleness()) EXPECT_EQ(lag, 0u);
}

TEST(ContinuousDelta, FlushedDeltaRunMatchesSnapshotProtocol) {
  // Same streams through both protocol variants: after a converged flush
  // the referee state is identical (sampler state is a pure function of
  // the absorbed label set), while the delta variant spends far fewer
  // bytes and messages.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 37);
  const std::size_t sites = 4;
  ContinuousUnionMonitor delta_mon(sites, 64, params, kDeltaOpts);
  ContinuousUnionMonitor snap_mon(sites, 64, params);
  Xoshiro256 rng(38);
  for (int i = 0; i < 60'000; ++i) {
    const std::uint64_t label = rng.below(30'000);
    const auto site = static_cast<std::size_t>(rng.below(sites));
    delta_mon.observe(site, label);
    snap_mon.observe(site, label);
  }
  delta_mon.flush();
  snap_mon.flush();
  EXPECT_DOUBLE_EQ(delta_mon.estimate(), snap_mon.estimate());
  EXPECT_LT(delta_mon.channel_stats().total_bytes, snap_mon.channel_stats().total_bytes / 5);
  EXPECT_LT(delta_mon.channel_stats().messages, snap_mon.channel_stats().messages / 2);
}

TEST(ContinuousDelta, CorruptDeltasQuarantineAndResync) {
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 39);
  const std::size_t sites = 2;
  RetryPolicy policy;
  policy.max_attempts_per_site = 16;
  policy.sleep_on_backoff = false;
  ContinuousUnionMonitor mon(
      sites, 64, params,
      std::make_unique<FaultyChannel>(sites, FaultSpec::corrupting(0.3), 88), policy,
      kDeltaOpts);
  ExactDistinctCounter exact;
  Xoshiro256 rng(40);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t label = rng.below(15'000);
    mon.observe(static_cast<std::size_t>(i) % sites, label);
    exact.add(label);
  }
  EXPECT_GT(mon.status().frames_quarantined, 0u);
  EXPECT_LE(mon.estimate(), 1.15 * static_cast<double>(exact.count()));
  const CollectReport& report = mon.flush();
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
}

TEST(ContinuousDelta, RefusedDeltaCountsOneResyncAndNoQuarantine) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 45);
  RetryPolicy policy;
  policy.sleep_on_backoff = false;
  auto transport = std::make_unique<GarblingTransport>(2, PayloadKind::kF0Delta);
  const GarblingTransport& garbler = *transport;
  ContinuousUnionMonitor mon(2, 64, params, std::move(transport), policy, kDeltaOpts);
  Xoshiro256 rng(46);
  for (int i = 0; i < 20'000; ++i) mon.observe(static_cast<std::size_t>(i % 2), rng.next());
  ASSERT_GT(garbler.garbled(), 0u);
  // The TCP referee's tally: a delta the sink refuses is one resync.
  EXPECT_EQ(mon.status().resyncs, garbler.garbled());
  EXPECT_EQ(mon.status().frames_quarantined, 0u);
  const CollectReport& report = mon.flush();
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_DOUBLE_EQ(mon.estimate(), mon.estimate_full_remerge());
}

// ---------------------------------------------------------------------------
// Sliding-window continuous protocol (kWindowedDelta op-replay frames).

TEST(ContinuousWindowed, RefusedFullFrameKeepsFlushRetrying) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 47);
  RetryPolicy policy;
  policy.sleep_on_backoff = false;
  auto transport = std::make_unique<GarblingTransport>(2, PayloadKind::kWindowedF0);
  const GarblingTransport& garbler = *transport;
  ContinuousWindowedMonitor mon(2, 64, params, std::move(transport), policy);
  Xoshiro256 rng(48);
  std::uint64_t t = 0;
  for (int i = 0; i < 4000; ++i) {
    mon.observe(static_cast<std::size_t>(i % 2), rng.below(3000), t++);
  }
  const CollectReport& report = mon.flush();
  EXPECT_TRUE(report.complete()) << report.summary();
  EXPECT_EQ(report.frames_quarantined, garbler.garbled());
  for (std::uint64_t start : {std::uint64_t{0}, t / 2, t}) {
    EXPECT_DOUBLE_EQ(mon.estimate(start), mon.site_estimate(start)) << start;
  }
}

TEST(ContinuousWindowed, MirrorsTrackSitesBitIdentically) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 41);
  const std::size_t sites = 3;
  ContinuousWindowedMonitor mon(sites, 128, params);
  Xoshiro256 rng(42);
  std::uint64_t t = 0;
  for (int i = 0; i < 30'000; ++i) {
    mon.observe(rng.below(sites), rng.below(10'000), t++);
  }
  mon.flush();
  // After a converged flush the referee answers exactly what a zero-lag
  // union over the live site estimators would, for any window start.
  for (std::uint64_t start : {std::uint64_t{0}, t / 2, t - 500, t}) {
    EXPECT_DOUBLE_EQ(mon.estimate(start), mon.site_estimate(start)) << start;
  }
  EXPECT_GT(mon.deltas_sent(), 0u);
}

TEST(ContinuousWindowed, DropsForceFullResyncAndConverge) {
  const auto params = EstimatorParams::for_guarantee(0.2, 0.1, 43);
  const std::size_t sites = 2;
  RetryPolicy policy;
  policy.max_attempts_per_site = 16;
  policy.sleep_on_backoff = false;
  ContinuousWindowedMonitor mon(
      sites, 64, params, std::make_unique<FaultyChannel>(sites, FaultSpec::dropping(0.4), 89),
      policy);
  Xoshiro256 rng(44);
  std::uint64_t t = 0;
  for (int i = 0; i < 20'000; ++i) {
    mon.observe(static_cast<std::size_t>(i) % sites, rng.below(8'000), t++);
  }
  EXPECT_GT(mon.fulls_sent(), sites);  // drops forced at least one resync
  const CollectReport& report = mon.flush();
  EXPECT_TRUE(report.complete()) << report.summary();
  for (std::uint64_t start : {std::uint64_t{0}, t / 2, t}) {
    EXPECT_DOUBLE_EQ(mon.estimate(start), mon.site_estimate(start)) << start;
  }
}

}  // namespace
}  // namespace ustream
