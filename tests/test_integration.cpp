// Cross-module integration: generator -> partitioner -> distributed
// protocol -> referee, plus cross-checks between independent estimator
// implementations (point vs range, sketch vs exact, set expressions vs truth).
#include <gtest/gtest.h>

#include "baselines/exact.h"
#include "baselines/factory.h"
#include "common/stats.h"
#include "core/range_sampler.h"
#include "distributed/protocols.h"
#include "netmon/monitor.h"
#include "netmon/trace_gen.h"
#include "query/service.h"
#include "stream/partitioner.h"
#include "stream/trace_io.h"
#include "stream/transforms.h"

namespace ustream {
namespace {

TEST(Integration, SketchTracksExactAcrossGrowth) {
  // Stream grows 10 -> 1M items; at checkpoints the sketch estimate must
  // track the exact counter within epsilon.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.01, 1);
  F0Estimator sketch(params);
  ExactDistinctCounter exact;
  Xoshiro256 rng(1);
  std::size_t next_checkpoint = 10;
  for (std::size_t i = 1; i <= 1'000'000; ++i) {
    // Zipf-ish duplicate structure via bounded random labels.
    const std::uint64_t label = rng.below(400'000);
    sketch.add(label);
    exact.add(label);
    if (i == next_checkpoint) {
      next_checkpoint *= 10;
      EXPECT_LT(relative_error(sketch.estimate(), exact.estimate()), 0.1) << "at " << i;
    }
  }
}

TEST(Integration, PointAndRangeEstimatorsAgree) {
  // The same label set expressed as points (F0Estimator) and as intervals
  // (RangeF0Estimator) must produce estimates that agree on the truth.
  constexpr std::uint64_t kIntervalCount = 300, kWidth = 1000;
  F0Estimator points(0.1, 0.05, 2);
  RangeF0Estimator ranges(0.1, 0.05, 3);
  for (std::uint64_t i = 0; i < kIntervalCount; ++i) {
    const std::uint64_t base = i * 10'000;
    ranges.add_range(base, base + kWidth - 1);
    for (std::uint64_t x = base; x < base + kWidth; ++x) points.add(x);
  }
  const double truth = static_cast<double>(kIntervalCount * kWidth);
  EXPECT_LT(relative_error(points.estimate(), truth), 0.1);
  EXPECT_LT(relative_error(ranges.estimate(), truth), 0.1);
}

TEST(Integration, WorkloadThroughTraceFilesSurvives) {
  // Persist per-site streams, reload, run the protocol: same answer.
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 4);
  auto w = make_distributed_workload(
      {.sites = 3, .union_distinct = 20'000, .overlap = 0.4, .duplication = 2.0, .seed = 2});
  const auto direct = run_f0_union(w, params);
  for (std::size_t s = 0; s < 3; ++s) {
    const std::string path = ::testing::TempDir() + "/site" + std::to_string(s) + ".trace";
    write_trace(path, w.site_streams[s]);
    w.site_streams[s] = read_trace(path);
    std::remove(path.c_str());
  }
  const auto reloaded = run_f0_union(w, params);
  EXPECT_DOUBLE_EQ(direct.estimate, reloaded.estimate);
}

TEST(Integration, NetmonLinksAsSetExpressions) {
  // Two links sharing hosts: estimate the overlap of their flow label sets
  // via coordinated set expressions and compare against exact truth.
  const auto w = make_network_workload(
      {.links = 2, .flows_per_link = 20'000, .link_overlap = 0.5, .seed = 5});
  const auto params = EstimatorParams::for_guarantee(0.08, 0.05, 6);
  F0Estimator a(params), b(params);
  DenseSet sa, sb;
  for (const Packet& p : w.link_traces[0]) {
    const auto label = extract_label(p, NetLabel::kFlow);
    a.add(label);
    sa.insert(label);
  }
  for (const Packet& p : w.link_traces[1]) {
    const auto label = extract_label(p, NetLabel::kFlow);
    b.add(label);
    sb.insert(label);
  }
  std::size_t inter_truth = 0;
  sa.for_each([&](std::uint64_t x) {
    if (sb.contains(x)) ++inter_truth;
  });
  const query::ResolveSketch links = [&](const query::Expr& leaf) -> const F0Estimator* {
    if (leaf.operand != query::OperandKind::kSite || leaf.id > 1) return nullptr;
    return leaf.id == 0 ? &a : &b;
  };
  const double union_truth = static_cast<double>(sa.size() + sb.size() - inter_truth);
  EXPECT_LT(relative_error(query::run_query("site:0 | site:1", links).estimate, union_truth),
            0.08);
  EXPECT_LT(relative_error(query::run_query("site:0 & site:1", links).estimate,
                           static_cast<double>(inter_truth)),
            0.3);
}

TEST(Integration, GtBeatsAmsAtEqualIndependence) {
  // The paper's comparison: at the same (pairwise) hashing assumption, GT
  // reaches epsilon = 0.1 while AMS stays a constant-factor estimator.
  constexpr std::size_t kDistinct = 120'000;
  Sample gt_err, ams_err;
  for (int t = 0; t < 6; ++t) {
    auto gt = make_counter_for_epsilon(CounterKind::kGibbonsTirthapura, 0.1,
                                       900 + static_cast<std::uint64_t>(t));
    auto ams = make_counter_for_epsilon(CounterKind::kAmsF0, 0.1,
                                        900 + static_cast<std::uint64_t>(t));
    Xoshiro256 rng(static_cast<std::uint64_t>(t) * 17 + 5);
    for (std::size_t i = 0; i < kDistinct; ++i) {
      const std::uint64_t x = rng.next();
      gt->add(x);
      ams->add(x);
    }
    gt_err.add(relative_error(gt->estimate(), kDistinct));
    ams_err.add(relative_error(ams->estimate(), kDistinct));
  }
  EXPECT_LT(gt_err.max(), 0.1);
  EXPECT_GT(ams_err.mean(), gt_err.mean());
}

TEST(Integration, DuplicationStressAcrossWholePipeline) {
  // 50x duplication through transforms -> distributed protocol: estimate
  // identical to the un-duplicated run (duplicate insensitivity end2end).
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 7);
  auto w = make_distributed_workload(
      {.sites = 3, .union_distinct = 10'000, .overlap = 0.3, .duplication = 1.0, .seed = 8});
  const auto base = run_f0_union(w, params);
  for (auto& stream : w.site_streams) stream = duplicate_stream(stream, 50, 9);
  const auto dup = run_f0_union(w, params);
  EXPECT_DOUBLE_EQ(base.estimate, dup.estimate);
}

TEST(Integration, EndToEndMonitoringScenario) {
  // The abstract's full story: monitors on 6 links, heavy inter-link host
  // sharing plus a scan on one link; HQ asks for union distinct
  // destinations and union distinct flows.
  const auto w = make_network_workload({.links = 6, .flows_per_link = 8000,
                                        .link_overlap = 0.6, .scan_fraction = 0.15,
                                        .seed = 10});
  const auto params = EstimatorParams::for_guarantee(0.1, 0.05, 11);
  std::vector<LinkMonitor> monitors(6, LinkMonitor(params));
  for (std::size_t link = 0; link < 6; ++link) {
    for (const Packet& p : w.link_traces[link]) monitors[link].observe(p);
  }
  MonitoringCenter center(6, params);
  center.collect(monitors);
  for (NetLabel kind : {NetLabel::kDstIp, NetLabel::kFlow}) {
    const auto q = static_cast<std::size_t>(kind);
    const auto ans = center.query(kind);
    EXPECT_LT(relative_error(ans.union_estimate,
                             static_cast<double>(w.truth.union_distinct[q])),
              0.1)
        << to_string(kind);
  }
  // Total communication: 6 reports of 4 sketches, each O(eps^-2 log n).
  EXPECT_EQ(center.channel_stats().messages, 6u);
}

}  // namespace
}  // namespace ustream
