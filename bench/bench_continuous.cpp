// E18 — what the push protocol saves: the delta-mode continuous monitor
// (threshold-silent sites, kF0Delta frames) against the periodic
// full-snapshot protocol it replaces, on the ISSUE's reference workload of
// 64 sites x 2^20 items/site. Two rows, both running the identical
// disjoint-label stream end to end through the in-process Channel:
//
//   * BM_ContinuousSnapshot/64 — every site pushes a full serialized
//     sketch each 256 items (the report_interval protocol).
//   * BM_ContinuousDelta/64    — sites stay silent until a copy raises
//     its level or a sampled set grows by (1 + eps/2), then send a delta
//     against the referee's acked mirror.
//
// The row bodies are also the acceptance gate: at every one of the 64
// checkpoints the live referee estimate must sit inside the configured
// (eps, delta) envelope against the EXACT distinct count (the label
// stream is a bijective permutation of the item index, so the exact
// union cardinality is just the number of items fed), and after both
// rows ran, delta mode must have spent <= 10% of snapshot mode's
// bytes-on-wire AND messages. Any violation prints the offending numbers
// and exits nonzero — `bench/run_gates.py continuous` treats this binary
// as self-gating and layers the items/sec regression check on top.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "core/params.h"
#include "distributed/continuous.h"

namespace {
using namespace ustream;

constexpr std::size_t kSites = 64;
constexpr std::uint64_t kItemsPerSite = 1ULL << 20;  // >= 1e6 per the gate
constexpr std::uint64_t kCheckpoints = 64;
constexpr std::uint64_t kReportInterval = 256;  // snapshot-mode cadence
constexpr double kEps = 0.5;
constexpr double kGrowth = kEps / 2;  // the ISSUE's (1 + eps/2) trigger
// capacity 36/eps^2 at eps = 0.5, with a practical 5-copy median (the full
// 12*ln(1/delta) copy count from for_guarantee() is sized for the worst
// case; every added copy also adds its own level-raise notifications, so
// the copy count is part of the protocol's message bill — E18 quotes it).
constexpr EstimatorParams kParams{.capacity = 144, .copies = 5, .seed = 42};

// Bijective 64-bit mix (splitmix64 finalizer): feeding mix(i) for distinct
// i yields exactly-distinct labels, so the true union cardinality at any
// checkpoint equals the number of items fed so far — the exact reference
// the envelope is asserted against, with no exact-counter memory cost.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[noreturn]] void gate_fail(const char* what, double got, double bound) {
  std::fprintf(stderr,
               "bench_continuous GATE FAILURE: %s (got %.4g, bound %.4g)\n",
               what, got, bound);
  std::exit(1);
}

struct WireCost {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};
std::optional<WireCost> g_snapshot_cost;  // filled by the snapshot row

// Runs the shared workload through `monitor`, asserting the estimate
// envelope [lo_factor * exact, hi_factor * exact] at every checkpoint.
// In snapshot mode the referee additionally lags by at most
// kReportInterval unreported items per site, so its lower bound is taken
// against (exact - kSites * kReportInterval).
void drive(ContinuousUnionMonitor& monitor, double lo_factor, double hi_factor,
           std::uint64_t lag_allowance) {
  const std::uint64_t chunk = kItemsPerSite / kCheckpoints;
  for (std::uint64_t block = 0; block < kCheckpoints; ++block) {
    for (std::size_t site = 0; site < kSites; ++site) {
      const std::uint64_t base =
          static_cast<std::uint64_t>(site) * kItemsPerSite + block * chunk;
      for (std::uint64_t i = 0; i < chunk; ++i) {
        monitor.observe(site, mix(base + i));
      }
    }
    const double exact =
        static_cast<double>((block + 1) * chunk * kSites);
    const double covered =
        exact - static_cast<double>(lag_allowance);
    const double estimate = monitor.estimate();
    if (estimate > hi_factor * exact) {
      gate_fail("checkpoint estimate above (1+eps) envelope", estimate,
                hi_factor * exact);
    }
    if (covered > 0 && estimate < lo_factor * covered) {
      gate_fail("checkpoint estimate below envelope", estimate,
                lo_factor * covered);
    }
  }
  const CollectReport& report = monitor.flush();
  if (!report.complete()) {
    gate_fail("flush did not converge on the perfect channel",
              static_cast<double>(report.sites_reported), kSites);
  }
}

void BM_ContinuousSnapshot(benchmark::State& state) {
  for (auto _ : state) {
    ContinuousUnionMonitor monitor(kSites, kReportInterval, kParams);
    drive(monitor, 1.0 - kEps, 1.0 + kEps, kSites * kReportInterval);
    const ChannelStats wire = monitor.channel_stats();
    g_snapshot_cost = WireCost{wire.messages, wire.total_bytes};
    state.counters["messages"] = static_cast<double>(wire.messages);
    state.counters["wire_bytes"] = static_cast<double>(wire.total_bytes);
    state.counters["mean_frame_bytes"] = wire.mean_message_bytes();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSites * kItemsPerSite));
}
BENCHMARK(BM_ContinuousSnapshot)
    ->Arg(static_cast<int>(kSites))
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ContinuousDelta(benchmark::State& state) {
  const ContinuousMonitorOptions options{.delta_protocol = true,
                                         .growth = kGrowth};
  for (auto _ : state) {
    ContinuousUnionMonitor monitor(kSites, kReportInterval, kParams, options);
    // Live envelope: between threshold crossings the referee's mirror of a
    // site is within (1 + growth) of the live sketch, so the estimate
    // floor is (1 - eps) / (1 + growth) of exact (DESIGN.md §12.3).
    drive(monitor, (1.0 - kEps) / (1.0 + kGrowth), 1.0 + kEps, 0);
    const ChannelStats wire = monitor.channel_stats();
    state.counters["messages"] = static_cast<double>(wire.messages);
    state.counters["wire_bytes"] = static_cast<double>(wire.total_bytes);
    state.counters["mean_frame_bytes"] = wire.mean_message_bytes();
    state.counters["deltas"] = static_cast<double>(monitor.deltas_sent());
    state.counters["fulls"] = static_cast<double>(monitor.fulls_sent());
    state.counters["suppressed"] =
        static_cast<double>(monitor.suppressed_updates());
    if (g_snapshot_cost.has_value()) {
      // The headline acceptance gate: <= 10% of the full-frame protocol's
      // messages AND bytes for the same stream.
      const double msg_ratio = static_cast<double>(wire.messages) /
                               static_cast<double>(g_snapshot_cost->messages);
      const double byte_ratio = static_cast<double>(wire.total_bytes) /
                                static_cast<double>(g_snapshot_cost->bytes);
      state.counters["msg_ratio"] = msg_ratio;
      state.counters["byte_ratio"] = byte_ratio;
      if (msg_ratio > 0.10) {
        gate_fail("delta messages above 10% of snapshot protocol", msg_ratio,
                  0.10);
      }
      if (byte_ratio > 0.10) {
        gate_fail("delta bytes above 10% of snapshot protocol", byte_ratio,
                  0.10);
      }
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSites * kItemsPerSite));
}
BENCHMARK(BM_ContinuousDelta)
    ->Arg(static_cast<int>(kSites))
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
