// The acceptance ledger (CollectState) as every referee sees it.
//
// Differential: one seeded frame sequence — duplicates, stale epochs,
// gaps, full frames and real F0 deltas, group re-tags, CRC-broken bytes
// and CRC-valid payloads that cannot decode or merge — is fed to the
// in-process ledger and to a WAL-backed RefereeServer: at 1 shard over one
// loopback connection, and at 4 shards over a fresh connection per frame.
// Both must give the same verdict per frame (the server's ack bytes), end
// with the same CollectReport and the same store bytes, and recovery over
// the server's WAL must reproduce its per-site (epoch, group).
//
// Memory: a DurableLog without snapshots retains no frame bytes, and a
// resumed referee drops the recovered ones once it has replayed them.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "common/frame.h"
#include "common/random.h"
#include "core/f0_estimator.h"
#include "core/params.h"
#include "distributed/collect.h"
#include "distributed/site_store.h"
#include "durability/recovery.h"
#include "net/referee_server.h"
#include "net/socket.h"

namespace ustream {
namespace {

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "/ustream_ledger_XXXXXX";
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

// The site a frame claims, as the TCP referee peeks it for attempt
// accounting before any validation (referee_server.cpp, ingest_frame).
std::optional<std::size_t> claimed_site(std::span<const std::uint8_t> bytes,
                                        std::size_t sites) {
  if (bytes.size() < kFrameHeaderBytes || !looks_like_frame(bytes)) return std::nullopt;
  const std::uint32_t site = static_cast<std::uint32_t>(bytes[8]) |
                             (static_cast<std::uint32_t>(bytes[9]) << 8) |
                             (static_cast<std::uint32_t>(bytes[10]) << 16) |
                             (static_cast<std::uint32_t>(bytes[11]) << 24);
  if (site >= sites) return std::nullopt;
  return site;
}

struct Sequence {
  std::size_t sites = 1;
  DedupMode mode = DedupMode::kLatestWins;
  std::vector<std::vector<std::uint8_t>> frames;
};

// One seeded sequence. Each site grows a real F0Estimator and sends full
// frames and deltas against what it last sent; the mix of faults is drawn
// per frame.
Sequence make_sequence(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Sequence seq;
  seq.sites = 1 + rng.below(8);
  seq.mode = rng.below(4) == 0 ? DedupMode::kExactlyOnce : DedupMode::kLatestWins;
  const EstimatorParams params = EstimatorParams::for_guarantee(0.3, 0.2, 71);
  struct SiteModel {
    F0Estimator live;
    F0Estimator sent;  // state at the last frame sent: the delta base
    std::uint32_t epoch = 0;
    std::uint16_t group = 0;
    std::vector<std::vector<std::uint8_t>> history;
  };
  std::vector<SiteModel> model;
  for (std::size_t s = 0; s < seq.sites; ++s) {
    model.push_back(SiteModel{F0Estimator(params), F0Estimator(params), 0, 0, {}});
  }
  const std::size_t length = 8 + rng.below(33);
  for (std::size_t i = 0; i < length; ++i) {
    const auto site = static_cast<std::uint32_t>(rng.below(seq.sites));
    SiteModel& m = model[site];
    const std::size_t grow = 1 + rng.below(200);
    for (std::size_t k = 0; k < grow; ++k) m.live.add(rng.next());
    std::vector<std::uint8_t> frame;
    switch (rng.below(10)) {
      case 0:
      case 1: {  // full frame at the next epoch
        m.epoch += 1;
        frame = frame_encode({PayloadKind::kF0Estimator, site, m.epoch, m.group},
                             m.live.serialize());
        m.sent = m.live;
        break;
      }
      case 2:
      case 3: {  // delta at the next epoch (a gap now and then)
        m.epoch += rng.below(5) == 0 ? 2 : 1;
        frame = frame_encode({PayloadKind::kF0Delta, site, m.epoch, m.group},
                             m.live.serialize_delta(m.sent));
        m.sent = m.live;
        break;
      }
      case 4: {  // group re-tag with a full frame
        m.epoch += 1;
        m.group = static_cast<std::uint16_t>(rng.below(3));
        frame = frame_encode({PayloadKind::kF0Estimator, site, m.epoch, m.group},
                             m.live.serialize());
        m.sent = m.live;
        break;
      }
      case 5: {  // a retransmission: duplicate or stale
        if (m.history.empty()) continue;
        frame = m.history[rng.below(m.history.size())];
        break;
      }
      case 6: {  // CRC-broken bytes
        if (m.history.empty()) continue;
        frame = m.history[rng.below(m.history.size())];
        frame[rng.below(frame.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        break;
      }
      case 7: {  // CRC-valid payload that cannot decode or apply
        m.epoch += 1;
        const PayloadKind kind = rng.below(2) == 0 ? PayloadKind::kF0Estimator
                                                   : PayloadKind::kF0Delta;
        frame = frame_encode({kind, site, m.epoch, m.group},
                             std::vector<std::uint8_t>{1, 2, 3});
        break;
      }
      case 8: {  // a sketch of another seed: decodes, cannot merge
        m.epoch += 1;
        F0Estimator alien(EstimatorParams::for_guarantee(0.3, 0.2, 72));
        for (int k = 0; k < 50; ++k) alien.add(rng.next());
        frame = frame_encode({PayloadKind::kF0Estimator, site, m.epoch, m.group},
                             alien.serialize());
        break;
      }
      default: {  // the wrong protocol
        frame = frame_encode({PayloadKind::kDistinctSum, site, m.epoch, m.group},
                             std::vector<std::uint8_t>{9});
        break;
      }
    }
    m.history.push_back(frame);
    seq.frames.push_back(std::move(frame));
  }
  return seq;
}

void expect_same_report(const CollectReport& a, const CollectReport& b,
                        const std::string& where) {
  EXPECT_EQ(a.sites_total, b.sites_total) << where;
  EXPECT_EQ(a.sites_reported, b.sites_reported) << where;
  EXPECT_EQ(a.retries, b.retries) << where;
  EXPECT_EQ(a.frames_quarantined, b.frames_quarantined) << where;
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped) << where;
  EXPECT_EQ(a.stale_dropped, b.stale_dropped) << where;
  EXPECT_EQ(a.deltas_applied, b.deltas_applied) << where;
  EXPECT_EQ(a.resyncs, b.resyncs) << where;
  ASSERT_EQ(a.per_site.size(), b.per_site.size()) << where;
  for (std::size_t s = 0; s < a.per_site.size(); ++s) {
    const SiteCollectStatus& x = a.per_site[s];
    const SiteCollectStatus& y = b.per_site[s];
    EXPECT_EQ(x.attempts, y.attempts) << where << " site " << s;
    EXPECT_EQ(x.reported, y.reported) << where << " site " << s;
    EXPECT_EQ(x.exhausted, y.exhausted) << where << " site " << s;
    EXPECT_EQ(x.accepted_epoch, y.accepted_epoch) << where << " site " << s;
    EXPECT_EQ(x.group, y.group) << where << " site " << s;
  }
}

std::vector<std::optional<std::vector<std::uint8_t>>> store_bytes(
    SiteSketchStore<F0Estimator>& store) {
  std::vector<std::optional<std::vector<std::uint8_t>>> out;
  for (auto& slot : store.take_slots()) {
    out.push_back(slot ? std::optional(slot->serialize()) : std::nullopt);
  }
  return out;
}

// (a) the in-process ledger over one sequence: its verdicts, report and
// store bytes.
struct LedgerRun {
  std::vector<std::uint8_t> verdicts;
  CollectReport report;
  std::vector<std::optional<std::vector<std::uint8_t>>> store;
};

LedgerRun run_ledger(const Sequence& seq) {
  CollectState ledger(seq.sites, PayloadKind::kF0Estimator, seq.mode);
  if (seq.mode == DedupMode::kLatestWins) ledger.enable_deltas(PayloadKind::kF0Delta);
  SiteSketchStore<F0Estimator> store(seq.sites);
  LedgerRun run;
  for (const auto& bytes : seq.frames) {
    if (auto site = claimed_site(bytes, seq.sites)) ledger.record_send(*site);
    const Verdict v = ledger.admit(bytes, [&store](Frame& f) {
      return store.accept(f.header.site, f.header.group, f.header.kind, f.payload);
    });
    run.verdicts.push_back(static_cast<std::uint8_t>(v));
  }
  ledger.finalize(std::numeric_limits<std::uint32_t>::max());
  run.report = ledger.report();
  run.store = store_bytes(store);
  return run;
}

// Sends one [len][frame] unit and reads its ack byte.
std::uint8_t send_frame(net::Socket& sock, const std::vector<std::uint8_t>& bytes) {
  const auto len = static_cast<std::uint32_t>(bytes.size());
  const std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16), static_cast<std::uint8_t>(len >> 24)};
  net::send_all(sock, prefix);
  net::send_all(sock, bytes);
  std::uint8_t ack = 0;
  net::recv_exact(sock, std::span<std::uint8_t>(&ack, 1));
  return ack;
}

net::Socket connect_to(std::uint16_t port) {
  return net::connect_tcp("127.0.0.1", port, std::chrono::milliseconds{2000},
                          std::chrono::milliseconds{2000});
}

// (b) a TCP referee with a WAL in `dir` over the same sequence, frame after
// frame (each acked before the next is sent): over one connection, or over
// a fresh connection per frame, which SO_REUSEPORT spreads across shards.
struct TcpRun {
  std::vector<std::uint8_t> acks;
  net::RefereeServer::Result result;
  std::vector<std::optional<std::vector<std::uint8_t>>> store;
};

TcpRun run_tcp_referee(const Sequence& seq, const std::string& dir, std::size_t shards,
                       bool connection_per_frame) {
  net::RefereeServerConfig config;
  config.sites = seq.sites;
  config.shards = shards;
  config.dedup = seq.mode;
  if (seq.mode == DedupMode::kLatestWins) config.delta_kind = PayloadKind::kF0Delta;
  config.continuous = true;
  config.timeout = std::chrono::milliseconds{30'000};
  config.wal = net::RefereeServerConfig::Durability{};
  config.wal->dir = dir;
  config.wal->fsync = durability::FsyncPolicy::kNever;
  net::RefereeServer server(std::move(config));
  SiteSketchStore<F0Estimator> store(seq.sites);
  TcpRun run;
  std::thread referee([&] {
    run.result = server.run([&store](std::size_t site, std::uint32_t, std::uint16_t group,
                                     PayloadKind kind, std::vector<std::uint8_t>&& payload) {
      return store.accept(site, group, kind, payload);
    });
  });
  if (connection_per_frame) {
    for (const auto& bytes : seq.frames) {
      net::Socket sock = connect_to(server.port());
      run.acks.push_back(send_frame(sock, bytes));
    }
  } else {
    net::Socket sock = connect_to(server.port());
    for (const auto& bytes : seq.frames) run.acks.push_back(send_frame(sock, bytes));
  }
  server.request_stop();
  referee.join();
  run.store = store_bytes(store);
  return run;
}

// Recovery over a referee's WAL reproduces its per-site (epoch, group).
void expect_recovery_matches(const Sequence& seq, const std::string& dir,
                             const CollectReport& live_report, const std::string& where) {
  durability::RecoveryOptions rec;
  rec.dir = dir;
  rec.sites = seq.sites;
  rec.expected_kind = PayloadKind::kF0Estimator;
  rec.dedup = seq.mode;
  if (seq.mode == DedupMode::kLatestWins) rec.delta_kind = PayloadKind::kF0Delta;
  const durability::RecoveryResult recovered = durability::recover_referee_state(rec);
  for (std::size_t s = 0; s < seq.sites; ++s) {
    const SiteCollectStatus& live = live_report.per_site[s];
    ASSERT_EQ(recovered.sites[s].has_value(), live.reported) << where << " site " << s;
    if (!live.reported) continue;
    EXPECT_EQ(recovered.sites[s]->epoch, live.accepted_epoch) << where << " site " << s;
    EXPECT_EQ(frame_decode(recovered.sites[s]->frame).header.group, live.group)
        << where << " site " << s;
  }
}

TEST(LedgerDifferential, InProcessAndTcpRefereeGiveTheSameVerdicts) {
  constexpr std::uint64_t kSequences = 200;
  std::map<std::uint8_t, std::size_t> seen;  // verdict -> count over all sequences
  for (std::uint64_t seed = 1; seed <= kSequences; ++seed) {
    const Sequence seq = make_sequence(seed);
    const std::string where = "seed " + std::to_string(seed);
    const LedgerRun ledger = run_ledger(seq);
    for (const std::uint8_t v : ledger.verdicts) seen[v] += 1;

    // A 1-shard referee, one connection.
    TempDir dir;
    const TcpRun tcp = run_tcp_referee(seq, dir.path, 1, /*connection_per_frame=*/false);
    EXPECT_EQ(tcp.acks, ledger.verdicts) << where;
    expect_same_report(ledger.report, tcp.result.report, where);
    EXPECT_EQ(ledger.store, tcp.store) << where;
    expect_recovery_matches(seq, dir.path, tcp.result.report, where);
    if (::testing::Test::HasFailure()) break;  // one failing seed is enough output
  }
  // The generator reaches every verdict, refusals included.
  for (const char v : {'A', 'D', 'S', 'Q', 'R'}) {
    EXPECT_GT(seen[static_cast<std::uint8_t>(v)], 20u) << v;
  }
}

// The same sequences at 4 shards, one fresh connection per frame, so
// consecutive frames — a delta and its base included — land on different
// shards. The verdicts are still the one ledger's, frame by frame: no rule
// depends on the shard a frame arrives on, and the one WAL chain replays
// every acked delta after its base.
TEST(LedgerDifferential, FourShardRefereeGivesTheOneLedgersVerdicts) {
  constexpr std::uint64_t kSequences = 100;
  std::size_t spread = 0;  // sequences whose frames reached >= 2 shards
  for (std::uint64_t seed = 1; seed <= kSequences; ++seed) {
    const Sequence seq = make_sequence(seed);
    const std::string where = "seed " + std::to_string(seed);
    const LedgerRun ledger = run_ledger(seq);

    TempDir dir;
    const TcpRun tcp = run_tcp_referee(seq, dir.path, 4, /*connection_per_frame=*/true);
    EXPECT_EQ(tcp.acks, ledger.verdicts) << where;
    expect_same_report(ledger.report, tcp.result.report, where);
    EXPECT_EQ(ledger.store, tcp.store) << where;
    expect_recovery_matches(seq, dir.path, tcp.result.report, where);
    for (const auto& segment : durability::scan_wal_segments(dir.path)) {
      EXPECT_EQ(segment.shard, 0u) << where << " " << segment.path;
    }
    ASSERT_EQ(tcp.result.shards.size(), 4u);
    std::size_t reached = 0;
    for (const ChannelStats& shard : tcp.result.shards) reached += shard.messages > 0 ? 1 : 0;
    if (reached >= 2) spread += 1;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(spread, kSequences / 2);
}

// ---------------------------------------------------------------------------
// What the WAL keeps in memory.

std::vector<std::uint8_t> sketch_frame(std::uint32_t site, std::uint32_t epoch) {
  F0Estimator est(EstimatorParams::for_guarantee(0.3, 0.2, 73));
  for (std::uint64_t label = 0; label < 100 + epoch; ++label) est.add(label * 7919 + site);
  return frame_encode({PayloadKind::kF0Estimator, site, epoch}, est.serialize());
}

durability::DurableLog::Options log_options(const std::string& dir, std::uint64_t every) {
  durability::DurableLog::Options options;
  options.dir = dir;
  options.fsync = durability::FsyncPolicy::kNever;
  options.snapshot_every = every;
  return options;
}

TEST(DurableLogMemory, SnapshotLessLogRetainsNoFrameBytes) {
  TempDir dir;
  durability::DurableLog log(log_options(dir.path, 0), 4, /*run_id=*/1);
  for (std::uint32_t epoch = 1; epoch <= 50; ++epoch) {
    for (std::uint32_t site = 0; site < 4; ++site) {
      log.log_accepted(site, epoch, sketch_frame(site, epoch));
    }
  }
  EXPECT_EQ(log.records_logged(), 200u);
  EXPECT_GT(log.bytes_logged(), 0u);
  EXPECT_EQ(log.retained_bytes(), 0u);
}

TEST(DurableLogMemory, SnapshottingLogRetainsOneChainPerSite) {
  TempDir dir;
  durability::DurableLog log(log_options(dir.path, 1000), 4, /*run_id=*/1);
  std::uint64_t newest = 0;
  for (std::uint32_t epoch = 1; epoch <= 50; ++epoch) {
    newest = 0;
    for (std::uint32_t site = 0; site < 4; ++site) {
      const auto frame = sketch_frame(site, epoch);
      log.log_accepted(site, epoch, frame);
      newest += frame.size();
    }
  }
  EXPECT_EQ(log.retained_bytes(), newest);  // the winners only, not the history
}

TEST(DurableLogMemory, ResumedRefereeDropsRecoveredFramesAfterPreload) {
  TempDir dir;
  {
    durability::DurableLog log(log_options(dir.path, 0), 2, /*run_id=*/1);
    log.log_accepted(0, 1, sketch_frame(0, 1));
    log.log_accepted(1, 1, sketch_frame(1, 1));
  }
  net::RefereeServerConfig config;
  config.sites = 2;
  config.wal = net::RefereeServerConfig::Durability{};
  config.wal->dir = dir.path;
  config.wal->fsync = durability::FsyncPolicy::kNever;
  config.wal->recover = true;
  net::RefereeServer server(std::move(config));
  EXPECT_GT(server.durable_log()->retained_bytes(), 0u);
  // Both sites recovered: the round is complete before any connection.
  const net::RefereeServer::Result result = server.run(
      [](std::size_t, std::uint32_t, std::uint16_t, PayloadKind, std::vector<std::uint8_t>&&) {
        return true;
      });
  EXPECT_TRUE(result.report.complete());
  EXPECT_EQ(result.durability.sites_recovered, 2u);
  EXPECT_EQ(result.durability.frames_replayed, 2u);
  EXPECT_EQ(server.durable_log()->retained_bytes(), 0u);
}

}  // namespace
}  // namespace ustream
