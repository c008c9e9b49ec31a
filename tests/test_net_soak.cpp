// Sharded-referee soak: ten thousand simulated sites pushed over loopback
// into a 4-shard referee must produce the SAME union sketch bytes and the
// SAME folded ledger as the sequential single-loop referee on the same
// frames. This is the tentpole's byte-identity contract at scale — the
// kernel's SO_REUSEPORT routing is nondeterministic, the output is not.
//
// Connection hygiene: every pusher RST-closes (SO_LINGER{1,0}) so 20k
// short-lived loopback connections never pile up in TIME_WAIT and exhaust
// the ephemeral port range mid-test.
#include "net/referee_server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/frame.h"
#include "core/f0_estimator.h"
#include "core/params.h"
#include "net/socket.h"
#include "net/tcp_transport.h"

namespace ustream::net {
namespace {

constexpr std::size_t kSites = 10'000;
constexpr std::size_t kVariants = 64;
constexpr std::size_t kPusherThreads = 8;

// 64 distinct small sketches, all merge-compatible (same seed/capacity):
// site i pushes variant i % 64, so the 10k-site union is deterministic and
// cheap to build.
std::vector<std::vector<std::uint8_t>> make_variants() {
  const auto params = EstimatorParams::for_guarantee(0.5, 0.5, 20250808);
  std::vector<std::vector<std::uint8_t>> variants;
  variants.reserve(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    F0Estimator est(params);
    for (std::uint64_t item = 0; item < 40; ++item) {
      est.add(v * 1'000 + item);
    }
    variants.push_back(est.serialize());
  }
  return variants;
}

// [u32 LE length][frame] for one site, ready for send_all.
std::vector<std::uint8_t> wire_frame(std::size_t site,
                                     const std::vector<std::uint8_t>& payload) {
  const auto frame = frame_encode(
      {PayloadKind::kF0Estimator, static_cast<std::uint32_t>(site), 0}, payload);
  std::vector<std::uint8_t> wire(4 + frame.size());
  const auto len = static_cast<std::uint32_t>(frame.size());
  wire[0] = static_cast<std::uint8_t>(len);
  wire[1] = static_cast<std::uint8_t>(len >> 8);
  wire[2] = static_cast<std::uint8_t>(len >> 16);
  wire[3] = static_cast<std::uint8_t>(len >> 24);
  std::copy(frame.begin(), frame.end(), wire.begin() + 4);
  return wire;
}

// One push over a fresh connection: send, wait for the 1-byte ack,
// RST-close. Returns the ack byte.
std::uint8_t push_once(std::uint16_t port, const std::vector<std::uint8_t>& wire) {
  Socket sock = connect_tcp("127.0.0.1", port, std::chrono::milliseconds{10'000},
                            std::chrono::milliseconds{30'000});
  send_all(sock, wire);
  std::uint8_t ack = 0;
  recv_exact(sock, std::span<std::uint8_t>(&ack, 1));
  const struct linger rst = {1, 0};
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_LINGER, &rst, sizeof(rst));
  return ack;
}

struct SoakRun {
  CollectReport report;
  ChannelStats wire;
  std::vector<std::uint8_t> union_bytes;
  std::vector<ChannelStats> shards;
};

SoakRun run_soak(std::size_t shards,
                 const std::vector<std::vector<std::uint8_t>>& variants) {
  RefereeServerConfig config;
  config.sites = kSites;
  config.shards = shards;
  config.timeout = std::chrono::milliseconds{180'000};
  RefereeServer server(std::move(config));
  const std::uint16_t port = server.port();

  NetCollectResult<F0Estimator> collected;
  std::thread referee([&server, &collected] {
    collected = collect_and_merge<F0Estimator>(server);
  });

  // A few connections that open early, send nothing, and stay open across
  // the whole storm: idle conns must neither block completion nor confuse
  // shard teardown.
  std::vector<Socket> idle;
  for (int i = 0; i < 8; ++i) {
    idle.push_back(connect_tcp("127.0.0.1", port, std::chrono::milliseconds{10'000},
                               std::chrono::milliseconds{30'000}));
  }

  std::atomic<std::size_t> acks_ok{0};
  std::vector<std::thread> pushers;
  pushers.reserve(kPusherThreads);
  for (std::size_t t = 0; t < kPusherThreads; ++t) {
    pushers.emplace_back([t, port, &variants, &acks_ok] {
      for (std::size_t site = t; site < kSites; site += kPusherThreads) {
        const auto wire = wire_frame(site, variants[site % kVariants]);
        if (push_once(port, wire) == static_cast<std::uint8_t>(PushAck::kAccepted)) {
          acks_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : pushers) t.join();
  referee.join();
  idle.clear();

  EXPECT_EQ(acks_ok.load(), kSites);
  EXPECT_TRUE(collected.report.complete()) << collected.report.summary();
  EXPECT_FALSE(collected.timed_out);

  SoakRun run;
  run.report = std::move(collected.report);
  run.wire = std::move(collected.wire);
  EXPECT_TRUE(collected.union_sketch.has_value()) << "degraded union";
  if (collected.union_sketch.has_value()) {
    run.union_bytes = collected.union_sketch->serialize();
  }
  run.shards = std::move(collected.shards);
  return run;
}

TEST(NetSoak, TenThousandSitesShardedIsByteIdenticalToSequential) {
  const auto variants = make_variants();

  const SoakRun sequential = run_soak(1, variants);
  const SoakRun sharded = run_soak(4, variants);

  // The headline contract: bytes out of the 4-shard collection plane are
  // the bytes out of the single-loop referee.
  ASSERT_FALSE(sequential.union_bytes.empty());
  EXPECT_EQ(sharded.union_bytes, sequential.union_bytes);

  // Folded ledger matches field for field.
  EXPECT_EQ(sharded.report.sites_reported, kSites);
  EXPECT_EQ(sharded.report.sites_reported, sequential.report.sites_reported);
  EXPECT_EQ(sharded.report.total_attempts(), sequential.report.total_attempts());
  EXPECT_EQ(sharded.report.retries, sequential.report.retries);
  EXPECT_EQ(sharded.report.duplicates_dropped, sequential.report.duplicates_dropped);
  EXPECT_EQ(sharded.report.stale_dropped, sequential.report.stale_dropped);
  EXPECT_EQ(sharded.report.frames_quarantined, sequential.report.frames_quarantined);

  // Wire totals: same frames, same bytes, however they were spread.
  EXPECT_EQ(sharded.wire.messages, sequential.wire.messages);
  EXPECT_EQ(sharded.wire.total_bytes, sequential.wire.total_bytes);

  // The shard breakdown accounts for every wire byte exactly once.
  ASSERT_EQ(sequential.shards.size(), 1u);
  ASSERT_EQ(sharded.shards.size(), 4u);
  std::uint64_t shard_bytes = 0;
  for (const auto& shard : sharded.shards) shard_bytes += shard.total_bytes;
  EXPECT_EQ(shard_bytes, sharded.wire.total_bytes);
}

}  // namespace
}  // namespace ustream::net
