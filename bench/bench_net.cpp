// E9 — the wire: what the TCP referee costs over loopback. Three rows,
// gated against bench/BENCH_net.json by `bench/run_gates.py net`:
//
//   * BM_NetPushLatency/<payload>  — full push round trip (frame + length
//     prefix out, 1-byte ack back) on a PERSISTENT connection; items ==
//     pushes, so items_per_second reads as acked pushes per second.
//   * BM_NetThroughput/<payload>   — the same round trip at sketch-sized
//     payloads, with bytes_per_second reporting wire throughput.
//   * BM_NetPushReconnect/<payload>— one TcpTransport per push: dial (with
//     the backoff machinery engaged, though a live server answers on the
//     first attempt), push, tear down. The persistent/reconnect ratio is
//     the gate's speedup floor: keeping the connection must stay visibly
//     cheaper than redialing per frame.
//
// The referee runs exactly the production event loop (RefereeServer) on a
// second thread with a site that never reports, so the loop never reaches
// completion and request_stop() ends it; kLatestWins dedup lets one site
// push an unbounded run of fresh epochs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/frame.h"
#include "common/random.h"
#include "net/referee_server.h"
#include "net/tcp_transport.h"

namespace {
using namespace ustream;

// A live referee on an ephemeral loopback port that accepts pushes until
// torn down. The sink swallows payloads undecoded: these rows measure the
// wire and the event loop, not sketch deserialization (bench_merge's job).
class RefereeHarness {
 public:
  // `sites` always includes one extra site that never reports, so the loop
  // runs until request_stop(); `shards` spawns that many SO_REUSEPORT
  // worker event loops (1 == the sequential referee).
  explicit RefereeHarness(std::size_t sites = 2, std::size_t shards = 1)
      : server_(make_config(sites, shards)), referee_([this] {
          server_.run([](std::size_t, std::uint32_t, std::uint16_t, PayloadKind, std::vector<std::uint8_t>&&) {
            return true;
          });
        }) {}

  ~RefereeHarness() {
    server_.request_stop();
    referee_.join();
  }

  std::uint16_t port() const noexcept { return server_.port(); }

 private:
  static net::RefereeServerConfig make_config(std::size_t sites, std::size_t shards) {
    net::RefereeServerConfig config;
    config.sites = sites;  // the last site never reports
    config.shards = shards;
    config.dedup = DedupMode::kLatestWins;
    return config;
  }

  net::RefereeServer server_;
  std::thread referee_;
};

net::TcpTransportConfig client_config(std::uint16_t port) {
  net::TcpTransportConfig config;
  config.port = port;
  return config;
}

std::vector<std::uint8_t> random_payload(std::size_t bytes) {
  std::vector<std::uint8_t> payload(bytes);
  Xoshiro256 rng(17);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  return payload;
}

void BM_NetPushLatency(benchmark::State& state) {
  const auto payload = random_payload(static_cast<std::size_t>(state.range(0)));
  RefereeHarness referee;
  net::TcpTransport transport(1, client_config(referee.port()));
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    const auto frame =
        frame_encode({PayloadKind::kF0Estimator, 0, ++epoch}, payload);
    benchmark::DoNotOptimize(transport.send_with_ack(0, frame));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetPushLatency)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);

void BM_NetThroughput(benchmark::State& state) {
  const auto payload = random_payload(static_cast<std::size_t>(state.range(0)));
  RefereeHarness referee;
  net::TcpTransport transport(1, client_config(referee.port()));
  std::uint32_t epoch = 0;
  std::int64_t wire_bytes = 0;
  for (auto _ : state) {
    const auto frame =
        frame_encode({PayloadKind::kF0Estimator, 0, ++epoch}, payload);
    benchmark::DoNotOptimize(transport.send_with_ack(0, frame));
    wire_bytes += static_cast<std::int64_t>(frame.size()) + 4;  // + length prefix
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetBytesProcessed(wire_bytes);
}
BENCHMARK(BM_NetThroughput)->Arg(262144)->Arg(1048576)->Unit(benchmark::kMicrosecond);

void BM_NetPushReconnect(benchmark::State& state) {
  const auto payload = random_payload(static_cast<std::size_t>(state.range(0)));
  RefereeHarness referee;
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    net::TcpTransport transport(1, client_config(referee.port()));
    const auto frame =
        frame_encode({PayloadKind::kF0Estimator, 0, ++epoch}, payload);
    benchmark::DoNotOptimize(transport.send_with_ack(0, frame));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetPushReconnect)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Shard scaling at fixed offered load: 8 persistent pusher threads (one
// site each) drive a referee with Arg(0) = 1, 2 or 4 shard loops. The
// workload is identical across rows — only the number of worker event
// loops behind the SO_REUSEPORT group changes — so the 1-shard row is the
// sequential-referee capacity and the ratio to the 4-shard row is the
// multi-core collection-plane speedup `bench/run_gates.py net` gates on
// (machines with >= 4 cores only; a 1-core box cannot scale by fiat).
// UseRealTime: with threads, cpu-time-based rates sum the pusher threads'
// time and would hide the scaling this row exists to show.
constexpr int kScalingPushers = 8;

struct ShardScalingFixture {
  std::unique_ptr<RefereeHarness> referee;
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
};
ShardScalingFixture g_scaling;  // NOLINT: thread-0 setup/teardown (see below)

void BM_NetShardScaling(benchmark::State& state) {
  const auto payload = random_payload(4096);
  // google-benchmark barriers all threads between this setup block and the
  // first timed iteration, so thread 0 may publish the fixture plainly.
  if (state.thread_index() == 0) {
    const auto shards = static_cast<std::size_t>(state.range(0));
    g_scaling.referee =
        std::make_unique<RefereeHarness>(kScalingPushers + 1, shards);
    g_scaling.transports.clear();
    for (int t = 0; t < state.threads(); ++t) {
      g_scaling.transports.push_back(std::make_unique<net::TcpTransport>(
          kScalingPushers, client_config(g_scaling.referee->port())));
    }
  }
  const auto site = static_cast<std::size_t>(state.thread_index());
  net::TcpTransport* transport = nullptr;
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    if (transport == nullptr) transport = g_scaling.transports[site].get();
    const auto frame = frame_encode(
        {PayloadKind::kF0Estimator, static_cast<std::uint32_t>(site), ++epoch},
        payload);
    benchmark::DoNotOptimize(transport->send_with_ack(site, frame));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    g_scaling.transports.clear();
    g_scaling.referee.reset();
  }
}
BENCHMARK(BM_NetShardScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Threads(kScalingPushers)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
