// E17 — what durability costs. Two families, gated against
// bench/BENCH_wal.json by `bench/run_gates.py wal`:
//
//   * BM_WalAppend/<policy>/<payload> — the raw group-commit path:
//     append one framed record + commit (write() to the kernel, fsync per
//     policy) per iteration. The never/interval/always spread IS the
//     fsync-policy cost table quoted in EXPERIMENTS.md E17.
//   * BM_NetPushWalOff|On/<payload> — the end-to-end question: a full
//     push round trip against the production RefereeServer with the WAL
//     disabled vs enabled (fsync=interval, the default). The runner
//     enforces WalOn >= 0.5x WalOff: durability may cost, but if an
//     accepted push gets less than half its former throughput the WAL
//     append has landed somewhere hot it doesn't belong (per-byte work,
//     a sync in the event loop, an accidental always-fsync).
//
// Every harness gets a fresh mkdtemp'd WAL dir (DurableLog refuses dirty
// dirs by design) and removes it on teardown.
#include <benchmark/benchmark.h>

#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/frame.h"
#include "common/random.h"
#include "durability/wal.h"
#include "net/referee_server.h"
#include "net/tcp_transport.h"

namespace {
using namespace ustream;

std::string fresh_dir() {
  char tmpl[] = "/tmp/ustream_bench_wal_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) std::abort();
  return dir;
}

std::vector<std::uint8_t> random_frame(std::size_t payload_bytes, std::uint32_t epoch) {
  std::vector<std::uint8_t> payload(payload_bytes);
  Xoshiro256 rng(17);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  return frame_encode({PayloadKind::kF0Estimator, 0, epoch}, payload);
}

void wal_append_rows(benchmark::State& state, durability::FsyncPolicy policy) {
  const std::string dir = fresh_dir();
  {
    durability::WalConfig config;
    config.dir = dir;
    config.run_id = 1;
    config.fsync = policy;
    config.segment_bytes = 1ull << 30;  // measure appends, not rotations
    durability::WalWriter writer(config, /*start_seq=*/0, /*watermark=*/0);
    const auto frame = random_frame(static_cast<std::size_t>(state.range(0)), 1);
    for (auto _ : state) {
      writer.append(frame);
      writer.commit();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(frame.size()));
  }
  std::filesystem::remove_all(dir);
}

void BM_WalAppend_never(benchmark::State& state) {
  wal_append_rows(state, durability::FsyncPolicy::kNever);
}
void BM_WalAppend_interval(benchmark::State& state) {
  wal_append_rows(state, durability::FsyncPolicy::kInterval);
}
void BM_WalAppend_always(benchmark::State& state) {
  wal_append_rows(state, durability::FsyncPolicy::kAlways);
}
BENCHMARK(BM_WalAppend_never)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalAppend_interval)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalAppend_always)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);

// The same live-referee harness bench_net uses (one extra site that never
// reports keeps the loop running; kLatestWins lets one site push an
// unbounded run of fresh epochs — every one an arbitration WINNER, so with
// the WAL on every push takes the full append+commit path).
class RefereeHarness {
 public:
  explicit RefereeHarness(bool wal_on) : wal_dir_(wal_on ? fresh_dir() : "") {
    net::RefereeServerConfig config;
    config.sites = 2;
    config.dedup = DedupMode::kLatestWins;
    if (wal_on) {
      net::RefereeServerConfig::Durability wal;
      wal.dir = wal_dir_;
      wal.fsync = durability::FsyncPolicy::kInterval;
      config.wal = wal;
    }
    server_ = std::make_unique<net::RefereeServer>(std::move(config));
    referee_ = std::thread([this] {
      server_->run([](std::size_t, std::uint32_t, std::uint16_t, PayloadKind, std::vector<std::uint8_t>&&) {
        return true;
      });
    });
  }

  ~RefereeHarness() {
    server_->request_stop();
    referee_.join();
    if (!wal_dir_.empty()) std::filesystem::remove_all(wal_dir_);
  }

  std::uint16_t port() const noexcept { return server_->port(); }

 private:
  std::string wal_dir_;
  std::unique_ptr<net::RefereeServer> server_;
  std::thread referee_;
};

void net_push_rows(benchmark::State& state, bool wal_on) {
  RefereeHarness referee(wal_on);
  net::TcpTransportConfig tconfig;
  tconfig.port = referee.port();
  net::TcpTransport transport(1, tconfig);
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)));
  Xoshiro256 rng(17);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  std::uint32_t epoch = 0;
  for (auto _ : state) {
    const auto frame = frame_encode({PayloadKind::kF0Estimator, 0, ++epoch}, payload);
    benchmark::DoNotOptimize(transport.send_with_ack(0, frame));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_NetPushWalOff(benchmark::State& state) { net_push_rows(state, false); }
void BM_NetPushWalOn(benchmark::State& state) { net_push_rows(state, true); }
BENCHMARK(BM_NetPushWalOff)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_NetPushWalOn)->Arg(1024)->Arg(65536)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
