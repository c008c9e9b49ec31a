// RefereeServer — the referee side of the paper's protocol on real
// sockets: a sharded collection plane of event loops (EventLoop: epoll on
// Linux, poll fallback) that accepts site connections, reassembles
// length-delimited version-1 CRC frames from partial reads, and routes
// every complete frame through the SAME CollectState ledger (dedup, epoch
// latest-wins, quarantine, one verdict per frame) the in-process referee
// uses, so the frame-layer semantics over TCP are identical to
// Channel/FaultyChannel by construction.
//
// Sharding (DESIGN.md §10): `shards = N` runs N worker event loops, each
// with its own SO_REUSEPORT acceptor on the same port (the kernel
// load-balances incoming connections), its own wire stats and its own
// `shard="k"`-labeled metrics. All shards share ONE ledger behind one
// mutex, taken once per frame: attempt accounting, the verdict, the sink
// and the commit to the one WAL happen there, so verdicts are those of a
// single loop over the global frame order and no rule depends on the shard
// a frame lands on. At finish the accepted per-site payloads reduce
// through the parallel MergeEngine in site order — byte-identical to the
// single-loop referee on the same frame set.
//
// Event-loop states per connection (DESIGN.md §8):
//
//   reading-length  ->  reading-frame  ->  (ingest, queue 1-byte ack)
//        ^                                            |
//        +--------------------------------------------+
//
// A connection that closes mid-frame is a truncated transmission: the
// ledger quarantines the partial bytes —
// a killed site shows up in the CollectReport exactly like a truncating
// FaultyChannel, and the final estimate keeps the degraded-lower-bound
// semantics of DESIGN.md §6.3.
//
// The loops run until every expected site has reported somewhere (acks
// flushed), the configured deadline passes (degraded finish), or
// request_stop() is called from another thread (per-shard WakePipe
// wakeup). Merging is the caller's step: collect_and_merge() keeps the
// accepted payloads in a SiteSketchStore and finishes with the parallel
// MergeEngine, mirroring DistributedRun::collect().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/merge_engine.h"
#include "distributed/collect.h"
#include "distributed/site_store.h"
#include "distributed/transport.h"
#include "durability/recovery.h"
#include "net/event_loop.h"
#include "net/socket.h"

namespace ustream::net {

struct RefereeServerConfig {
  std::string bind_host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = pick an ephemeral port (read back via port())
  std::size_t sites = 1;
  PayloadKind expected_kind = PayloadKind::kF0Estimator;
  DedupMode dedup = DedupMode::kExactlyOnce;

  // Continuous-mode delta protocol (DESIGN.md §12). When set, frames of
  // this kind are accepted iff they extend the site's epoch chain exactly
  // (accepted_epoch + 1), on whichever shard they land; anything else
  // earns the 'R' resync ack that tells the site to re-base with a full
  // frame of expected_kind. Requires kLatestWins. The sink receives each accepted
  // payload with its kind, so it can apply deltas onto its per-site mirror
  // instead of replacing it.
  std::optional<PayloadKind> delta_kind;

  // Keep collecting after every site has reported (continuous monitoring):
  // completion never fires, and the server runs until the deadline expires
  // or request_stop() is called.
  bool continuous = false;

  // Worker event loops. 1 keeps the original single-threaded referee (no
  // extra threads are spawned); N > 1 runs N-1 extra shard threads with
  // SO_REUSEPORT acceptors on the same port.
  std::size_t shards = 1;

  // Readiness backend for every shard loop; kDefault = epoll on Linux.
  EventLoop::Backend backend = EventLoop::Backend::kDefault;

  // Overall collection deadline; zero waits until complete/stopped. On
  // expiry the server finishes degraded with whatever arrived.
  std::chrono::milliseconds timeout{0};

  // Length-prefix sanity bound: a larger announced frame is a protocol
  // violation (quarantined, connection dropped) rather than an allocation.
  std::size_t max_frame_bytes = 64u << 20;

  // Admin endpoint (DESIGN.md §9.3): when set, a second listener on this
  // port (0 = ephemeral, read back via admin_port()) joins shard 0's
  // event loop and serves live metrics snapshots mid-collection. One-line
  // requests, response then close:
  //   GET /metrics       Prometheus text exposition
  //   GET /metrics.json  one JSON line
  //   GET /health        "ok"
  //   GET /query?e=EXPR  set-expression estimate (JSON; %xx-decoded)
  //   GET /query.txt?e=EXPR  same, text rendering
  std::optional<std::uint16_t> admin_port;

  // Serves the admin /query route (DESIGN.md §13). Receives the raw query
  // string as it appeared after `e=` (still %xx-encoded — decode with
  // query::percent_decode; net doesn't link the query library); returns
  // the response body (JSON when `json`). Runs on shard 0's event loop
  // thread while the sink may be
  // firing on other shards, so the handler must do its own locking around
  // whatever sketch store it reads. Unset = /query answers 404. Exceptions
  // become a one-line "error: ..." body with a 400 status.
  std::function<std::string(const std::string& expr, bool json)> query_handler;

  // Durability (DESIGN.md §11): when set, every accepted frame is appended
  // to the one WAL under `dir`, in acceptance order, and committed (write + fsync per policy)
  // BEFORE its ack byte is queued, so a kill -9'd referee can resume with
  // `recover = true`: the dir is replayed through the same CollectState
  // acceptance path and the server starts with every previously-acked site
  // already reported in its ledger — re-pushes dedup against recovered
  // state exactly as they would against live state.
  struct Durability {
    std::string dir;
    durability::FsyncPolicy fsync = durability::FsyncPolicy::kInterval;
    std::chrono::milliseconds fsync_interval{50};
    std::uint64_t segment_bytes = 64ull << 20;
    std::uint64_t snapshot_every = 0;  // snapshot per N accepted (0 = never)
    bool recover = false;
  };
  std::optional<Durability> wal;
};

class RefereeServer {
 public:
  // Binds and listens immediately (so a client started right after the
  // constructor returns can already connect). Throws TransportError if the
  // port cannot be bound.
  explicit RefereeServer(RefereeServerConfig config);

  std::uint16_t port() const noexcept { return port_; }
  std::size_t sites() const noexcept { return config_.sites; }
  std::size_t shards() const noexcept { return config_.shards; }

  // Bound admin port; nullopt when the admin endpoint is disabled.
  std::optional<std::uint16_t> admin_port() const noexcept { return admin_port_; }

  // Consumes an accepted payload. Returns false when the sink refuses it:
  // the payload fails to deserialize despite its CRC matching (the 2^-32
  // collision case), or the sketch cannot merge with the ones the sink
  // already holds. The ledger then records 'Q' for a full frame, telling
  // the client to retransmit, or 'R' for a delta — retransmitting a delta
  // that cannot apply is useless, the site owes a full frame — and leaves
  // the site's entry as it was. `kind` is the frame's PayloadKind (config.expected_kind,
  // or config.delta_kind for chain deltas); `group` is the frame's group
  // tag (0 = ungrouped), so a grouped sink can keep per-tenant stores
  // apart. In a sharded server the sink is invoked under the shared
  // arbiter mutex, so calls are serialized and arrive in global acceptance
  // order — a plain vector-slot sink needs no locking of its own.
  using PayloadSink = std::function<bool(std::size_t site, std::uint32_t epoch,
                                         std::uint16_t group, PayloadKind kind,
                                         std::vector<std::uint8_t>&& payload)>;

  // What the WAL did during this run (zeros when durability is off).
  struct DurabilityInfo {
    bool enabled = false;
    bool recovered = false;           // config.durability->recover was set
    std::size_t sites_recovered = 0;  // sites preloaded from the WAL dir
    std::uint64_t frames_replayed = 0;
    std::uint64_t records_logged = 0;
    std::uint64_t bytes_logged = 0;
    std::uint64_t fsyncs = 0;
    std::uint64_t snapshots = 0;
    std::string recovery_summary;  // RecoveryResult::summary(), "" if fresh
  };

  struct Result {
    CollectReport report;  // the one ledger every shard admitted frames to
    ChannelStats wire;     // complete frames observed on the wire, per site
    bool timed_out = false;  // deadline expired before every site reported
    std::vector<ChannelStats> shards;  // each shard's wire stats; size == config.shards
    DurabilityInfo durability;
  };

  // Runs the event loop(s) to completion. Call at most once.
  Result run(const PayloadSink& sink);

  // Thread-safe: wakes every shard loop and makes run() return with
  // whatever has been collected so far.
  void request_stop() noexcept;

  // Non-null iff config.durability was set. What recovery replayed is at
  // durable_log()->recovered() before run() is even called.
  const durability::DurableLog* durable_log() const noexcept { return durable_.get(); }

 private:
  struct Conn;
  struct Shared;
  class Shard;

  void notify_all() noexcept;

  RefereeServerConfig config_;
  std::unique_ptr<durability::DurableLog> durable_;  // null when disabled
  std::vector<Socket> listeners_;  // one per shard (SO_REUSEPORT when > 1)
  Socket admin_listener_;  // invalid when the admin endpoint is disabled
  std::vector<std::unique_ptr<WakePipe>> wakes_;  // one per shard
  std::atomic<bool> stop_{false};
  std::uint16_t port_ = 0;
  std::optional<std::uint16_t> admin_port_;
};

// The referee's full end-of-stream step over TCP: collect frames into a
// SiteSketchStore, then tree-reduce the slots on the engine's pool in site
// order (byte-identical to the sequential fold — merge_engine.h). A payload
// the store refuses (undecodable, or not mergeable with the sketches
// already held) is quarantined ('Q') instead of acked. Returns nullopt
// union_sketch only for a fully degraded (zero-site) collection.
template <typename Sketch>
struct NetCollectResult {
  CollectReport report;
  ChannelStats wire;
  std::optional<Sketch> union_sketch;
  bool timed_out = false;
  std::vector<ChannelStats> shards;
  RefereeServer::DurabilityInfo durability;
};

template <typename Sketch>
NetCollectResult<Sketch> collect_and_merge(RefereeServer& server,
                                           MergeEngine& engine = MergeEngine::shared()) {
  SiteSketchStore<Sketch> store(server.sites());
  RefereeServer::Result res =
      server.run([&store](std::size_t site, std::uint32_t, std::uint16_t group, PayloadKind kind,
                          std::vector<std::uint8_t>&& payload) {
        return store.accept(site, group, kind, payload);
      });
  NetCollectResult<Sketch> out;
  out.report = std::move(res.report);
  out.wire = std::move(res.wire);
  out.timed_out = res.timed_out;
  out.shards = std::move(res.shards);
  out.durability = std::move(res.durability);
  out.union_sketch = engine.reduce(store.take_slots());
  return out;
}

}  // namespace ustream::net
