#include "net/referee_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <limits>
#include <list>
#include <mutex>
#include <thread>

#include "net/tcp_transport.h"
#include "obs/exposition.h"
#include "obs/metrics.h"

namespace ustream::net {

// A verdict is its own ack byte.
static_assert(static_cast<std::uint8_t>(Verdict::kAccepted) ==
              static_cast<std::uint8_t>(PushAck::kAccepted));
static_assert(static_cast<std::uint8_t>(Verdict::kDuplicate) ==
              static_cast<std::uint8_t>(PushAck::kDuplicate));
static_assert(static_cast<std::uint8_t>(Verdict::kStale) ==
              static_cast<std::uint8_t>(PushAck::kStale));
static_assert(static_cast<std::uint8_t>(Verdict::kQuarantined) ==
              static_cast<std::uint8_t>(PushAck::kQuarantined));
static_assert(static_cast<std::uint8_t>(Verdict::kResync) ==
              static_cast<std::uint8_t>(PushAck::kResync));

namespace {

// Little-endian u32 without alignment assumptions.
std::uint32_t read_u32le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

// Every fd registered with the shard's EventLoop carries one of these as
// its opaque pointer, so event dispatch is a switch on `kind` plus a cast
// of `self` — no per-event container scan (the O(n)-per-round revents walk
// the old poll loop did is exactly what EventLoop retired).
enum class TagKind : std::uint8_t { kWake, kListener, kAdminListener, kSite, kAdmin };

struct FdTag {
  TagKind kind;
  void* self = nullptr;
};

}  // namespace

// One site connection mid-reassembly. `expected` is nullopt while the
// 4-byte length prefix is still incomplete (state "reading-length");
// once known, `in` accumulates until the full frame arrived. Connections
// live in a std::list so `tag.self` and `self` stay valid across
// insertions and erasures (EventLoop hands the tag pointer back verbatim).
struct RefereeServer::Conn {
  FdTag tag{TagKind::kSite, nullptr};
  Socket sock;
  std::vector<std::uint8_t> in;
  std::optional<std::uint32_t> expected;
  std::vector<std::uint8_t> out;  // pending ack bytes
  bool closed = false;            // peer gone; kept only to flush `out`
  unsigned interest = 0;          // mask currently registered with the loop
  std::list<Conn>::iterator self;
};

// The one piece of state every shard shares: the acceptance ledger and the
// sink, both behind `mu`. Each frame takes `mu` once, so the ledger sees
// frames in one global order and its verdicts are the ones a single loop
// over that order would give.
struct RefereeServer::Shared {
  Shared(const RefereeServerConfig& config, const PayloadSink& payload_sink)
      : continuous(config.continuous),
        sink(payload_sink),
        ledger(config.sites, config.expected_kind, config.dedup) {
    if (config.delta_kind.has_value()) ledger.enable_deltas(*config.delta_kind);
  }

  const bool continuous;  // never declare completion; run to deadline/stop
  const PayloadSink& sink;
  std::mutex mu;
  CollectState ledger;  // guarded by mu
  std::atomic<bool> complete{false};
};

namespace {

// One admin client: accumulate bytes until the first newline, answer the
// one-line request, flush, close. Admin clients never block the referee —
// they live in shard 0's event loop next to its site connections.
struct AdminConn {
  FdTag tag{TagKind::kAdmin, nullptr};
  Socket sock;
  std::string in;
  std::string out;
  bool responded = false;
  bool closed = false;
  unsigned interest = 0;
  std::list<AdminConn>::iterator self;
};

// The referee's built-in metric set (DESIGN.md §9.2): the live view of the
// ledger a CollectReport shows post-hoc. Resolved once per shard; all
// updates are single relaxed atomic ops on the default registry, so the
// admin endpoint, `ustream stats` and the serve --stats dump all read the
// same numbers. A single-shard server keeps the unlabeled series (the
// PR-5 names); a sharded one gets one series per shard via shard="k".
struct RefereeMetrics {
  obs::Gauge& connections_open;
  obs::Counter& connections_total;
  obs::Counter& frames_accepted;
  obs::Counter& frames_duplicate;
  obs::Counter& frames_stale;
  obs::Counter& frames_quarantined;
  obs::Counter& frames_delta;
  obs::Counter& frames_resync;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& admin_requests;

  explicit RefereeMetrics(const std::string& labels)
      : connections_open(obs::default_registry().gauge("ustream_referee_connections_open", labels)),
        connections_total(
            obs::default_registry().counter("ustream_referee_connections_total", labels)),
        frames_accepted(
            obs::default_registry().counter("ustream_referee_frames_accepted_total", labels)),
        frames_duplicate(
            obs::default_registry().counter("ustream_referee_frames_duplicate_total", labels)),
        frames_stale(obs::default_registry().counter("ustream_referee_frames_stale_total", labels)),
        frames_quarantined(
            obs::default_registry().counter("ustream_referee_frames_quarantined_total", labels)),
        frames_delta(
            obs::default_registry().counter("ustream_referee_frames_delta_total", labels)),
        frames_resync(
            obs::default_registry().counter("ustream_referee_frames_resync_total", labels)),
        bytes_in(obs::default_registry().counter("ustream_referee_bytes_in_total", labels)),
        bytes_out(obs::default_registry().counter("ustream_referee_bytes_out_total", labels)),
        admin_requests(
            obs::default_registry().counter("ustream_referee_admin_requests_total", labels)) {}
};

}  // namespace

// One worker: an EventLoop over this shard's acceptor, its share of the
// site connections (whichever ones the kernel's SO_REUSEPORT hash routed
// here), its own wire stats and metrics, and — on shard 0 only — the admin
// listener. No state is shared with other shards except
// RefereeServer::Shared, touched once per frame.
class RefereeServer::Shard {
 public:
  Shard(RefereeServer& server, std::size_t index, Shared& shared,
        std::chrono::steady_clock::time_point deadline, bool has_deadline)
      : server_(server),
        config_(server.config_),
        index_(index),
        shared_(shared),
        deadline_(deadline),
        has_deadline_(has_deadline),
        loop_(config_.backend),
        metrics_(config_.shards > 1 ? "shard=\"" + std::to_string(index) + "\""
                                    : std::string{}) {
    wire_.bytes_per_site.assign(config_.sites, 0);
  }

  void run() {
    using clock = std::chrono::steady_clock;
    WakePipe& wake = *server_.wakes_[index_];
    wake_tag_ = FdTag{TagKind::kWake, &wake};
    listener_tag_ = FdTag{TagKind::kListener, nullptr};
    admin_tag_ = FdTag{TagKind::kAdminListener, nullptr};
    loop_.add(wake.read_fd(), EventLoop::kRead, &wake_tag_);
    loop_.add(server_.listeners_[index_].fd(), EventLoop::kRead, &listener_tag_);
    const bool admin = index_ == 0 && server_.admin_listener_.valid();
    if (admin) loop_.add(server_.admin_listener_.fd(), EventLoop::kRead, &admin_tag_);

    std::vector<EventLoop::Event> events;
    while (!server_.stop_.load(std::memory_order_acquire)) {
      // Done when every site has reported on SOME shard and this shard owes
      // no acks. `flushing_` counts connections with queued ack bytes, so
      // the check is O(1) — no per-round scan of the connection table.
      if (shared_.complete.load(std::memory_order_acquire) && flushing_ == 0) break;
      int wait_ms = -1;
      if (has_deadline_) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline_ - clock::now());
        if (left.count() <= 0) {
          timed_out = true;
          break;
        }
        wait_ms = static_cast<int>(
            std::min<long long>(left.count(), std::numeric_limits<int>::max()));
      }

      loop_.wait(events, wait_ms);
      // Each fd appears at most once per batch (poll and epoll both
      // coalesce readiness into one entry), so a connection destroyed
      // while handling its event cannot be referenced again this batch.
      for (const EventLoop::Event& ev : events) {
        const FdTag* tag = static_cast<const FdTag*>(ev.data);
        switch (tag->kind) {
          case TagKind::kWake:
            wake.drain();
            break;
          case TagKind::kListener:
            accept_new();
            break;
          case TagKind::kAdminListener:
            accept_admin();
            break;
          case TagKind::kSite:
            handle_site(*static_cast<Conn*>(tag->self), ev.events);
            break;
          case TagKind::kAdmin:
            handle_admin(*static_cast<AdminConn*>(tag->self), ev.events);
            break;
        }
      }
    }

    // The shard owns the open-connections gauge for its connections:
    // settle it for ones still alive at exit so a later collection starts
    // from zero.
    metrics_.connections_open.sub(static_cast<std::int64_t>(conns_.size()));
    wire = std::move(wire_);
  }

  ChannelStats wire;
  bool timed_out = false;

 private:
  void accept_new() {
    for (;;) {
      Socket sock = accept_conn(server_.listeners_[index_]);
      if (!sock.valid()) break;
      conns_.emplace_back();
      Conn& conn = conns_.back();
      conn.self = std::prev(conns_.end());
      conn.tag.self = &conn;
      conn.sock = std::move(sock);
      conn.interest = EventLoop::kRead;
      loop_.add(conn.sock.fd(), conn.interest, &conn.tag);
      metrics_.connections_open.add(1);
      metrics_.connections_total.add(1);
    }
  }

  void handle_site(Conn& conn, unsigned revents) {
    if ((revents & EventLoop::kWrite) != 0) flush(conn);
    if ((revents & (EventLoop::kRead | EventLoop::kHangup | EventLoop::kError)) != 0 &&
        !conn.closed) {
      read_from(conn);
    }
    // A connection is finished when the peer is gone and every ack owed
    // to it has been flushed (or can never be).
    if (conn.closed && conn.out.empty()) {
      loop_.remove(conn.sock.fd());
      metrics_.connections_open.sub(1);
      conns_.erase(conn.self);
      return;
    }
    rearm(conn);
  }

  void rearm(Conn& conn) {
    const unsigned want = (conn.closed ? 0u : EventLoop::kRead) |
                          (conn.out.empty() ? 0u : EventLoop::kWrite);
    if (want != conn.interest) {
      loop_.modify(conn.sock.fd(), want, &conn.tag);
      conn.interest = want;
    }
  }

  void accept_admin() {
    for (;;) {
      Socket sock = accept_conn(server_.admin_listener_);
      if (!sock.valid()) break;
      admin_conns_.emplace_back();
      AdminConn& conn = admin_conns_.back();
      conn.self = std::prev(admin_conns_.end());
      conn.tag.self = &conn;
      conn.sock = std::move(sock);
      conn.interest = EventLoop::kRead;
      loop_.add(conn.sock.fd(), conn.interest, &conn.tag);
    }
  }

  void handle_admin(AdminConn& conn, unsigned revents) {
    if ((revents & EventLoop::kWrite) != 0) flush_admin(conn);
    if ((revents & (EventLoop::kRead | EventLoop::kHangup | EventLoop::kError)) != 0 &&
        !conn.responded && !conn.closed) {
      read_admin(conn);
    }
    // Admin clients close as soon as their one response is flushed.
    if (conn.closed || (conn.responded && conn.out.empty())) {
      loop_.remove(conn.sock.fd());
      admin_conns_.erase(conn.self);
      return;
    }
    const unsigned want = ((conn.responded || conn.closed) ? 0u : EventLoop::kRead) |
                          (conn.out.empty() ? 0u : EventLoop::kWrite);
    if (want != conn.interest) {
      loop_.modify(conn.sock.fd(), want, &conn.tag);
      conn.interest = want;
    }
  }

  void read_admin(AdminConn& conn) {
    char buf[1024];
    for (;;) {
      const ssize_t n = ::recv(conn.sock.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        if (conn.in.size() > 4096) {  // no legitimate request is this long
          conn.closed = true;
          return;
        }
        const std::size_t eol = conn.in.find('\n');
        if (eol != std::string::npos) {
          respond_admin(conn, conn.in.substr(0, eol));
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      conn.closed = true;  // EOF before a full request line
      return;
    }
  }

  void respond_admin(AdminConn& conn, std::string request) {
    while (!request.empty() && (request.back() == '\r' || request.back() == ' ')) {
      request.pop_back();
    }
    metrics_.admin_requests.add(1);
    if (request == "GET /metrics") {
      conn.out = obs::render_prometheus(obs::default_registry().snapshot());
    } else if (request == "GET /metrics.json") {
      conn.out = obs::render_json(obs::default_registry().snapshot()) + "\n";
    } else if (request == "GET /health") {
      conn.out = "ok\n";
    } else if (request.rfind("GET /query?e=", 0) == 0 ||
               request.rfind("GET /query.txt?e=", 0) == 0) {
      const bool json = request.rfind("GET /query?e=", 0) == 0;
      const std::string raw =
          request.substr(json ? 13 : 17);  // strlen of the matched prefix
      if (!config_.query_handler) {
        conn.out = "error: query endpoint disabled (no query handler)\n";
      } else {
        try {
          conn.out = config_.query_handler(raw, json);
        } catch (const std::exception& e) {
          conn.out = std::string("error: ") + e.what() + "\n";
        }
      }
    } else {
      conn.out = "error: unknown endpoint (try GET /metrics, GET /metrics.json, "
                 "GET /health, GET /query?e=EXPR)\n";
    }
    conn.responded = true;
    flush_admin(conn);
  }

  void flush_admin(AdminConn& conn) {
    while (!conn.out.empty()) {
      const ssize_t n =
          ::send(conn.sock.fd(), conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        conn.closed = true;
        conn.out.clear();
        return;
      }
      metrics_.bytes_out.add(static_cast<std::uint64_t>(n));
      conn.out.erase(0, static_cast<std::size_t>(n));
    }
  }

  void flush(Conn& conn) {
    if (conn.out.empty()) return;
    while (!conn.out.empty()) {
      const ssize_t n =
          ::send(conn.sock.fd(), conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // still owed
        if (errno == EINTR) continue;
        conn.closed = true;  // peer gone; the ack is undeliverable
        conn.out.clear();
        break;
      }
      metrics_.bytes_out.add(static_cast<std::uint64_t>(n));
      conn.out.erase(conn.out.begin(), conn.out.begin() + n);
    }
    if (conn.out.empty()) flushing_ -= 1;
  }

  void read_from(Conn& conn) {
    std::uint8_t buf[16384];
    for (;;) {
      const ssize_t n = ::recv(conn.sock.fd(), buf, sizeof(buf), 0);
      if (n > 0) {
        metrics_.bytes_in.add(static_cast<std::uint64_t>(n));
        conn.in.insert(conn.in.end(), buf, buf + n);
        if (!parse_frames(conn)) return;  // protocol violation: conn dropped
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      // EOF or hard error. Bytes stranded mid-frame are a truncated
      // transmission — a killed site. They can never decode, so the ledger
      // quarantines them, the same verdict a truncating FaultyChannel
      // delivery gets.
      if (conn.expected.has_value() || !conn.in.empty()) {
        quarantine();
        conn.in.clear();
      }
      conn.closed = true;
      return;
    }
  }

  // Consumes every complete [len][frame] unit in conn.in. Returns false if
  // the connection was dropped for announcing an oversized frame.
  bool parse_frames(Conn& conn) {
    std::size_t offset = 0;
    for (;;) {
      if (!conn.expected.has_value()) {
        if (conn.in.size() - offset < 4) break;
        const std::uint32_t len = read_u32le(conn.in.data() + offset);
        offset += 4;
        if (len > config_.max_frame_bytes) {
          // Not a reassembly state we can recover from: the stream is
          // desynchronized. Count it and drop the connection.
          quarantine();
          conn.closed = true;
          conn.in.clear();
          if (!conn.out.empty()) {
            conn.out.clear();
            flushing_ -= 1;
          }
          return false;
        }
        conn.expected = len;
      }
      const std::uint32_t len = *conn.expected;
      if (conn.in.size() - offset < len) break;
      ingest_frame(conn, std::span<const std::uint8_t>(conn.in.data() + offset, len));
      offset += len;
      conn.expected.reset();
    }
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(offset, conn.in.size())));
    return true;
  }

  void ingest_frame(Conn& conn, std::span<const std::uint8_t> frame_bytes) {
    wire_.messages += 1;
    wire_.total_bytes += frame_bytes.size();
    if (frame_bytes.size() > wire_.max_message_bytes) {
      wire_.max_message_bytes = frame_bytes.size();
    }
    // Attribute the transmission to its claimed site (header peek; the
    // claim is only trusted for ACCOUNTING — acceptance still goes through
    // the full CRC validation in decode). Every observed frame for a site
    // is a real attempt on its behalf: first one a send, later ones
    // retransmissions, mirroring the in-process collector's record_send.
    std::optional<std::size_t> claimed;
    if (frame_bytes.size() >= kFrameHeaderBytes && looks_like_frame(frame_bytes)) {
      const std::uint32_t site = read_u32le(frame_bytes.data() + 8);
      if (site < config_.sites) {
        wire_.bytes_per_site[site] += frame_bytes.size();
        claimed = site;
      }
    }
    // CRC and header checks run outside the arbiter lock.
    std::optional<Frame> frame = CollectState::decode(frame_bytes);
    const bool delta = frame.has_value() && config_.delta_kind.has_value() &&
                       frame->header.kind == *config_.delta_kind;
    const Verdict verdict = arbitrate(claimed, frame, delta, frame_bytes);
    count(verdict, delta);
    if (conn.out.empty()) flushing_ += 1;
    conn.out.push_back(static_cast<std::uint8_t>(verdict));
    flush(conn);  // usually completes inline; kWrite interest covers the rest
  }

  // The one critical section per frame: attempt accounting, the ledger's
  // verdict, the sink, the WAL and the completion check. Holding the mutex
  // across the sink keeps sink calls serialized in global acceptance
  // order, so a vector-slot sink observes exactly the writes a sequential
  // referee would have made — and the WAL append rides the same critical
  // section, so the log order IS the acceptance order for free.
  Verdict arbitrate(std::optional<std::size_t> claimed, std::optional<Frame>& frame,
                    bool delta, std::span<const std::uint8_t> frame_bytes) {
    std::lock_guard<std::mutex> lock(shared_.mu);
    CollectState& ledger = shared_.ledger;
    if (claimed.has_value()) ledger.record_send(*claimed);
    if (!frame.has_value()) return ledger.quarantine();
    const auto sink = [this, delta, frame_bytes](Frame& f) {
      const FrameHeader& h = f.header;
      if (!shared_.sink(h.site, h.epoch, h.group, h.kind, std::move(f.payload))) return false;
      if (server_.durable_ != nullptr) {
        // Log + commit (write to the kernel, fsync per policy) before the
        // ack byte can be queued: an acked frame is always recoverable
        // after kill -9. A crash between sink and here loses nothing — the
        // site never saw an ack, so it retries after the restart.
        server_.durable_->log_accepted(h.site, h.epoch, frame_bytes, delta);
      }
      return true;
    };
    const Verdict verdict = ledger.admit(*frame, sink);
    if (verdict == Verdict::kAccepted && !shared_.continuous && ledger.all_reported() &&
        !shared_.complete.load(std::memory_order_relaxed)) {
      shared_.complete.store(true, std::memory_order_release);
      server_.notify_all();  // every shard re-checks and winds down
    }
    return verdict;
  }

  void quarantine() {
    {
      std::lock_guard<std::mutex> lock(shared_.mu);
      shared_.ledger.quarantine();
    }
    count(Verdict::kQuarantined, false);
  }

  void count(Verdict verdict, bool delta) {
    switch (verdict) {
      case Verdict::kAccepted:
        metrics_.frames_accepted.add(1);
        if (delta) metrics_.frames_delta.add(1);
        break;
      case Verdict::kDuplicate: metrics_.frames_duplicate.add(1); break;
      case Verdict::kStale: metrics_.frames_stale.add(1); break;
      case Verdict::kQuarantined: metrics_.frames_quarantined.add(1); break;
      case Verdict::kResync: metrics_.frames_resync.add(1); break;
    }
  }

  RefereeServer& server_;
  const RefereeServerConfig& config_;
  const std::size_t index_;
  Shared& shared_;
  const std::chrono::steady_clock::time_point deadline_;
  const bool has_deadline_;
  EventLoop loop_;
  ChannelStats wire_;
  std::list<Conn> conns_;
  std::list<AdminConn> admin_conns_;
  RefereeMetrics metrics_;
  std::size_t flushing_ = 0;  // conns with queued ack bytes
  FdTag wake_tag_{TagKind::kWake, nullptr};
  FdTag listener_tag_{TagKind::kListener, nullptr};
  FdTag admin_tag_{TagKind::kAdminListener, nullptr};
};

RefereeServer::RefereeServer(RefereeServerConfig config) : config_(std::move(config)) {
  USTREAM_REQUIRE(config_.sites >= 1, "need at least one site");
  USTREAM_REQUIRE(config_.shards >= 1, "need at least one shard");
  USTREAM_REQUIRE(!config_.delta_kind.has_value() || config_.dedup == DedupMode::kLatestWins,
                  "the delta protocol requires latest-wins dedup");
  if (config_.wal.has_value()) {
    const RefereeServerConfig::Durability& opt = *config_.wal;
    durability::DurableLog::Options log_options;
    log_options.dir = opt.dir;
    log_options.fsync = opt.fsync;
    log_options.fsync_interval = opt.fsync_interval;
    log_options.segment_bytes = opt.segment_bytes;
    log_options.snapshot_every = opt.snapshot_every;
    if (opt.recover) {
      durability::RecoveryOptions rec;
      rec.dir = opt.dir;
      rec.sites = config_.sites;
      rec.expected_kind = config_.expected_kind;
      rec.dedup = config_.dedup;
      rec.delta_kind = config_.delta_kind;
      durable_ = std::make_unique<durability::DurableLog>(
          std::move(log_options), config_.sites, durability::recover_referee_state(rec));
    } else {
      // Fresh run: a dirty dir throws here (DurableLog's constructor) so
      // `serve` fails loudly instead of interleaving two runs' logs.
      const std::uint64_t run_id = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      durable_ = std::make_unique<durability::DurableLog>(std::move(log_options),
                                                          config_.sites, run_id);
    }
  }
  // Shard 0 resolves the port (possibly ephemeral); the rest join it via
  // SO_REUSEPORT so the kernel spreads incoming connections across all
  // acceptors. A single-shard server binds exactly as before.
  const bool multi = config_.shards > 1;
  listeners_.push_back(listen_tcp(config_.bind_host, config_.port, 64, multi));
  port_ = local_port(listeners_.front());
  for (std::size_t k = 1; k < config_.shards; ++k) {
    listeners_.push_back(listen_tcp(config_.bind_host, port_, 64, true));
  }
  for (std::size_t k = 0; k < config_.shards; ++k) {
    wakes_.push_back(std::make_unique<WakePipe>());
  }
  if (config_.admin_port.has_value()) {
    admin_listener_ = listen_tcp(config_.bind_host, *config_.admin_port);
    admin_port_ = local_port(admin_listener_);
  }
}

RefereeServer::Result RefereeServer::run(const PayloadSink& sink) {
  const bool has_deadline = config_.timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + config_.timeout;
  Shared shared(config_, sink);

  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(config_.shards);
  for (std::size_t k = 0; k < config_.shards; ++k) {
    shards.push_back(std::make_unique<Shard>(*this, k, shared, deadline, has_deadline));
  }

  // Recovered sites are preloaded before any loop starts: their payloads
  // reach the sink, and the ledger marks them reported, so re-pushes after
  // the restart dedup exactly as live duplicates would. A site whose
  // replayed payload fails the sink (CRC-collision-grade corruption) is
  // simply left unreported — its pusher retries and re-collects it live.
  if (durable_ != nullptr) {
    const durability::RecoveryResult& rec = durable_->recovered();
    for (std::size_t site = 0; site < rec.sites.size(); ++site) {
      if (!rec.sites[site].has_value()) continue;
      Frame frame = frame_decode(rec.sites[site]->frame);
      if (!sink(site, frame.header.epoch, frame.header.group, frame.header.kind,
                std::move(frame.payload))) {
        continue;
      }
      std::uint32_t head = frame.header.epoch;
      std::uint16_t head_group = frame.header.group;
      // Replay the site's logged delta chain on top of the re-based mirror,
      // in log order. A delta that fails to apply ends the chain there —
      // the site's next delta then earns 'R' and a full frame re-bases it,
      // the same fallback a live chain break takes.
      for (const auto& delta_bytes : rec.sites[site]->deltas) {
        Frame delta = frame_decode(delta_bytes);
        if (!sink(site, delta.header.epoch, delta.header.group, delta.header.kind,
                  std::move(delta.payload))) {
          break;
        }
        head = delta.header.epoch;
        head_group = delta.header.group;
      }
      shared.ledger.restore_accepted(site, head, head_group);
    }
    durable_->release_recovered_frames();
    if (shared.ledger.all_reported() && !shared.continuous) {
      shared.complete.store(true, std::memory_order_release);
    }
  }

  // Shard 0 runs on the calling thread — a single-shard server spawns no
  // threads at all, preserving the original referee exactly. A shard that
  // throws stops the others; the first error is rethrown after the join.
  std::vector<std::exception_ptr> errors(config_.shards);
  std::vector<std::thread> threads;
  threads.reserve(config_.shards - 1);
  for (std::size_t k = 1; k < config_.shards; ++k) {
    threads.emplace_back([this, &shards, &errors, k] {
      try {
        shards[k]->run();
      } catch (...) {
        errors[k] = std::current_exception();
        stop_.store(true, std::memory_order_release);
        notify_all();
      }
    });
  }
  try {
    shards[0]->run();
  } catch (...) {
    errors[0] = std::current_exception();
    stop_.store(true, std::memory_order_release);
    notify_all();
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Exhaustion is a CLIENT-side budget; the server cannot know it, so it
  // never marks sites exhausted — missing sites are reported plain.
  shared.ledger.finalize(std::numeric_limits<std::uint32_t>::max());
  Result res;
  res.report = shared.ledger.report();
  bool any_timed_out = false;
  res.wire.bytes_per_site.assign(config_.sites, 0);
  for (const auto& owned : shards) {
    Shard& shard = *owned;
    any_timed_out = any_timed_out || shard.timed_out;
    res.wire.messages += shard.wire.messages;
    res.wire.total_bytes += shard.wire.total_bytes;
    res.wire.max_message_bytes =
        std::max(res.wire.max_message_bytes, shard.wire.max_message_bytes);
    for (std::size_t s = 0; s < config_.sites; ++s) {
      res.wire.bytes_per_site[s] += shard.wire.bytes_per_site[s];
    }
    res.shards.push_back(std::move(shard.wire));
  }
  res.timed_out = any_timed_out && !res.report.complete();
  if (durable_ != nullptr) {
    durable_->sync_all();  // clean shutdown: everything logged is on disk
    res.durability.enabled = true;
    res.durability.recovered = config_.wal->recover;
    res.durability.sites_recovered = durable_->recovered().sites_recovered();
    res.durability.frames_replayed = durable_->recovered().frames_replayed;
    res.durability.records_logged = durable_->records_logged();
    res.durability.bytes_logged = durable_->bytes_logged();
    res.durability.fsyncs = durable_->fsyncs();
    res.durability.snapshots = durable_->snapshots_written();
    if (config_.wal->recover) {
      res.durability.recovery_summary = durable_->recovered().summary();
    }
  }
  return res;
}

void RefereeServer::notify_all() noexcept {
  for (const auto& wake : wakes_) wake->notify();
}

void RefereeServer::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  notify_all();
}

}  // namespace ustream::net
