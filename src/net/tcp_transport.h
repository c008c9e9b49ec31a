// TcpTransport — the site side of the paper's "one message to the referee",
// over a real socket.
//
// Implements the same Transport interface the protocols are written
// against (distributed/transport.h), so DistributedRun and the CLI push
// path speak to a remote RefereeServer exactly as they speak to the
// in-process Channel. Wire protocol, shared with referee_server.h:
//
//   client -> server :  [u32 LE length][version-1 CRC frame bytes]   (repeat)
//   server -> client :  one ack byte per frame, in order:
//                         'A' accepted   'D' duplicate   'S' stale
//                         'Q' quarantined (failed CRC/decode/kind/site)
//                         'R' resync (delta chain broken; send a full frame)
//
// The length prefix delimits frames on the byte stream; everything about
// integrity stays a frame-layer verdict (common/frame.h) so the server
// quarantines corruption identically to the in-process referee.
//
// Accounting contract (DESIGN.md §6.2): ChannelStats counts every wire
// transmission ATTEMPT — a retransmission after a dropped connection or a
// quarantine ack is a real message the model must pay for, exactly as
// Channel/FaultyChannel count every send(). Connect retries that never get
// as far as writing the frame cost no message bytes and are tracked
// separately (connect_attempts).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "distributed/transport.h"
#include "net/socket.h"

namespace ustream::net {

// Server's frame-layer verdict, echoed to the client. Any ack means the
// bytes reached the referee; only kAccepted means they changed its state.
enum class PushAck : std::uint8_t {
  kAccepted = 'A',
  kDuplicate = 'D',
  kStale = 'S',
  kQuarantined = 'Q',
  // Continuous mode only: the delta frame did not extend the site's chain
  // (gap, unreported site, another shard holds the chain, or the sink
  // could not apply it). NOT retried by
  // send_with_ack — retransmitting the same delta cannot help; the caller
  // must re-base with a full frame at the next epoch.
  kResync = 'R',
};

const char* push_ack_name(PushAck ack) noexcept;

struct TcpTransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  // Connect retry schedule: capped exponential, base * 2^(attempt-1)
  // clamped to max — the same shape as the referee's RetryPolicy.
  std::uint32_t max_connect_attempts = 10;
  std::chrono::microseconds base_backoff{20'000};
  std::chrono::microseconds max_backoff{1'000'000};

  std::chrono::milliseconds connect_timeout{1'000};
  std::chrono::milliseconds io_timeout{5'000};

  // Retransmission budget per send(): how many times the frame is put on
  // the wire before the send is declared undeliverable.
  std::uint32_t max_send_attempts = 4;
};

class TcpTransport final : public Transport {
 public:
  TcpTransport(std::size_t sites, TcpTransportConfig config);

  // Site -> referee over TCP. Reconnects with capped-exponential backoff,
  // retransmits on connection loss or quarantine ack, and records every
  // transmission in ChannelStats. Throws TransportError once both the
  // connect and retransmission budgets are spent. Thread-safe.
  void send(std::size_t from_site, std::vector<std::uint8_t> message) override;

  // Same as send() but hands back the server's frame-layer verdict for the
  // attempt that ended the exchange (the CLI push command reports it).
  PushAck send_with_ack(std::size_t from_site, std::span<const std::uint8_t> message);

  // Client side has no inbox: the referee is at the other end of the wire.
  std::vector<std::vector<std::uint8_t>> drain() override { return {}; }

  ChannelStats stats() const override;
  std::size_t num_sites() const noexcept override { return sites_; }

  // Connections dialed (incl. reconnects) — visible so tests can assert
  // the backoff path really ran.
  std::uint64_t connect_attempts() const;

 private:
  // Ensures conn_ is connected, dialing with backoff. Caller holds mu_.
  void ensure_connected_locked();
  void record_attempt_locked(std::size_t from_site, std::size_t bytes);

  const std::size_t sites_;
  const TcpTransportConfig config_;

  mutable std::mutex mu_;
  Socket conn_;
  ChannelStats stats_;
  std::uint64_t connect_attempts_ = 0;
};

}  // namespace ustream::net
