// The net subsystem end to end: socket primitives, TcpTransport client,
// RefereeServer event loop, and the CLI serve/push pair as real processes
// over loopback.
//
// The load-bearing assertions mirror the soak suite's contract: a referee
// fed over TCP must be BYTE-IDENTICAL to the in-process Channel referee on
// the same traces/seed — complete or degraded — because both paths route
// through the same frames, the same CollectState and the same MergeEngine.
#include "net/referee_server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli/commands.h"
#include "common/frame.h"
#include "core/f0_estimator.h"
#include "core/params.h"
#include "distributed/collect.h"
#include "distributed/faulty_channel.h"
#include "distributed/runtime.h"
#include "common/serialize.h"
#include "freq/count_sketch.h"
#include "freq/freq_sketch.h"
#include "net/socket.h"
#include "net/tcp_transport.h"
#include "obs/metrics.h"
#include "stream/partitioner.h"

// Path to the real `ustream` binary, passed by ctest as the first
// non-gtest argv entry (see tests/CMakeLists.txt); the multi-process test
// is skipped when absent (e.g. running the test binary by hand).
static std::string g_ustream_bin;  // NOLINT

namespace ustream {
namespace {

using net::PushAck;
using net::RefereeServer;
using net::RefereeServerConfig;
using net::TcpTransport;
using net::TcpTransportConfig;

TcpTransportConfig client_config(std::uint16_t port) {
  TcpTransportConfig config;
  config.host = "127.0.0.1";
  config.port = port;
  config.base_backoff = std::chrono::microseconds{1000};
  config.max_backoff = std::chrono::microseconds{20'000};
  return config;
}

TEST(NetSocket, ListenConnectRoundTrip) {
  net::Socket listener = net::listen_tcp("127.0.0.1", 0);
  const std::uint16_t port = net::local_port(listener);
  ASSERT_NE(port, 0);

  net::Socket client = net::connect_tcp("127.0.0.1", port, std::chrono::milliseconds{1000},
                                        std::chrono::milliseconds{1000});
  net::Socket server;
  for (int i = 0; i < 100 && !server.valid(); ++i) {
    server = net::accept_conn(listener);
    if (!server.valid()) std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  ASSERT_TRUE(server.valid());

  const std::vector<std::uint8_t> ping{1, 2, 3, 4, 5};
  net::send_all(client, ping);
  std::vector<std::uint8_t> got(ping.size());
  // The accepted side is nonblocking; poll-by-retry until the bytes land.
  for (int i = 0; i < 100; ++i) {
    try {
      net::recv_exact(server, got);
      break;
    } catch (const net::TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  }
  EXPECT_EQ(got, ping);
}

TEST(NetSocket, ConnectToDeadPortThrowsAfterBackoffBudget) {
  // Grab an ephemeral port and release it: nobody is listening there now.
  std::uint16_t port = 0;
  {
    net::Socket probe = net::listen_tcp("127.0.0.1", 0);
    port = net::local_port(probe);
  }
  TcpTransportConfig config = client_config(port);
  config.max_connect_attempts = 3;
  TcpTransport transport(1, config);
  EXPECT_THROW(transport.send(0, {1, 2, 3}), net::TransportError);
  // The backoff loop really dialed max_connect_attempts times, and no frame
  // ever hit the wire, so the model was charged zero messages.
  EXPECT_EQ(transport.connect_attempts(), 3u);
  EXPECT_EQ(transport.stats().messages, 0u);
}

TEST(NetSocket, UnregisteredSiteIsAProtocolError) {
  TcpTransport transport(2, client_config(1));  // port never dialed
  EXPECT_THROW(transport.send(2, {1}), ProtocolError);
}

// Builds the t per-site sketches for a shared workload — the observation
// phase both referees (in-process and TCP) then consume identically.
struct Workload {
  DistributedWorkload data;
  EstimatorParams params;
  std::vector<F0Estimator> sites;

  explicit Workload(std::size_t t, std::uint64_t seed = 7) {
    DistributedConfig config;
    config.sites = t;
    config.union_distinct = 30'000;
    config.overlap = 0.3;
    config.seed = seed;
    data = make_distributed_workload(config);
    params = EstimatorParams::for_guarantee(0.1, 0.05, seed);
    for (std::size_t s = 0; s < t; ++s) {
      F0Estimator est(params);
      for (const Item& item : data.site_streams[s]) est.add(item.label);
      sites.push_back(std::move(est));
    }
  }

  // The reference referee: the perfect in-process Channel, site-order fold.
  std::vector<std::uint8_t> channel_referee_bytes(const std::vector<bool>* alive = nullptr) {
    auto channel = std::make_unique<FaultyChannel>(sites.size(), FaultSpec{}, 99);
    FaultyChannel* view = channel.get();
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (alive != nullptr && !(*alive)[s]) view->set_site_faults(s, FaultSpec::dropping(1.0));
    }
    const EstimatorParams p = params;
    DistributedRun<F0Estimator> run(sites.size(), [&p] { return F0Estimator(p); },
                                    std::move(channel));
    for (std::size_t s = 0; s < sites.size(); ++s) {
      for (const Item& item : data.site_streams[s]) run.site(s).add(item.label);
    }
    RetryPolicy policy;
    policy.max_attempts_per_site = 2;
    policy.sleep_on_backoff = false;
    return run.collect(policy).serialize();
  }
};

TEST(NetReferee, TcpLoopbackRefereeIsByteIdenticalToChannelReferee) {
  constexpr std::size_t kSites = 4;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.sites = kSites;
  RefereeServer server(config);
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  TcpTransport transport(kSites, client_config(server.port()));
  for (std::size_t s = 0; s < kSites; ++s) {
    transport.send(s, frame_encode({PayloadKind::kF0Estimator,
                                    static_cast<std::uint32_t>(s), 0},
                                   workload.sites[s].serialize()));
  }
  referee.join();

  ASSERT_TRUE(result.report.complete()) << result.report.summary();
  ASSERT_TRUE(result.union_sketch.has_value());
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes());
  EXPECT_EQ(result.report.total_attempts(), kSites);
  EXPECT_EQ(result.wire.messages, kSites);
  EXPECT_FALSE(result.timed_out);
  // Per-site wire attribution matches what each site shipped.
  const ChannelStats client_stats = transport.stats();
  for (std::size_t s = 0; s < kSites; ++s) {
    // Client counts the bare frame; the server observed the same bytes.
    EXPECT_EQ(result.wire.bytes_per_site[s] - kFrameHeaderBytes,
              client_stats.bytes_per_site[s] - kFrameHeaderBytes);
  }
}

TEST(NetReferee, DuplicateWrongKindAndGarbageGetHonestAcks) {
  constexpr std::size_t kSites = 2;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.sites = kSites;
  RefereeServer server(config);
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  TcpTransportConfig tconfig = client_config(server.port());
  tconfig.max_send_attempts = 1;  // surface 'Q' as an error instead of retrying
  TcpTransport transport(kSites, tconfig);

  const auto frame0 = frame_encode({PayloadKind::kF0Estimator, 0, 0},
                                   workload.sites[0].serialize());
  EXPECT_EQ(transport.send_with_ack(0, frame0), PushAck::kAccepted);
  // Retransmission of an already-accepted frame: deduped, acked 'D'.
  EXPECT_EQ(transport.send_with_ack(0, frame0), PushAck::kDuplicate);
  // A structurally valid frame of the WRONG protocol: quarantined.
  const auto wrong_kind = frame_encode({PayloadKind::kDistinctSum, 1, 0},
                                       workload.sites[1].serialize());
  EXPECT_THROW(transport.send_with_ack(1, wrong_kind), net::TransportError);
  // Garbage that is not even a frame: quarantined at decode.
  EXPECT_THROW(transport.send_with_ack(1, std::vector<std::uint8_t>(64, 0xAB)),
               net::TransportError);
  // The real site-1 frame still lands: quarantine never poisons the site.
  const auto frame1 = frame_encode({PayloadKind::kF0Estimator, 1, 0},
                                   workload.sites[1].serialize());
  EXPECT_EQ(transport.send_with_ack(1, frame1), PushAck::kAccepted);
  referee.join();

  ASSERT_TRUE(result.report.complete()) << result.report.summary();
  EXPECT_EQ(result.report.duplicates_dropped, 1u);
  EXPECT_EQ(result.report.frames_quarantined, 2u);
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes());
  // 1 retransmission observed for site 0 (the duplicate).
  EXPECT_GE(result.report.retries, 1u);
}

TEST(NetReferee, KilledSiteDegradesToTheSameLowerBoundAsFaultyChannel) {
  constexpr std::size_t kSites = 3;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.sites = kSites;
  config.timeout = std::chrono::milliseconds{1500};
  RefereeServer server(config);
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  TcpTransport transport(kSites, client_config(server.port()));
  for (std::size_t s = 0; s < 2; ++s) {
    transport.send(s, frame_encode({PayloadKind::kF0Estimator,
                                    static_cast<std::uint32_t>(s), 0},
                                   workload.sites[s].serialize()));
  }
  // Site 2 dies mid-stream: it announces a full frame, ships half of it,
  // and its connection drops. The referee must treat the stranded bytes as
  // a truncated (quarantined) transmission, then time out degraded.
  {
    const auto frame = frame_encode({PayloadKind::kF0Estimator, 2, 0},
                                    workload.sites[2].serialize());
    net::Socket victim = net::connect_tcp("127.0.0.1", server.port(),
                                          std::chrono::milliseconds{1000},
                                          std::chrono::milliseconds{1000});
    const auto len = static_cast<std::uint32_t>(frame.size());
    const std::uint8_t prefix[4] = {
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16), static_cast<std::uint8_t>(len >> 24)};
    net::send_all(victim, prefix);
    net::send_all(victim, std::span<const std::uint8_t>(frame.data(), frame.size() / 2));
  }  // victim socket closes here — mid-frame
  referee.join();

  EXPECT_TRUE(result.report.degraded());
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.report.sites_reported, 2u);
  EXPECT_GE(result.report.frames_quarantined, 1u);
  ASSERT_EQ(result.report.missing_sites(), std::vector<std::size_t>{2});
  ASSERT_TRUE(result.union_sketch.has_value());
  // Degraded-lower-bound semantics over TCP == over FaultyChannel: the
  // referee that lost site 2 to a killed connection is byte-identical to
  // the referee that lost site 2 to a fully dropping channel.
  const std::vector<bool> alive{true, true, false};
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes(&alive));
}

// A site whose sketch was built under different parameters is refused at
// the sink ('Q'), exactly like the CLI referees: the collection ends
// degraded with the good site's union instead of acking every frame and
// then throwing on the unmergeable pair in the final reduce.
TEST(NetReferee, MismatchedSiteParamsAreRefusedNotAcked) {
  constexpr std::size_t kSites = 2;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.sites = kSites;
  config.timeout = std::chrono::milliseconds{1500};
  RefereeServer server(config);
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  TcpTransportConfig tconfig = client_config(server.port());
  tconfig.max_send_attempts = 1;  // surface 'Q' as an error instead of retrying
  TcpTransport transport(kSites, tconfig);
  EXPECT_EQ(transport.send_with_ack(0, frame_encode({PayloadKind::kF0Estimator, 0, 0},
                                                    workload.sites[0].serialize())),
            PushAck::kAccepted);
  F0Estimator alien(EstimatorParams::for_guarantee(0.3, 0.05, 8));
  for (const Item& item : workload.data.site_streams[1]) alien.add(item.label);
  EXPECT_THROW(transport.send_with_ack(1, frame_encode({PayloadKind::kF0Estimator, 1, 0},
                                                       alien.serialize())),
               net::TransportError);
  referee.join();

  EXPECT_TRUE(result.report.degraded());
  EXPECT_EQ(result.report.sites_reported, 1u);
  EXPECT_GE(result.report.frames_quarantined, 1u);
  ASSERT_TRUE(result.union_sketch.has_value());
  EXPECT_EQ(result.union_sketch->serialize(), workload.sites[0].serialize());
}

// One admin round trip: connect, send the one-line request, read the
// response to EOF (the admin protocol is response-then-close).
std::string admin_query(std::uint16_t port, const std::string& request) {
  net::Socket sock = net::connect_tcp("127.0.0.1", port, std::chrono::milliseconds{2000},
                                      std::chrono::milliseconds{2000});
  const std::string line = request + "\n";
  net::send_all(sock, std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(line.data()), line.size()));
  std::string out;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  return out;
}

// Pulls a counter's value out of a render_json metrics line; ~0 if absent.
std::uint64_t json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\",\"type\":\"counter\",\"value\":";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
}

// A gauge's value out of a render_json metrics line; -1 if absent.
std::int64_t json_gauge(const std::string& json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\",\"type\":\"gauge\",\"value\":";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + key.size(), nullptr, 10);
}

// Minimal JSON syntax check (objects, arrays, strings, numbers, literals):
// enough to tell a whole --json line from one cut off mid-object.
bool json_value(const std::string& s, std::size_t& i) {
  const auto ws = [&] {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  };
  ws();
  if (i >= s.size()) return false;
  const char c = s[i];
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++i;
    ws();
    if (i < s.size() && s[i] == close) return ++i, true;
    for (;;) {
      if (c == '{') {
        ws();
        if (i >= s.size() || s[i] != '"' || !json_value(s, i)) return false;
        ws();
        if (i >= s.size() || s[i++] != ':') return false;
      }
      if (!json_value(s, i)) return false;
      ws();
      if (i >= s.size()) return false;
      if (s[i] == close) return ++i, true;
      if (s[i++] != ',') return false;
    }
  }
  if (c == '"') {
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        return ++i, true;
      }
    }
    return false;
  }
  for (const std::string lit : {"true", "false", "null"}) {
    if (s.compare(i, lit.size(), lit) == 0) return i += lit.size(), true;
  }
  char* end = nullptr;
  std::strtod(s.c_str() + i, &end);
  if (end == s.c_str() + i) return false;
  i = static_cast<std::size_t>(end - s.c_str());
  return true;
}

bool json_valid(const std::string& s) {
  std::size_t i = 0;
  return json_value(s, i) && i == s.size();
}

TEST(NetAdmin, ServesLiveMetricsMidCollection) {
  constexpr std::size_t kSites = 2;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.sites = kSites;
  config.admin_port = 0;  // ephemeral; read back below
  RefereeServer server(config);
  ASSERT_TRUE(server.admin_port().has_value());
  const std::uint16_t admin = *server.admin_port();
  ASSERT_NE(admin, 0);
  ASSERT_NE(admin, server.port());

  // The registry is process-global and other tests in this binary run
  // referees too — assert on deltas, not absolutes.
  obs::MetricsRegistry& reg = obs::default_registry();
  const std::uint64_t accepted0 = reg.counter("ustream_referee_frames_accepted_total").value();
  const std::uint64_t requests0 = reg.counter("ustream_referee_admin_requests_total").value();

  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  EXPECT_EQ(admin_query(admin, "GET /health"), "ok\n");

  TcpTransport transport(kSites, client_config(server.port()));
  transport.send(0, frame_encode({PayloadKind::kF0Estimator, 0, 0},
                                 workload.sites[0].serialize()));

  // Mid-collection (site 0 acked, site 1 outstanding): the live snapshot
  // must already show the accepted frame, in both exposition formats.
  const std::string prom = admin_query(admin, "GET /metrics");
  EXPECT_NE(prom.find("# TYPE ustream_referee_frames_accepted_total counter"),
            std::string::npos)
      << prom;
  const std::string json = admin_query(admin, "GET /metrics.json");
  EXPECT_EQ(json_counter(json, "ustream_referee_frames_accepted_total"), accepted0 + 1)
      << json;
  EXPECT_EQ(json.find('\n'), json.size() - 1) << "metrics.json must be one line";

  // A bad request is answered (and the loop survives it).
  EXPECT_EQ(admin_query(admin, "GET /nope").rfind("error:", 0), 0u);

  transport.send(1, frame_encode({PayloadKind::kF0Estimator, 1, 0},
                                 workload.sites[1].serialize()));
  referee.join();

  // Admin traffic never disturbed the collection: complete, byte-identical
  // to the in-process referee, and the ledger agrees with the counters.
  ASSERT_TRUE(result.report.complete()) << result.report.summary();
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes());
  EXPECT_EQ(reg.counter("ustream_referee_frames_accepted_total").value(), accepted0 + 2);
  EXPECT_GE(reg.counter("ustream_referee_admin_requests_total").value(), requests0 + 4);
}

TEST(NetAdmin, QueryEndpointRoutesThroughInstalledHandler) {
  // The admin loop owns only the ROUTE: `/query?e=` (JSON) and
  // `/query.txt?e=` (text) hand the still-percent-encoded expression to
  // the configured handler, and a throwing handler becomes an error
  // response, not a dead admin loop. The handler's semantics (decode,
  // resolve, evaluate) live in the CLI and are covered end to end below.
  Workload workload(1);

  RefereeServerConfig config;
  config.sites = 1;
  config.admin_port = 0;
  struct Seen {
    std::string raw;
    bool json = false;
  };
  std::vector<Seen> seen;  // admin requests run serialized on shard 0's loop
  config.query_handler = [&seen](const std::string& raw, bool as_json) {
    if (raw == "boom") throw std::runtime_error("handler exploded");
    seen.push_back({raw, as_json});
    return as_json ? std::string("{\"echo\":true}\n") : std::string("echo\n");
  };
  RefereeServer server(std::move(config));
  ASSERT_TRUE(server.admin_port().has_value());
  const std::uint16_t admin = *server.admin_port();

  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  EXPECT_EQ(admin_query(admin, "GET /query?e=site%3A0%20%7C%20site%3A1"),
            "{\"echo\":true}\n");
  EXPECT_EQ(admin_query(admin, "GET /query.txt?e=site%3A0"), "echo\n");
  EXPECT_EQ(admin_query(admin, "GET /query?e=boom"), "error: handler exploded\n");
  EXPECT_EQ(admin_query(admin, "GET /health"), "ok\n");  // loop survived the throw

  TcpTransport transport(1, client_config(server.port()));
  transport.send(0, frame_encode({PayloadKind::kF0Estimator, 0, 0},
                                 workload.sites[0].serialize()));
  referee.join();
  ASSERT_TRUE(result.report.complete()) << result.report.summary();

  // The handler saw the RAW query string (decoding is its job), with the
  // route's format flag.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].raw, "site%3A0%20%7C%20site%3A1");
  EXPECT_TRUE(seen[0].json);
  EXPECT_EQ(seen[1].raw, "site%3A0");
  EXPECT_FALSE(seen[1].json);
}

TEST(NetAdmin, QueryEndpointWithoutHandlerReportsDisabled) {
  RefereeServerConfig config;
  config.sites = 1;
  config.admin_port = 0;
  RefereeServer server(std::move(config));
  ASSERT_TRUE(server.admin_port().has_value());
  const std::uint16_t admin = *server.admin_port();

  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });
  EXPECT_EQ(admin_query(admin, "GET /query?e=site%3A0"),
            "error: query endpoint disabled (no query handler)\n");
  server.request_stop();
  referee.join();
}

// ---------------------------------------------------------------------------
// The acceptance ledger every referee shares: one verdict per frame, and a
// sink refusal that leaves the site's entry as it was.

std::vector<std::uint8_t> frame_bytes(std::uint32_t site, std::uint32_t epoch,
                                      PayloadKind kind = PayloadKind::kF0Estimator) {
  return frame_encode({kind, site, epoch}, std::vector<std::uint8_t>{1, 2, 3});
}

// Admits one frame with a sink that takes (or refuses) it.
Verdict admit_one(CollectState& ledger, const std::vector<std::uint8_t>& bytes,
                  bool take = true) {
  Frame frame = frame_decode(bytes);
  return ledger.admit(frame, [take](Frame&) { return take; });
}

TEST(CollectLedger, VerdictsAreTheAckBytes) {
  CollectState ledger(2, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  ledger.enable_deltas(PayloadKind::kF0Delta);
  const auto ack = [](Verdict v) { return static_cast<PushAck>(v); };
  EXPECT_EQ(ack(admit_one(ledger, frame_bytes(0, 4))), PushAck::kAccepted);
  EXPECT_EQ(ack(admit_one(ledger, frame_bytes(0, 4))), PushAck::kDuplicate);
  EXPECT_EQ(ack(admit_one(ledger, frame_bytes(0, 2))), PushAck::kStale);
  EXPECT_EQ(ack(ledger.admit(std::vector<std::uint8_t>(64, 0xAB),
                             [](Frame&) { return true; })),
            PushAck::kQuarantined);
  EXPECT_EQ(ack(admit_one(ledger, frame_bytes(1, 1, PayloadKind::kF0Delta))),
            PushAck::kResync);
  const CollectReport& report = ledger.report();
  EXPECT_EQ(report.sites_reported, 1u);
  EXPECT_EQ(report.duplicates_dropped, 1u);
  EXPECT_EQ(report.stale_dropped, 1u);
  EXPECT_EQ(report.frames_quarantined, 1u);
  EXPECT_EQ(report.resyncs, 1u);
}

TEST(CollectLedger, RefusedFullFrameLeavesTheEntryAsItWas) {
  CollectState ledger(2, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  // A refused first frame: Q, and the site stays open for a retry.
  EXPECT_EQ(admit_one(ledger, frame_bytes(0, 5), /*take=*/false), Verdict::kQuarantined);
  EXPECT_FALSE(ledger.site_reported(0));
  EXPECT_EQ(ledger.report().sites_reported, 0u);
  // A refused newer frame: Q, and the site stays reported at the epoch
  // the sink still holds.
  ASSERT_EQ(admit_one(ledger, frame_bytes(1, 3)), Verdict::kAccepted);
  EXPECT_EQ(admit_one(ledger, frame_bytes(1, 7), /*take=*/false), Verdict::kQuarantined);
  EXPECT_TRUE(ledger.site_reported(1));
  EXPECT_EQ(ledger.report().sites_reported, 1u);
  EXPECT_EQ(ledger.report().per_site[1].accepted_epoch, 3u);
  EXPECT_EQ(ledger.report().frames_quarantined, 2u);
  // The retransmission the Q asked for is judged against that entry.
  EXPECT_EQ(admit_one(ledger, frame_bytes(1, 7)), Verdict::kAccepted);
  EXPECT_EQ(ledger.report().per_site[1].accepted_epoch, 7u);
}

TEST(CollectLedger, RefusedDeltaCountsOneResyncAndNoQuarantine) {
  CollectState ledger(1, PayloadKind::kF0Estimator, DedupMode::kLatestWins);
  ledger.enable_deltas(PayloadKind::kF0Delta);
  ASSERT_EQ(admit_one(ledger, frame_bytes(0, 1)), Verdict::kAccepted);
  EXPECT_EQ(admit_one(ledger, frame_bytes(0, 2, PayloadKind::kF0Delta), false),
            Verdict::kResync);
  EXPECT_EQ(ledger.report().resyncs, 1u);
  EXPECT_EQ(ledger.report().frames_quarantined, 0u);
  EXPECT_EQ(ledger.report().deltas_applied, 0u);
  EXPECT_EQ(ledger.report().per_site[0].accepted_epoch, 1u);
  // The chain is intact: the next good delta at the same epoch extends it.
  EXPECT_EQ(admit_one(ledger, frame_bytes(0, 2, PayloadKind::kF0Delta)), Verdict::kAccepted);
  EXPECT_EQ(ledger.report().deltas_applied, 1u);
}

TEST(CollectLedger, CrossShardDuplicateCountsTheSiteOnce) {
  CollectState ledger(2, PayloadKind::kF0Estimator, DedupMode::kExactlyOnce);
  ledger.record_send(0);
  ASSERT_EQ(admit_one(ledger, frame_bytes(0, 0)), Verdict::kAccepted);
  ledger.record_send(0);
  EXPECT_EQ(admit_one(ledger, frame_bytes(0, 0)), Verdict::kDuplicate);
  EXPECT_EQ(ledger.report().sites_reported, 1u);
  EXPECT_EQ(ledger.report().per_site[0].attempts, 2u);
  EXPECT_EQ(ledger.report().duplicates_dropped, 1u);
  EXPECT_EQ(ledger.report().retries, 1u);
}

// A newer full frame the store refuses (another seed: it cannot merge with
// what the store holds) is quarantined, and the site stays reported at the
// epoch the store still holds — the ledger and the union agree.
TEST(NetReferee, RefusedNewerFrameKeepsTheSiteReported) {
  RefereeServerConfig config;
  config.sites = 1;
  config.dedup = DedupMode::kLatestWins;
  config.continuous = true;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));
  SiteSketchStore<F0Estimator> store(1);
  RefereeServer::Result result;
  std::thread referee([&server, &result, &store] {
    result = server.run([&store](std::size_t site, std::uint32_t, std::uint16_t group,
                                 PayloadKind kind, std::vector<std::uint8_t>&& payload) {
      return store.accept(site, group, kind, payload);
    });
  });

  F0Estimator mine(EstimatorParams::for_guarantee(0.2, 0.1, 61));
  F0Estimator alien(EstimatorParams::for_guarantee(0.2, 0.1, 62));
  for (std::uint64_t label = 0; label < 500; ++label) {
    mine.add(label);
    alien.add(label);
  }
  TcpTransportConfig tconfig = client_config(server.port());
  tconfig.max_send_attempts = 4;
  TcpTransport transport(1, tconfig);
  EXPECT_EQ(transport.send_with_ack(
                0, frame_encode({PayloadKind::kF0Estimator, 0, 1}, mine.serialize())),
            PushAck::kAccepted);
  EXPECT_THROW(transport.send_with_ack(
                   0, frame_encode({PayloadKind::kF0Estimator, 0, 2}, alien.serialize())),
               net::TransportError);
  server.request_stop();
  referee.join();

  EXPECT_TRUE(store.has(0));
  EXPECT_TRUE(result.report.complete()) << result.report.summary();
  EXPECT_TRUE(result.report.per_site[0].reported);
  EXPECT_EQ(result.report.per_site[0].accepted_epoch, 1u);
  EXPECT_EQ(result.report.frames_quarantined, 4u);
}

TEST(NetReferee, BindAllInterfacesAcceptsLoopbackClients) {
  // `serve --bind 0.0.0.0` — the wildcard listener must run a complete
  // round for clients dialing any local address (here loopback), with the
  // same ledger/estimate as the default 127.0.0.1 bind.
  constexpr std::size_t kSites = 3;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.bind_host = "0.0.0.0";
  config.sites = kSites;
  RefereeServer server(config);
  EXPECT_NE(server.port(), 0);
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  TcpTransport transport(kSites, client_config(server.port()));
  for (std::size_t s = 0; s < kSites; ++s) {
    transport.send(s, frame_encode({PayloadKind::kF0Estimator,
                                    static_cast<std::uint32_t>(s), 0},
                                   workload.sites[s].serialize()));
  }
  referee.join();

  ASSERT_TRUE(result.report.complete()) << result.report.summary();
  ASSERT_TRUE(result.union_sketch.has_value());
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes());
}

// ---------------------------------------------------------------------------
// The sharded referee. SO_REUSEPORT routing is the kernel's choice, so
// every assertion here must hold REGARDLESS of which shard each connection
// landed on — that invariance is precisely the tentpole's claim.

TEST(NetShardedReferee, ShardedServerIsByteIdenticalToSequentialReferee) {
  constexpr std::size_t kSites = 8;
  Workload workload(kSites);

  obs::MetricsRegistry& reg = obs::default_registry();
  std::uint64_t accepted0 = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    accepted0 += reg.counter("ustream_referee_frames_accepted_total",
                             "shard=\"" + std::to_string(k) + "\"").value();
  }

  RefereeServerConfig config;
  config.sites = kSites;
  config.shards = 3;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });

  // One transport (= one connection) per site so the kernel spreads the
  // connections across the SO_REUSEPORT acceptors.
  for (std::size_t s = 0; s < kSites; ++s) {
    TcpTransport transport(kSites, client_config(server.port()));
    transport.send(s, frame_encode({PayloadKind::kF0Estimator,
                                    static_cast<std::uint32_t>(s), 0},
                                   workload.sites[s].serialize()));
  }
  referee.join();

  // The union sketch: byte-identical to the in-process sequential referee.
  ASSERT_TRUE(result.report.complete()) << result.report.summary();
  ASSERT_TRUE(result.union_sketch.has_value());
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes());

  // The folded ledger: identical to what the sequential referee reports.
  EXPECT_EQ(result.report.sites_reported, kSites);
  EXPECT_EQ(result.report.total_attempts(), kSites);
  EXPECT_EQ(result.report.retries, 0u);
  EXPECT_EQ(result.report.duplicates_dropped, 0u);
  EXPECT_FALSE(result.timed_out);

  // Wire accounting folds across shards without loss.
  EXPECT_EQ(result.wire.messages, kSites);
  ASSERT_EQ(result.shards.size(), 3u);
  std::size_t shard_frames = 0;
  std::uint64_t shard_bytes = 0;
  for (const auto& shard : result.shards) {
    shard_frames += shard.messages;
    shard_bytes += shard.total_bytes;
  }
  EXPECT_EQ(shard_frames, result.wire.messages);
  EXPECT_EQ(shard_bytes, result.wire.total_bytes);

  // Sharded metrics are per-shard labeled series; their sum is the fleet
  // view a dashboard aggregates.
  std::uint64_t accepted1 = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    accepted1 += reg.counter("ustream_referee_frames_accepted_total",
                             "shard=\"" + std::to_string(k) + "\"").value();
  }
  EXPECT_EQ(accepted1 - accepted0, kSites);
}

TEST(NetShardedReferee, CrossShardDuplicatesCollapseToOneAcceptance) {
  // 12 pushes of the SAME (site, epoch) over 12 fresh connections: however
  // the kernel spreads them, exactly one wins the shared arbiter and the
  // sink runs exactly once — the sharded ledger cannot double-count a
  // site. A second holdout site completes the round only AFTER the
  // duplicate storm, keeping the server in-round throughout.
  constexpr std::size_t kPushes = 12;
  Workload workload(2);

  RefereeServerConfig config;
  config.sites = 2;
  config.shards = 4;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));

  std::atomic<std::size_t> sink_calls{0};
  RefereeServer::Result result;
  std::thread referee([&server, &result, &sink_calls] {
    result = server.run([&sink_calls](std::size_t, std::uint32_t, std::uint16_t, PayloadKind,
                                      std::vector<std::uint8_t>&&) {
      sink_calls.fetch_add(1, std::memory_order_relaxed);
      return true;
    });
  });

  const auto frame = frame_encode({PayloadKind::kF0Estimator, 0, 0},
                                  workload.sites[0].serialize());
  std::size_t accepted = 0, duplicate = 0;
  for (std::size_t i = 0; i < kPushes; ++i) {
    TcpTransport transport(2, client_config(server.port()));
    switch (transport.send_with_ack(0, frame)) {
      case PushAck::kAccepted: ++accepted; break;
      case PushAck::kDuplicate: ++duplicate; break;
      default: ADD_FAILURE() << "unexpected ack on push " << i; break;
    }
  }
  {
    TcpTransport transport(2, client_config(server.port()));
    EXPECT_EQ(transport.send_with_ack(
                  1, frame_encode({PayloadKind::kF0Estimator, 1, 0},
                                  workload.sites[1].serialize())),
              PushAck::kAccepted);
  }
  referee.join();

  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(duplicate, kPushes - 1);
  EXPECT_EQ(sink_calls.load(), 2u);
  EXPECT_TRUE(result.report.complete());
  EXPECT_EQ(result.report.sites_reported, 2u);
  EXPECT_EQ(result.report.duplicates_dropped, kPushes - 1);
  EXPECT_EQ(result.report.total_attempts(), kPushes + 1);
  EXPECT_EQ(result.report.retries, kPushes - 1);
}

TEST(NetShardedReferee, LatestWinsEpochOrderHoldsAcrossShards) {
  // Epochs 2, 5, then 3 over three fresh connections (each acked before
  // the next is sent): whatever shards they land on, the global verdicts
  // must be accept, accept, stale — and the final ledger holds epoch 5.
  // A holdout second site closes the round after the epoch traffic, since
  // a complete round ends the server in every dedup mode.
  Workload workload(2);

  RefereeServerConfig config;
  config.sites = 2;
  config.shards = 3;
  config.dedup = DedupMode::kLatestWins;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));

  std::vector<std::uint32_t> delivered;
  RefereeServer::Result result;
  std::thread referee([&server, &result, &delivered] {
    result = server.run([&delivered](std::size_t, std::uint32_t epoch, std::uint16_t, PayloadKind,
                                     std::vector<std::uint8_t>&&) {
      delivered.push_back(epoch);  // serialized under the arbiter mutex
      return true;
    });
  });

  const auto push = [&](std::uint32_t site, std::uint32_t epoch) {
    TcpTransport transport(2, client_config(server.port()));
    return transport.send_with_ack(
        site, frame_encode({PayloadKind::kF0Estimator, site, epoch},
                           workload.sites[site].serialize()));
  };
  EXPECT_EQ(push(0, 2), PushAck::kAccepted);
  EXPECT_EQ(push(0, 5), PushAck::kAccepted);
  EXPECT_EQ(push(0, 3), PushAck::kStale);
  EXPECT_EQ(push(1, 7), PushAck::kAccepted);
  referee.join();

  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{2, 5, 7}));
  EXPECT_EQ(result.report.sites_reported, 2u);
  EXPECT_EQ(result.report.stale_dropped, 1u);
  EXPECT_EQ(result.report.duplicates_dropped, 0u);
  EXPECT_EQ(result.report.per_site[0].accepted_epoch, 5u);
}

TEST(NetShardedReferee, GroupedCollectionIsByteIdenticalAcrossShardCounts) {
  // Two groups' traffic interleaved over per-site connections (sites
  // alternate group 1 / group 2, one connection each so the kernel spreads
  // them): however SO_REUSEPORT routes the frames, the folded ledger's
  // group tags and the per-group reductions must be byte-identical to a
  // single-shard referee fed the same frames — the grouped extension of
  // the sharding invariance claim.
  constexpr std::size_t kSites = 8;
  Workload workload(kSites);
  const auto group_of = [](std::size_t site) {
    return static_cast<std::uint16_t>(site % 2 == 0 ? 1 : 2);
  };

  const auto run_referee = [&](std::size_t shards) {
    RefereeServerConfig config;
    config.sites = kSites;
    config.shards = shards;
    config.timeout = std::chrono::milliseconds{30'000};
    RefereeServer server(std::move(config));

    std::vector<std::optional<F0Estimator>> accepted(kSites);
    RefereeServer::Result result;
    std::thread referee([&server, &result, &accepted] {
      result = server.run([&accepted](std::size_t site, std::uint32_t, std::uint16_t,
                                      PayloadKind, std::vector<std::uint8_t>&& payload) {
        // Serialized under the shared arbiter mutex, so the plain vector
        // is safe even with four shard loops.
        accepted[site] = F0Estimator::deserialize(std::span<const std::uint8_t>(payload));
        return true;
      });
    });
    for (std::size_t s = 0; s < kSites; ++s) {
      TcpTransport transport(kSites, client_config(server.port()));
      transport.send(s, frame_encode({PayloadKind::kF0Estimator,
                                      static_cast<std::uint32_t>(s), 0, group_of(s)},
                                     workload.sites[s].serialize()));
    }
    referee.join();
    return std::pair{std::move(result), std::move(accepted)};
  };

  auto [sharded, sharded_accepted] = run_referee(4);
  auto [single, single_accepted] = run_referee(1);
  ASSERT_TRUE(sharded.report.complete()) << sharded.report.summary();
  ASSERT_TRUE(single.report.complete()) << single.report.summary();
  for (std::size_t s = 0; s < kSites; ++s) {
    EXPECT_EQ(sharded.report.per_site[s].group, group_of(s)) << "site " << s;
    EXPECT_EQ(single.report.per_site[s].group, group_of(s)) << "site " << s;
  }

  const auto sharded_groups =
      reduce_groups<F0Estimator>(sharded.report, std::move(sharded_accepted));
  const auto single_groups =
      reduce_groups<F0Estimator>(single.report, std::move(single_accepted));
  ASSERT_EQ(sharded_groups.size(), 2u);
  ASSERT_EQ(single_groups.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(sharded_groups[k].group, single_groups[k].group);
    EXPECT_EQ(sharded_groups[k].sites, single_groups[k].sites);
    EXPECT_EQ(sharded_groups[k].sketch.serialize(), single_groups[k].sketch.serialize());
    // And both match a site-order fold of just that group's members — the
    // "one single-group collection per group" reference from collect.h.
    std::vector<std::optional<F0Estimator>> members;
    for (std::size_t s : sharded_groups[k].sites) members.emplace_back(workload.sites[s]);
    auto reference = MergeEngine::shared().reduce(std::move(members));
    ASSERT_TRUE(reference.has_value());
    EXPECT_EQ(sharded_groups[k].sketch.serialize(), reference->serialize());
  }
}

TEST(NetShardedReferee, FreqCollectionIsByteIdenticalAcrossShardCounts) {
  // The ISSUE acceptance claim for the frequency subsystem: heavy-hitter
  // estimates over the union are IDENTICAL whether the sites land on 1
  // shard or 4 — the freq merge algebra (no-truncation SpaceSaver union +
  // counter addition) is merge-tree invariant, so the sharded referee's
  // tree reduce and the sequential site-order fold serialize alike.
  constexpr std::size_t kSites = 8;
  const FreqConfig freq_config{.depth = 4, .width_log2 = 10, .heavy_capacity = 32,
                               .seed = 99};
  std::vector<FreqSketch> sites(kSites, FreqSketch(freq_config));
  Xoshiro256 rng(63);
  for (std::size_t s = 0; s < kSites; ++s) {
    for (int i = 0; i < 20'000; ++i) sites[s].add(rng.below(4'000));
  }

  const auto run_referee = [&](std::size_t shards) {
    RefereeServerConfig config;
    config.sites = kSites;
    config.shards = shards;
    config.expected_kind = PayloadKind::kFreqSketch;
    config.timeout = std::chrono::milliseconds{30'000};
    RefereeServer server(std::move(config));

    std::vector<std::optional<FreqSketch>> accepted(kSites);
    RefereeServer::Result result;
    std::thread referee([&server, &result, &accepted] {
      result = server.run([&accepted](std::size_t site, std::uint32_t, std::uint16_t,
                                      PayloadKind, std::vector<std::uint8_t>&& payload) {
        accepted[site] =
            FreqSketch::deserialize(std::span<const std::uint8_t>(payload));
        return true;
      });
    });
    for (std::size_t s = 0; s < kSites; ++s) {
      TcpTransport transport(kSites, client_config(server.port()));
      transport.send(s, frame_encode({PayloadKind::kFreqSketch,
                                      static_cast<std::uint32_t>(s), 0},
                                     sites[s].serialize()));
    }
    referee.join();
    EXPECT_TRUE(result.report.complete()) << result.report.summary();
    auto merged = MergeEngine::shared().reduce(std::move(accepted));
    EXPECT_TRUE(merged.has_value());
    return merged->serialize();
  };

  const auto sharded = run_referee(4);
  const auto single = run_referee(1);
  EXPECT_EQ(sharded, single);

  // Both equal the sequential site-order fold of the raw site summaries.
  FreqSketch fold = sites[0];
  for (std::size_t s = 1; s < kSites; ++s) fold.merge(sites[s]);
  EXPECT_EQ(single, fold.serialize());

  // And the heavy-hitter table those bytes answer from is the union's.
  const FreqSketch restored =
      FreqSketch::deserialize(std::span<const std::uint8_t>(single));
  const auto top = restored.top(10);
  ASSERT_FALSE(top.empty());
  for (const auto& hh : top) {
    EXPECT_GE(hh.estimate, hh.lower);
    EXPECT_LE(hh.estimate, hh.upper);
  }
}

TEST(NetShardedReferee, PollBackendMatchesEpollBackend) {
  // The same sharded collection through the poll fallback: identical
  // bytes, identical ledger. Guards the fallback against rotting.
  constexpr std::size_t kSites = 4;
  Workload workload(kSites);

  RefereeServerConfig config;
  config.sites = kSites;
  config.shards = 2;
  config.backend = net::EventLoop::Backend::kPoll;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });
  for (std::size_t s = 0; s < kSites; ++s) {
    TcpTransport transport(kSites, client_config(server.port()));
    transport.send(s, frame_encode({PayloadKind::kF0Estimator,
                                    static_cast<std::uint32_t>(s), 0},
                                   workload.sites[s].serialize()));
  }
  referee.join();
  ASSERT_TRUE(result.report.complete()) << result.report.summary();
  EXPECT_EQ(result.union_sketch->serialize(), workload.channel_referee_bytes());
}

TEST(NetReferee, RequestStopEndsTheLoopDegraded) {
  RefereeServerConfig config;
  config.sites = 1;
  RefereeServer server(config);
  net::NetCollectResult<F0Estimator> result;
  std::thread referee([&server, &result] {
    result = net::collect_and_merge<F0Estimator>(server);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  server.request_stop();
  referee.join();
  EXPECT_TRUE(result.report.degraded());
  EXPECT_FALSE(result.timed_out);
  EXPECT_FALSE(result.union_sketch.has_value());  // zero sites: no union
}

// ---------------------------------------------------------------------------
// The acceptance test: `ustream serve` + tx `ustream push` as REAL processes
// over loopback, byte-identical to the in-process pipeline on the same
// traces/seed, with --json output parsed rather than prose scraped.

class NetCliTest : public ::testing::Test {
 protected:
  std::string dir_ = ::testing::TempDir();
  std::vector<std::string> files_;

  std::string path(const std::string& name) {
    files_.push_back(dir_ + "/net_" + name);
    return files_.back();
  }

  void TearDown() override {
    for (const auto& f : files_) std::remove(f.c_str());
  }

  static std::pair<int, std::string> invoke(const std::vector<std::string>& argv) {
    std::string out;
    const int code = cli::run(argv, out);
    return {code, out};
  }

  static std::vector<std::uint8_t> slurp(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
  }

  // Polls for the serve process's port file.
  static std::uint16_t wait_for_port(const std::string& port_file) {
    for (int i = 0; i < 200; ++i) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) return static_cast<std::uint16_t>(port);
      std::this_thread::sleep_for(std::chrono::milliseconds{25});
    }
    return 0;
  }
};

TEST_F(NetCliTest, MultiProcessServePushMatchesInProcessMergeByteForByte) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  // Observation phase: shared files, exactly as the in-process CLI test.
  const auto t0 = path("s0.trace"), t1 = path("s1.trace");
  const auto s0 = path("s0.sk"), s1 = path("s1.sk");
  const auto inproc = path("union_inproc.sk"), net_sk = path("union_net.sk");
  const auto port_file = path("port.txt"), serve_log = path("serve.json");
  for (const auto& [trace, seed] : {std::pair{t0, "1"}, std::pair{t1, "2"}}) {
    auto [code, out] = invoke({"generate", "--distinct", "20000", "--items", "60000",
                               "--seed", seed, "--out", trace});
    ASSERT_EQ(code, 0) << out;
  }
  for (const auto& [trace, sketch] : {std::pair{t0, s0}, std::pair{t1, s1}}) {
    auto [code, out] = invoke({"sketch", "--in", trace, "--eps", "0.1", "--delta", "0.05",
                               "--seed", "42", "--out", sketch});
    ASSERT_EQ(code, 0) << out;
  }
  auto [mcode, mout] = invoke({"merge", "--out", inproc, s0, s1});
  ASSERT_EQ(mcode, 0) << mout;

  // Referee process. popen keeps the pipe open until the server exits, so
  // reading to EOF below is also the "wait for completion" step.
  const std::string serve_cmd = g_ustream_bin + " serve --port 0 --sites 2 --json" +
                                " --timeout-ms 30000 --out " + net_sk +
                                " --port-file " + port_file + " 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  ASSERT_NE(port, 0) << "serve never wrote its port file";

  // Site processes.
  const std::string target = " --to 127.0.0.1:" + std::to_string(port);
  ASSERT_EQ(std::system((g_ustream_bin + " push" + target + " --site 0 " + s0 +
                         " > /dev/null 2>&1").c_str()), 0);
  ASSERT_EQ(std::system((g_ustream_bin + " push" + target + " --site 1 " + s1 +
                         " > /dev/null 2>&1").c_str()), 0);

  std::string serve_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
  const int status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(status)) << serve_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << serve_out;
  EXPECT_NE(serve_out.find("\"degraded\":false"), std::string::npos) << serve_out;
  EXPECT_NE(serve_out.find("\"sites_reported\":2"), std::string::npos) << serve_out;

  // The whole point: two processes over TCP produced the same referee, to
  // the byte, as the in-process merge of the same sketch files.
  const auto net_bytes = slurp(net_sk);
  ASSERT_FALSE(net_bytes.empty());
  EXPECT_EQ(net_bytes, slurp(inproc));

  // And scripts can read the estimate without scraping prose.
  auto [jcode, jout] = invoke({"estimate", "--json", net_sk});
  ASSERT_EQ(jcode, 0) << jout;
  EXPECT_EQ(jout.find("{\"file\":"), 0u) << jout;
  EXPECT_NE(jout.find("\"estimate\":"), std::string::npos) << jout;
  auto [icode, iout] = invoke({"info", "--json", net_sk});
  ASSERT_EQ(icode, 0) << iout;
  EXPECT_NE(iout.find("\"format\":\"framed-sketch\""), std::string::npos) << iout;
}

// The ISSUE 5 acceptance test: real serve/push processes, with the admin
// endpoint queried MID-collection (site 0 acked, site 1 outstanding) via
// `ustream stats`, and the live frame counters cross-checked against the
// final CollectReport ledger. A fresh serve process starts its registry at
// zero, so absolute counter values are meaningful here (unlike in-process
// tests, which must use deltas).
TEST_F(NetCliTest, AdminEndpointServesMetricsMidCollectionMatchingLedger) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  const auto t0 = path("a0.trace"), t1 = path("a1.trace");
  const auto s0 = path("a0.sk"), s1 = path("a1.sk");
  const auto port_file = path("aport.txt"), admin_port_file = path("aadmin.txt");
  for (const auto& [trace, seed] : {std::pair{t0, "7"}, std::pair{t1, "8"}}) {
    ASSERT_EQ(invoke({"generate", "--distinct", "8000", "--items", "20000",
                      "--seed", seed, "--out", trace}).first, 0);
  }
  for (const auto& [trace, sketch] : {std::pair{t0, s0}, std::pair{t1, s1}}) {
    ASSERT_EQ(invoke({"sketch", "--in", trace, "--seed", "42", "--out", sketch}).first, 0);
  }

  // --stats makes serve dump its own registry as a metrics.json line on
  // exit — that is the "final ledger view" half of the cross-check.
  const std::string serve_cmd = g_ustream_bin + " serve --port 0 --sites 2 --json" +
                                " --stats --timeout-ms 30000" +
                                " --port-file " + port_file +
                                " --admin-port-file " + admin_port_file + " 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  const std::uint16_t admin = wait_for_port(admin_port_file);
  ASSERT_NE(port, 0) << "serve never wrote its port file";
  ASSERT_NE(admin, 0) << "serve never wrote its admin port file";

  const std::string target = " --to 127.0.0.1:" + std::to_string(port);
  ASSERT_EQ(std::system((g_ustream_bin + " push" + target + " --site 0 " + s0 +
                         " > /dev/null 2>&1").c_str()), 0);

  // Mid-collection: the push above was acked (so ingested), site 1 has not
  // reported. Query the live registry through the stats CLI.
  const std::string admin_target = "127.0.0.1:" + std::to_string(admin);
  auto [hcode, hout] = invoke({"stats", "--from", admin_target, "--health"});
  ASSERT_EQ(hcode, 0) << hout;
  EXPECT_EQ(hout, "ok\n");
  auto [jcode, mid_json] = invoke({"stats", "--from", admin_target, "--json"});
  ASSERT_EQ(jcode, 0) << mid_json;
  EXPECT_EQ(json_counter(mid_json, "ustream_referee_frames_accepted_total"), 1u) << mid_json;
  EXPECT_EQ(json_counter(mid_json, "ustream_referee_connections_total"), 1u) << mid_json;
  EXPECT_EQ(json_counter(mid_json, "ustream_referee_frames_duplicate_total"), 0u) << mid_json;
  // The default (Prometheus text) form works against the same endpoint.
  auto [pcode, mid_prom] = invoke({"stats", "--from", admin_target});
  ASSERT_EQ(pcode, 0) << mid_prom;
  EXPECT_NE(mid_prom.find("ustream_referee_frames_accepted_total 1\n"), std::string::npos)
      << mid_prom;

  // --stats before the positional: boolean flags must not swallow the
  // sketch-file argument.
  ASSERT_EQ(std::system((g_ustream_bin + " push" + target + " --site 1 --stats " + s1 +
                         " > /dev/null 2>&1").c_str()), 0);

  std::string serve_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
  const int status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(status)) << serve_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << serve_out;

  // Ledger (report line): both sites reported, two wire frames, none bad.
  EXPECT_NE(serve_out.find("\"degraded\":false"), std::string::npos) << serve_out;
  EXPECT_NE(serve_out.find("\"sites_reported\":2"), std::string::npos) << serve_out;

  // Counters (metrics line): must agree with the ledger — two accepted
  // frames total (the mid-push view saw exactly the first), zero bad, and
  // the open-connections gauge settled back to zero.
  EXPECT_EQ(json_counter(serve_out, "ustream_referee_frames_accepted_total"), 2u) << serve_out;
  EXPECT_EQ(json_counter(serve_out, "ustream_referee_frames_duplicate_total"), 0u) << serve_out;
  EXPECT_EQ(json_counter(serve_out, "ustream_referee_frames_stale_total"), 0u) << serve_out;
  EXPECT_EQ(json_counter(serve_out, "ustream_referee_frames_quarantined_total"), 0u)
      << serve_out;
  EXPECT_GE(json_counter(serve_out, "ustream_referee_admin_requests_total"), 3u) << serve_out;
  EXPECT_NE(serve_out.find("\"name\":\"ustream_referee_connections_open\","
                           "\"type\":\"gauge\",\"value\":0"),
            std::string::npos)
      << serve_out;
}

TEST_F(NetCliTest, ServeExitsDegradedWhenASiteNeverPushes) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  const auto trace = path("d.trace");
  const auto sketch = path("d.sk");
  const auto port_file = path("dport.txt");
  ASSERT_EQ(invoke({"generate", "--distinct", "5000", "--items", "10000", "--out", trace})
                .first, 0);
  ASSERT_EQ(invoke({"sketch", "--in", trace, "--out", sketch}).first, 0);

  const std::string serve_cmd = g_ustream_bin + " serve --port 0 --sites 2 --json" +
                                " --timeout-ms 2000 --port-file " + port_file + " 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  ASSERT_NE(port, 0);
  ASSERT_EQ(std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                         " --site 0 " + sketch + " > /dev/null 2>&1").c_str()), 0);

  std::string serve_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
  const int status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(status)) << serve_out;
  // Degraded collection is a DISTINCT exit code (3), same as `collect`.
  EXPECT_EQ(WEXITSTATUS(status), 3) << serve_out;
  EXPECT_NE(serve_out.find("\"degraded\":true"), std::string::npos) << serve_out;
  EXPECT_NE(serve_out.find("\"timed_out\":true"), std::string::npos) << serve_out;
}

// Continuous mode as real processes: a well-configured delta pusher
// converges, and a site whose sketch was built under DIFFERENT (eps, seed)
// parameters gets its frames rejected — the referee must survive to its
// deadline and report honestly, not die mid-run on the un-mergeable
// mirror (the crash this test pins down).
TEST_F(NetCliTest, ContinuousServeSurvivesMismatchedSiteParams) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  const auto port_file = path("cport.txt");
  const std::string serve_cmd = g_ustream_bin +
                                " serve --port 0 --sites 2 --continuous --json --stats" +
                                " --timeout-ms 8000 --port-file " + port_file + " 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  ASSERT_NE(port, 0);
  const std::string target = " push --to 127.0.0.1:" + std::to_string(port) +
                             " --continuous";

  // Site 0: the protocol's happy path — deltas while the chain holds,
  // flushed full frame at end of stream.
  ASSERT_EQ(std::system((g_ustream_bin + target +
                         " --site 0 --items 30000 --distinct 10000 --seed 42"
                         " > /dev/null 2>&1").c_str()), 0);
  // Site 1: same protocol, incompatible estimator parameters. Every frame
  // it sends is rejected (its sketch can never join site 0's union), so the
  // referee quarantines it until the transport gives up — the pusher must
  // fail CLEANLY (error exit, actionable message), against a referee that
  // is still alive.
  const auto mm_out = path("mismatch.out");
  const int mm = std::system((g_ustream_bin + target +
                              " --site 1 --items 2000 --distinct 500 --seed 7"
                              " --eps 0.3 --attempts 2 > " + mm_out +
                              " 2>&1").c_str());
  ASSERT_TRUE(WIFEXITED(mm));
  EXPECT_EQ(WEXITSTATUS(mm), 1);
  const auto mm_bytes = slurp(mm_out);
  const std::string mm_text(mm_bytes.begin(), mm_bytes.end());
  EXPECT_NE(mm_text.find("undeliverable"), std::string::npos) << mm_text;

  std::string serve_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
  const int status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(status)) << serve_out;
  // The referee reached its deadline: site 0 reported (with applied
  // deltas), site 1 never landed a frame — degraded, not crashed.
  EXPECT_EQ(WEXITSTATUS(status), 3) << serve_out;
  EXPECT_NE(serve_out.find("\"sites_reported\":1"), std::string::npos) << serve_out;
  EXPECT_NE(serve_out.find("\"degraded\":true"), std::string::npos) << serve_out;
  EXPECT_EQ(serve_out.find("\"deltas_applied\":0,"), std::string::npos) << serve_out;
  EXPECT_EQ(serve_out.find("error:"), std::string::npos) << serve_out;
  // The live gauge, fed from the store's cached union after every accepted
  // frame, lands on the same union the end-of-run reduce reports.
  const auto est_at = serve_out.find("\"estimate\":");
  ASSERT_NE(est_at, std::string::npos) << serve_out;
  const double estimate = std::strtod(serve_out.c_str() + est_at + 11, nullptr);
  EXPECT_GT(estimate, 0.0);
  EXPECT_EQ(json_gauge(serve_out, "ustream_referee_live_estimate"),
            static_cast<std::int64_t>(estimate))
      << serve_out;
}

// Sharded serve as a real process: 4 sites into 2 shard loops, output
// byte-identical to the in-process merge, per-shard breakdown in the JSON.
TEST_F(NetCliTest, ShardedServeMatchesInProcessMergeByteForByte) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  std::vector<std::string> sketches;
  const auto inproc = path("sh_inproc.sk"), net_sk = path("sh_net.sk");
  const auto port_file = path("sh_port.txt");
  for (int i = 0; i < 4; ++i) {
    const auto trace = path("sh" + std::to_string(i) + ".trace");
    sketches.push_back(path("sh" + std::to_string(i) + ".sk"));
    ASSERT_EQ(invoke({"generate", "--distinct", "8000", "--items", "20000",
                      "--seed", std::to_string(11 + i), "--out", trace}).first, 0);
    ASSERT_EQ(invoke({"sketch", "--in", trace, "--seed", "42",
                      "--out", sketches.back()}).first, 0);
  }
  ASSERT_EQ(invoke({"merge", "--out", inproc, sketches[0], sketches[1], sketches[2],
                    sketches[3]}).first, 0);

  const std::string serve_cmd = g_ustream_bin +
                                " serve --port 0 --sites 4 --shards 2 --json" +
                                " --timeout-ms 30000 --out " + net_sk +
                                " --port-file " + port_file + " 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  ASSERT_NE(port, 0) << "serve never wrote its port file";
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                           " --site " + std::to_string(i) + " " + sketches[i] +
                           " > /dev/null 2>&1").c_str()), 0);
  }
  std::string serve_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
  const int status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(status)) << serve_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << serve_out;
  EXPECT_NE(serve_out.find("\"sites_reported\":4"), std::string::npos) << serve_out;
  // Two per-shard entries in the breakdown (whatever the routing was).
  EXPECT_NE(serve_out.find("\"shards\":[{"), std::string::npos) << serve_out;

  const auto net_bytes = slurp(net_sk);
  ASSERT_FALSE(net_bytes.empty());
  EXPECT_EQ(net_bytes, slurp(inproc));
}

// `serve --kind freq` as real processes at 1 and 2 shards: --out bytes equal
// `ustream merge` over the same freq files, the live top(5) answer equals
// the file-mode answer over the sites pushed so far, and the --json report
// is one valid JSON line carrying all 200 requested heavy hitters.
TEST_F(NetCliTest, FreqServeMatchesFileMergeAtOneAndTwoShards) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  std::vector<std::string> sketches;
  for (int i = 0; i < 4; ++i) {
    const auto trace = path("fq" + std::to_string(i) + ".trace");
    sketches.push_back(path("fq" + std::to_string(i) + ".sk"));
    ASSERT_EQ(invoke({"generate", "--distinct", "5000", "--items", "20000", "--seed",
                      std::to_string(51 + i), "--out", trace}).first, 0);
    ASSERT_EQ(invoke({"sketch", "--kind", "freq", "--in", trace, "--seed", "42",
                      "--out", sketches.back()}).first, 0);
  }
  const auto merged = path("fq_merged.sk");
  ASSERT_EQ(invoke({"merge", "--out", merged, sketches[0], sketches[1], sketches[2],
                    sketches[3]}).first, 0);
  auto [fc, file_top] = invoke({"query", "top(5)", sketches[0], sketches[1], sketches[2]});
  ASSERT_EQ(fc, 0) << file_top;

  for (const std::string shards : {"1", "2"}) {
    const auto net_sk = path("fq_net" + shards + ".sk");
    const auto port_file = path("fq_port" + shards + ".txt");
    const auto admin_file = path("fq_admin" + shards + ".txt");
    const std::string serve_cmd = g_ustream_bin + " serve --kind freq --top 200 --port 0" +
                                  " --sites 4 --shards " + shards + " --json" +
                                  " --timeout-ms 30000 --out " + net_sk + " --port-file " +
                                  port_file + " --admin-port-file " + admin_file + " 2>&1";
    std::FILE* serve = popen(serve_cmd.c_str(), "r");
    ASSERT_NE(serve, nullptr);
    const std::uint16_t port = wait_for_port(port_file);
    const std::uint16_t admin = wait_for_port(admin_file);
    ASSERT_NE(port, 0) << "serve never wrote its port file";
    ASSERT_NE(admin, 0) << "serve never wrote its admin port file";
    const auto push = [&](int site) {
      return std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                          " --site " + std::to_string(site) + " " + sketches[site] +
                          " > /dev/null 2>&1").c_str());
    };
    for (int i = 0; i < 3; ++i) ASSERT_EQ(push(i), 0);
    auto [lc, live_top] =
        invoke({"query", "top(5)", "--from", "127.0.0.1:" + std::to_string(admin)});
    EXPECT_EQ(lc, 0) << live_top;
    EXPECT_EQ(live_top, file_top) << shards << " shard(s)";
    ASSERT_EQ(push(3), 0);

    std::string serve_out;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
    const int status = pclose(serve);
    ASSERT_TRUE(WIFEXITED(status)) << serve_out;
    EXPECT_EQ(WEXITSTATUS(status), 0) << serve_out;
    const std::string line = serve_out.substr(0, serve_out.find('\n'));
    EXPECT_TRUE(json_valid(line)) << line.size() << " bytes: " << line;
    std::size_t hitters = 0;
    for (auto at = line.find("\"label\":"); at != std::string::npos;
         at = line.find("\"label\":", at + 1)) {
      ++hitters;
    }
    EXPECT_EQ(hitters, 200u) << line;
    EXPECT_EQ(slurp(net_sk), slurp(merged)) << shards << " shard(s)";
  }
}

// Decoders allocate from the bytes a frame carries, never from the sizes
// it declares (DESIGN.md §6). Each hostile frame below is CRC-valid and
// claims site 1 of a real `serve`, with a sketch capacity of 2^26, 2^40
// or 2^62 and nothing on the wire to back it: the F0 payload stops after
// its 16-odd-byte header (the copy it promises is missing), the freq
// payload is a complete sketch whose heavy-hitter half declares the huge
// capacity and holds no entries. Each must get 'Q' — neither an
// allocation failure that kills the referee nor a stall sizing tables
// for the claim — and the referee must go on to collect the honest sites
// into the same bytes as the file-mode merge.
TEST_F(NetCliTest, HostileCapacityFramesAreRefusedAndCollectionCompletes) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  // Largest claim first: against a decoder that sizes from the claim it
  // fails fast (length_error) instead of first touching gigabytes.
  const std::uint64_t claims[] = {std::uint64_t{1} << 62, std::uint64_t{1} << 40,
                                  std::uint64_t{1} << 26};
  const auto f0_payload = [](std::uint64_t capacity) {
    ByteWriter w;
    w.u8(1);  // estimator wire version
    w.u64(42);
    w.varint(capacity);
    w.varint(1);  // one copy, which never follows
    return w.take();
  };
  const auto freq_payload = [](std::uint64_t capacity) {
    ByteWriter w;
    w.u8(1);  // freq-sketch wire version
    CountSketch(1, 1, 42).serialize(w);
    w.u8(1);  // space-saver wire version
    w.varint(capacity);
    w.varint(0);  // absent bound
    w.varint(0);  // total weight
    w.varint(0);  // no entries
    return w.take();
  };

  for (const std::string kind : {"f0", "freq"}) {
    SCOPED_TRACE(kind);
    const PayloadKind payload_kind =
        kind == "f0" ? PayloadKind::kF0Estimator : PayloadKind::kFreqSketch;
    std::vector<std::string> sketches;
    for (int i = 0; i < 2; ++i) {
      const auto trace = path("hc_" + kind + std::to_string(i) + ".trace");
      sketches.push_back(path("hc_" + kind + std::to_string(i) + ".sk"));
      ASSERT_EQ(invoke({"generate", "--distinct", "5000", "--items", "20000", "--seed",
                        std::to_string(71 + i), "--out", trace}).first, 0);
      ASSERT_EQ(invoke({"sketch", "--kind", kind, "--in", trace, "--seed", "42", "--out",
                        sketches.back()}).first, 0);
    }
    const auto merged = path("hc_" + kind + "_merged.sk");
    ASSERT_EQ(invoke({"merge", "--out", merged, sketches[0], sketches[1]}).first, 0);

    const auto net_sk = path("hc_" + kind + "_net.sk");
    const auto port_file = path("hc_" + kind + "_port.txt");
    const std::string serve_cmd = g_ustream_bin + " serve --kind " + kind +
                                  " --port 0 --sites 2 --json --timeout-ms 30000 --out " +
                                  net_sk + " --port-file " + port_file + " 2>&1";
    std::FILE* serve = popen(serve_cmd.c_str(), "r");
    ASSERT_NE(serve, nullptr);
    const std::uint16_t port = wait_for_port(port_file);
    ASSERT_NE(port, 0) << "serve never wrote its port file";
    const auto push = [&](int site) {
      return std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                          " --site " + std::to_string(site) + " " + sketches[site] +
                          " > /dev/null 2>&1").c_str());
    };

    // An honest site first, so a well-formed hostile sketch meets one it
    // cannot merge with; then the hostile frames for the other site.
    ASSERT_EQ(push(0), 0);
    TcpTransportConfig tconfig = client_config(port);
    tconfig.max_send_attempts = 1;  // surface 'Q' as an error instead of retrying
    for (const std::uint64_t capacity : claims) {
      const auto payload = kind == "f0" ? f0_payload(capacity) : freq_payload(capacity);
      TcpTransport transport(2, tconfig);
      std::string verdict = "accepted";
      try {
        transport.send_with_ack(1, frame_encode({payload_kind, 1, 0}, payload));
      } catch (const net::TransportError& e) {
        verdict = e.what();
      }
      EXPECT_NE(verdict.find("quarantined"), std::string::npos)
          << "capacity " << capacity << ": " << verdict;
    }
    ASSERT_EQ(push(1), 0);

    std::string serve_out;
    char buf[512];
    while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
    const int status = pclose(serve);
    ASSERT_TRUE(WIFEXITED(status)) << serve_out;
    EXPECT_EQ(WEXITSTATUS(status), 0) << serve_out;
    EXPECT_NE(serve_out.find("\"sites_reported\":2"), std::string::npos) << serve_out;
    EXPECT_NE(serve_out.find("\"frames_quarantined\":3"), std::string::npos) << serve_out;
    EXPECT_EQ(slurp(net_sk), slurp(merged));
  }
}

// The query engine end to end as real processes: a serve referee takes
// grouped pushes, answers `ustream query --from` MID-collection (site 0
// in, site 1 outstanding) through its admin endpoint, and reports the
// per-group estimates once the round completes. The live answer and the
// file-mode answer for the same expression must be IDENTICAL strings —
// both paths resolve the same sketch bytes through the same evaluator.
TEST_F(NetCliTest, GroupedServePushAndLiveQueryEndToEnd) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  const auto t0 = path("q0.trace"), t1 = path("q1.trace");
  const auto s0 = path("q0.sk"), s1 = path("q1.sk");
  const auto port_file = path("qport.txt"), admin_port_file = path("qadmin.txt");
  for (const auto& [trace, seed] : {std::pair{t0, "31"}, std::pair{t1, "32"}}) {
    ASSERT_EQ(invoke({"generate", "--distinct", "8000", "--items", "20000",
                      "--seed", seed, "--out", trace}).first, 0);
  }
  // The group tag lands in the sketch file's frame header, so file-mode
  // `group:G` operands resolve without any referee.
  for (const auto& [trace, sketch, group] :
       {std::tuple{t0, s0, "1"}, std::tuple{t1, s1, "2"}}) {
    ASSERT_EQ(invoke({"sketch", "--in", trace, "--seed", "42", "--group", group,
                      "--out", sketch}).first, 0);
  }

  const std::string serve_cmd = g_ustream_bin + " serve --port 0 --sites 2 --json" +
                                " --timeout-ms 30000 --port-file " + port_file +
                                " --admin-port-file " + admin_port_file + " 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  const std::uint16_t admin = wait_for_port(admin_port_file);
  ASSERT_NE(port, 0) << "serve never wrote its port file";
  ASSERT_NE(admin, 0) << "serve never wrote its admin port file";

  ASSERT_EQ(std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                         " --site 0 --group 1 " + s0 + " > /dev/null 2>&1").c_str()), 0);

  // Mid-collection: site 0's sketch is queryable by site id and group id,
  // and the answers match the offline evaluation of the same file exactly.
  const std::string admin_target = "127.0.0.1:" + std::to_string(admin);
  auto [lc, live_site] = invoke({"query", "site:0", "--from", admin_target});
  ASSERT_EQ(lc, 0) << live_site;
  auto [fc, file_site] = invoke({"query", "site:0", s0});
  ASSERT_EQ(fc, 0) << file_site;
  EXPECT_EQ(live_site, file_site);
  auto [ljc, live_group] = invoke({"query", "group:1", "--from", admin_target, "--json"});
  ASSERT_EQ(ljc, 0) << live_group;
  auto [fjc, file_group] = invoke({"query", "group:1", "--json", s0});
  ASSERT_EQ(fjc, 0) << file_group;
  EXPECT_EQ(live_group, file_group);
  // An operand the referee has not seen yet is a clean one-line error and
  // a distinct exit code — and the referee survives to finish the round.
  auto [ec, eout] = invoke({"query", "site:1", "--from", admin_target});
  EXPECT_EQ(ec, 1) << eout;
  EXPECT_EQ(eout.rfind("error:", 0), 0u) << eout;

  ASSERT_EQ(std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                         " --site 1 --group 2 " + s1 + " > /dev/null 2>&1").c_str()), 0);

  std::string serve_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), serve)) serve_out += buf;
  const int status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(status)) << serve_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << serve_out;
  EXPECT_NE(serve_out.find("\"sites_reported\":2"), std::string::npos) << serve_out;
  // The per-group report: one entry per tag, one site each, sorted by id.
  EXPECT_NE(serve_out.find("\"groups\":[{\"group\":1,\"sites\":1,"), std::string::npos)
      << serve_out;
  EXPECT_NE(serve_out.find("{\"group\":2,\"sites\":1,"), std::string::npos) << serve_out;
}

// Relay fan-in as real processes: two sites push to a sharded relay
// referee, which merges locally and pushes ONE frame upstream. The
// upstream referee's output must be byte-identical to a direct in-process
// merge of the two site sketches — the 2-level tree changes the wire
// topology, never the bytes.
TEST_F(NetCliTest, RelayTreeIsByteIdenticalToFlatMerge) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  const auto t0 = path("r0.trace"), t1 = path("r1.trace");
  const auto s0 = path("r0.sk"), s1 = path("r1.sk");
  const auto inproc = path("r_inproc.sk"), up_sk = path("r_up.sk");
  const auto up_port_file = path("r_upport.txt"), relay_port_file = path("r_rport.txt");
  for (const auto& [trace, seed] : {std::pair{t0, "21"}, std::pair{t1, "22"}}) {
    ASSERT_EQ(invoke({"generate", "--distinct", "8000", "--items", "20000",
                      "--seed", seed, "--out", trace}).first, 0);
  }
  for (const auto& [trace, sketch] : {std::pair{t0, s0}, std::pair{t1, s1}}) {
    ASSERT_EQ(invoke({"sketch", "--in", trace, "--seed", "42", "--out", sketch}).first, 0);
  }
  ASSERT_EQ(invoke({"merge", "--out", inproc, s0, s1}).first, 0);

  // Upstream referee: sees the whole relay subtree as its single "site 0".
  const std::string up_cmd = g_ustream_bin + " serve --port 0 --sites 1 --json" +
                             " --timeout-ms 30000 --out " + up_sk +
                             " --port-file " + up_port_file + " 2>&1";
  std::FILE* up = popen(up_cmd.c_str(), "r");
  ASSERT_NE(up, nullptr);
  const std::uint16_t up_port = wait_for_port(up_port_file);
  ASSERT_NE(up_port, 0) << "upstream serve never wrote its port file";

  // Relay referee: collects the two real sites on two shards, then pushes
  // the merged sketch upstream.
  const std::string relay_cmd = g_ustream_bin +
                                " serve --port 0 --sites 2 --shards 2 --json" +
                                " --timeout-ms 30000" +
                                " --relay --upstream 127.0.0.1:" + std::to_string(up_port) +
                                " --relay-site 0 --relay-epoch 1" +
                                " --port-file " + relay_port_file + " 2>&1";
  std::FILE* relay = popen(relay_cmd.c_str(), "r");
  ASSERT_NE(relay, nullptr);
  const std::uint16_t relay_port = wait_for_port(relay_port_file);
  ASSERT_NE(relay_port, 0) << "relay serve never wrote its port file";

  for (const auto& [site, sketch] : {std::pair{"0", s0}, std::pair{"1", s1}}) {
    ASSERT_EQ(std::system((g_ustream_bin + " push --to 127.0.0.1:" +
                           std::to_string(relay_port) + " --site " + site + " " + sketch +
                           " > /dev/null 2>&1").c_str()), 0);
  }

  std::string relay_out, up_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), relay)) relay_out += buf;
  int status = pclose(relay);
  ASSERT_TRUE(WIFEXITED(status)) << relay_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << relay_out;
  EXPECT_NE(relay_out.find("\"relay_ack\":\"accepted\""), std::string::npos) << relay_out;

  while (std::fgets(buf, sizeof(buf), up)) up_out += buf;
  status = pclose(up);
  ASSERT_TRUE(WIFEXITED(status)) << up_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << up_out;
  EXPECT_NE(up_out.find("\"sites_reported\":1"), std::string::npos) << up_out;

  const auto up_bytes = slurp(up_sk);
  ASSERT_FALSE(up_bytes.empty());
  EXPECT_EQ(up_bytes, slurp(inproc));
}

// `ustream stats --watch` against a live referee: bounded by --count, one
// snapshot per poll, and the admin request counter visibly advances
// between snapshots.
TEST_F(NetCliTest, StatsWatchPollsTheAdminEndpoint) {
  if (g_ustream_bin.empty()) GTEST_SKIP() << "ustream binary path not provided";

  const auto trace = path("w.trace"), sketch = path("w.sk");
  ASSERT_EQ(invoke({"generate", "--distinct", "2000", "--items", "5000",
                    "--seed", "31", "--out", trace}).first, 0);
  ASSERT_EQ(invoke({"sketch", "--in", trace, "--seed", "42", "--out", sketch}).first, 0);

  const auto port_file = path("w_port.txt"), admin_port_file = path("w_admin.txt");
  const std::string serve_cmd = g_ustream_bin + " serve --port 0 --sites 1" +
                                " --timeout-ms 20000 --port-file " + port_file +
                                " --admin-port-file " + admin_port_file +
                                " > /dev/null 2>&1";
  std::FILE* serve = popen(serve_cmd.c_str(), "r");
  ASSERT_NE(serve, nullptr);
  const std::uint16_t port = wait_for_port(port_file);
  const std::uint16_t admin = wait_for_port(admin_port_file);
  ASSERT_NE(port, 0) << "serve never wrote its port file";
  ASSERT_NE(admin, 0) << "serve never wrote its admin port file";

  // The watch loop runs in THIS process via cli::run — snapshots go to
  // stdout, so capture through a pipe-backed popen of ourselves is not
  // needed: --count 3 --json gives three one-line snapshots.
  std::string watch_cmd = g_ustream_bin + " stats --from 127.0.0.1:" +
                          std::to_string(admin) + " --json --watch 0.2 --count 3 2>&1";
  std::FILE* watch = popen(watch_cmd.c_str(), "r");
  ASSERT_NE(watch, nullptr);
  std::string watch_out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), watch)) watch_out += buf;
  const int status = pclose(watch);
  ASSERT_TRUE(WIFEXITED(status)) << watch_out;
  EXPECT_EQ(WEXITSTATUS(status), 0) << watch_out;

  // Three snapshots (one JSON line each, blank-line separated when piped),
  // each showing one more admin request than the last.
  std::vector<std::uint64_t> requests;
  std::istringstream lines(watch_out);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    const auto n = json_counter(line, "ustream_referee_admin_requests_total");
    if (n != ~std::uint64_t{0}) requests.push_back(n);
  }
  ASSERT_EQ(requests.size(), 3u) << watch_out;
  EXPECT_EQ(requests[1], requests[0] + 1);
  EXPECT_EQ(requests[2], requests[1] + 1);

  // Complete the round so serve exits promptly instead of waiting out its
  // timeout.
  ASSERT_EQ(std::system((g_ustream_bin + " push --to 127.0.0.1:" + std::to_string(port) +
                         " --site 0 " + sketch + " > /dev/null 2>&1").c_str()), 0);
  const int serve_status = pclose(serve);
  ASSERT_TRUE(WIFEXITED(serve_status));
  EXPECT_EQ(WEXITSTATUS(serve_status), 0);
}

TEST(NetDeltaProtocol, AckSequenceDrivesResyncAndChainRepair) {
  // Continuous server (latest-wins + kF0Delta): full frames re-base, a
  // delta must extend the accepted chain exactly; a gap earns 'R' (which
  // send_with_ack surfaces WITHOUT retrying — retransmitting a rejected
  // delta is useless), a replayed epoch 'D', an older one 'S', and a delta
  // that deserializes but cannot apply demotes to 'R' as well. One
  // connection keeps the whole chain on one shard's ledger.
  RefereeServerConfig config;
  config.sites = 1;
  config.dedup = DedupMode::kLatestWins;
  config.delta_kind = PayloadKind::kF0Delta;
  config.continuous = true;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));

  std::optional<F0Estimator> mirror;
  RefereeServer::Result result;
  std::thread referee([&server, &result, &mirror] {
    result = server.run([&mirror](std::size_t, std::uint32_t, std::uint16_t, PayloadKind kind,
                                  std::vector<std::uint8_t>&& payload) {
      try {
        if (kind == PayloadKind::kF0Delta) {
          F0Estimator next = *mirror;
          next.apply_delta(std::span<const std::uint8_t>(payload));
          mirror = std::move(next);
        } else {
          mirror = F0Estimator::deserialize(std::span<const std::uint8_t>(payload));
        }
        return true;
      } catch (const SerializationError&) {
        return false;
      }
    });
  });

  F0Estimator est(EstimatorParams::for_guarantee(0.2, 0.1, 50));
  Xoshiro256 rng(51);
  auto grow = [&](int n) {
    for (int i = 0; i < n; ++i) est.add(rng.next());
  };
  TcpTransport transport(1, client_config(server.port()));
  auto send = [&transport](PayloadKind kind, std::uint32_t epoch,
                           const std::vector<std::uint8_t>& payload) {
    return transport.send_with_ack(0, frame_encode({kind, 0, epoch}, payload));
  };

  grow(2000);
  const F0Estimator base1 = est;
  EXPECT_EQ(send(PayloadKind::kF0Estimator, 1, base1.serialize()), PushAck::kAccepted);
  grow(2000);
  const F0Estimator base2 = est;
  const auto delta12 = base2.serialize_delta(base1);
  EXPECT_EQ(send(PayloadKind::kF0Delta, 2, delta12), PushAck::kAccepted);
  grow(2000);
  const auto delta23 = est.serialize_delta(base2);
  // Gap: epoch 4 does not extend accepted epoch 2.
  EXPECT_EQ(send(PayloadKind::kF0Delta, 4, delta23), PushAck::kResync);
  // The chain repairs at the correct next epoch...
  EXPECT_EQ(send(PayloadKind::kF0Delta, 3, delta23), PushAck::kAccepted);
  // ...a replayed epoch is a duplicate, an older one stale.
  EXPECT_EQ(send(PayloadKind::kF0Delta, 3, delta23), PushAck::kDuplicate);
  EXPECT_EQ(send(PayloadKind::kF0Delta, 2, delta12), PushAck::kStale);
  // Valid frame, inapplicable payload (copy-count mismatch against the
  // mirror): the sink refuses, the acceptance demotes to resync.
  F0Estimator other(EstimatorParams{.capacity = 16, .copies = 3, .seed = 77});
  other.add(1);
  const F0Estimator other_base = other;
  other.add(2);
  EXPECT_EQ(send(PayloadKind::kF0Delta, 4, other.serialize_delta(other_base)),
            PushAck::kResync);
  // The owed full frame re-bases the chain (latest-wins: any newer epoch).
  grow(1000);
  EXPECT_EQ(send(PayloadKind::kF0Estimator, 5, est.serialize()), PushAck::kAccepted);
  server.request_stop();
  referee.join();

  ASSERT_TRUE(mirror.has_value());
  EXPECT_EQ(mirror->serialize(), est.serialize());
  EXPECT_EQ(result.report.per_site[0].accepted_epoch, 5u);
  EXPECT_EQ(result.report.deltas_applied, 2u);  // 3 accepted - 1 demoted
  EXPECT_EQ(result.report.resyncs, 2u);         // the gap + the demotion
  EXPECT_EQ(result.report.duplicates_dropped, 1u);
  EXPECT_EQ(result.report.stale_dropped, 1u);
}

TEST(NetDeltaProtocol, DeltaOverAFreshConnectionExtendsTheChainOnAnyShard) {
  // A delta arriving on a FRESH connection may land on another shard than
  // the site's full frame: the one ledger and the one WAL chain make that
  // irrelevant, so every delta that extends the chain is accepted wherever
  // the kernel routes its connection.
  constexpr std::uint32_t kDeltas = 16;
  RefereeServerConfig config;
  config.sites = 1;
  config.shards = 2;
  config.dedup = DedupMode::kLatestWins;
  config.delta_kind = PayloadKind::kF0Delta;
  config.continuous = true;
  config.timeout = std::chrono::milliseconds{30'000};
  RefereeServer server(std::move(config));

  std::optional<F0Estimator> mirror;
  RefereeServer::Result result;
  std::thread referee([&server, &result, &mirror] {
    result = server.run([&mirror](std::size_t, std::uint32_t, std::uint16_t, PayloadKind kind,
                                  std::vector<std::uint8_t>&& payload) {
      try {
        if (kind == PayloadKind::kF0Delta) {
          F0Estimator next = *mirror;
          next.apply_delta(std::span<const std::uint8_t>(payload));
          mirror = std::move(next);
        } else {
          mirror = F0Estimator::deserialize(std::span<const std::uint8_t>(payload));
        }
        return true;
      } catch (const SerializationError&) {
        return false;
      }
    });
  });

  F0Estimator est(EstimatorParams::for_guarantee(0.2, 0.1, 52));
  Xoshiro256 rng(53);
  for (int i = 0; i < 2000; ++i) est.add(rng.next());
  F0Estimator base = est;
  const auto push = [&server](PayloadKind kind, std::uint32_t epoch,
                              const std::vector<std::uint8_t>& payload) {
    TcpTransport transport(1, client_config(server.port()));
    return transport.send_with_ack(0, frame_encode({kind, 0, epoch}, payload));
  };
  EXPECT_EQ(push(PayloadKind::kF0Estimator, 1, base.serialize()), PushAck::kAccepted);
  for (std::uint32_t epoch = 2; epoch <= kDeltas + 1; ++epoch) {
    for (int i = 0; i < 200; ++i) est.add(rng.next());
    EXPECT_EQ(push(PayloadKind::kF0Delta, epoch, est.serialize_delta(base)), PushAck::kAccepted)
        << "epoch " << epoch;
    base = est;
  }
  server.request_stop();
  referee.join();

  ASSERT_TRUE(mirror.has_value());
  EXPECT_EQ(mirror->serialize(), est.serialize());
  EXPECT_EQ(result.report.deltas_applied, kDeltas);
  EXPECT_EQ(result.report.resyncs, 0u);
  EXPECT_EQ(result.report.per_site[0].accepted_epoch, kDeltas + 1);
}

}  // namespace
}  // namespace ustream

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  // Remaining args after gtest filtering: [0] = self, [1] = ustream binary.
  if (argc > 1) g_ustream_bin = argv[1];
  if (const char* env = std::getenv("USTREAM_BIN"); g_ustream_bin.empty() && env != nullptr) {
    g_ustream_bin = env;
  }
  return RUN_ALL_TESTS();
}
