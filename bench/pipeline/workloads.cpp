#include "workloads.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/frame.h"
#include "common/random.h"
#include "core/f0_estimator.h"
#include "distributed/continuous.h"
#include "freq/freq_sketch.h"
#include "harness.h"
#include "net/tcp_transport.h"
#include "query/service.h"
#include "stream/zipf.h"

namespace bench {
namespace {

using ustream::DeltaSiteSession;
using ustream::EstimatorParams;
using ustream::F0Estimator;
using ustream::FreqConfig;
using ustream::FreqSketch;
using ustream::PayloadKind;
using ustream::SeedSequence;
using ustream::net::PushAck;
using ustream::net::TcpTransport;
using ustream::net::TcpTransportConfig;

// Set-ups per run; setup_s is their median, and the last one is measured.
constexpr std::size_t kSetups = 5;
// Generator threads (main included); each also holds one TCP connection.
constexpr std::size_t kThreads = 3;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
constexpr std::size_t kBatch = 16384;
// Any correct referee answers long before this; it only bounds a hang.
constexpr const char* kServeTimeoutMs = "120000";

// Labels are a bijective mix of a per-run key and a dense id, so exact
// answers can be computed over ids while the sketches see hashed labels.
std::uint64_t label_of(std::uint64_t key, std::uint64_t id) {
  return ustream::SplitMix64::mix(id ^ key);
}

std::string work_path(const RunConfig& cfg, const char* name) { return cfg.work_dir + "/" + name; }

void fail(Outcome& out, const std::string& what) { out.failures.push_back(what); }

// What one generator thread saw in the measured window.
struct ThreadStats {
  std::vector<double> latency_ms;  // completed operations only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t frames = 0;
  std::uint64_t delta_frames = 0;
  double wire_bytes = 0.0;
  double delta_bytes = 0.0;
  std::uint64_t connects = 0;
  std::uint64_t retries = 0;
  double max_lag_ms = 0.0;
  double query_ms = 0.0;  // summed client-side query latency
};

// A slice of the window: a one-shot round, or a fixed stretch of an open or
// closed loop. Throughput and referee CPU per operation are medians over
// the slices, so a few slow seconds on a shared host move them less.
struct Interval {
  double ops = 0.0;            // operations completed in the slice
  double seconds = 0.0;        // the time they took
  double referee_cpu_s = 0.0;  // referee CPU spent in the slice
};

// Cuts an open or closed loop into 3-second slices. The thread
// driving the loop calls sample() between operations; at each boundary it
// reads the referee's CPU time.
class IntervalSampler {
 public:
  IntervalSampler(const RefereeProcess& referee, Clock::time_point origin)
      : referee_(referee), start_(origin), next_(origin + kStep), cpu_(referee.cpu_seconds()) {}

  void sample(std::uint64_t ops_done) {
    if (Clock::now() >= next_) close(ops_done);
  }
  std::vector<Interval> finish(std::uint64_t ops_done) {
    close(ops_done);
    return intervals_;
  }

 private:
  static constexpr auto kStep = std::chrono::milliseconds(3000);

  void close(std::uint64_t ops_done) {
    const auto now = Clock::now();
    const double cpu = referee_.cpu_seconds();
    intervals_.push_back({static_cast<double>(ops_done - ops_), ms_between(start_, now) / 1e3,
                          cpu - cpu_});
    start_ = now;
    next_ = now + kStep;
    ops_ = ops_done;
    cpu_ = cpu;
  }

  const RefereeProcess& referee_;
  Clock::time_point start_;
  Clock::time_point next_;
  double cpu_;
  std::uint64_t ops_ = 0;
  std::vector<Interval> intervals_;
};

// Everything a workload measured in its window, before it becomes metrics.
struct Window {
  std::vector<double> setup_s;
  std::vector<ThreadStats> threads = std::vector<ThreadStats>(kThreads);
  std::vector<Interval> intervals;
  double referee_wall_s = 0.0;   // referee lifetime inside the window
  double referee_rss_mb = 0.0;
  std::size_t sites = 0;
  double collections = 1.0;      // one-shot rounds; wire and frames are per round
  double t2_bound_bits = 0.0;    // per site; 0 where the F0 bound does not apply
  ObsSnapshot referee;           // referee instruments over the window
};

std::vector<Tracer> make_tracers(bool trace) {
  std::vector<Tracer> tracers;
  for (std::size_t i = 0; i < kThreads; ++i) tracers.emplace_back(trace, kSpanCapacity);
  return tracers;
}

void reset_tracers(std::vector<Tracer>& tracers, Clock::time_point origin) {
  for (Tracer& t : tracers) t.reset(origin);
}

// Runs fn(slot) on `threads` generator threads, the caller being slot 0,
// and rethrows the first exception any of them raised.
void run_threads(std::size_t threads, const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> workers;
  for (std::size_t slot = 1; slot < threads; ++slot) {
    workers.emplace_back([&, slot] {
      try {
        fn(slot);
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    });
  }
  try {
    fn(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (auto& w : workers) w.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TcpTransportConfig transport_config(std::uint16_t port) {
  TcpTransportConfig c;
  c.port = port;
  c.io_timeout = std::chrono::milliseconds(20'000);
  return c;
}

// One push with its span; nullopt when the transport gave up on the frame.
std::optional<PushAck> push(Tracer& t, TcpTransport& transport, std::size_t site,
                            std::uint32_t epoch, const std::vector<std::uint8_t>& frame,
                            ThreadStats& st) {
  ++st.frames;
  st.wire_bytes += static_cast<double>(frame.size());
  try {
    auto s = t.span("net.push", site_request(site, epoch));
    return transport.send_with_ack(site, frame);
  } catch (const ustream::net::TransportError&) {
    return std::nullopt;
  }
}

void settle_transport(const TcpTransport& transport, std::uint64_t sends, ThreadStats& st) {
  st.connects += transport.connect_attempts();
  st.retries += transport.stats().messages - sends;
}

double counter(const ObsSnapshot& s, const char* name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second.value;
}

const ObsSample& histogram(const ObsSnapshot& s, const char* name) {
  static const ObsSample kEmpty;
  const auto it = s.find(name);
  return it == s.end() ? kEmpty : it->second;
}

ObsSnapshot scrape(std::uint16_t admin_port) {
  return parse_obs_json(admin_get(admin_port, "GET /metrics.json\n"));
}

// Every frame the sites saw acked 'A' must be one the referee counts.
void check_accepted(const ObsSnapshot& referee, std::uint64_t acks, Outcome& out) {
  const double accepted = counter(referee, "ustream_referee_frames_accepted_total");
  if (accepted != static_cast<double>(acks)) {
    fail(out, "referee accepted " + std::to_string(accepted) + " frames, sites saw " +
                  std::to_string(acks) + " 'A' acks");
  }
}

// Turns a window into the end-to-end metrics and, when traced, the
// per-layer ones. `tracers` are the generator threads' buffers.
void report(const RunConfig& cfg, const Window& w, const std::vector<Tracer>& tracers,
            Outcome& out) {
  std::vector<double> latency_ms;
  double wire_bytes = 0.0, delta_bytes = 0.0, max_lag_ms = 0.0, query_ms = 0.0;
  std::uint64_t frames = 0, delta_frames = 0, connects = 0, retries = 0;
  for (const ThreadStats& st : w.threads) {
    latency_ms.insert(latency_ms.end(), st.latency_ms.begin(), st.latency_ms.end());
    out.attempted += st.attempted;
    out.failed += st.failed;
    wire_bytes += st.wire_bytes;
    delta_bytes += st.delta_bytes;
    frames += st.frames;
    delta_frames += st.delta_frames;
    connects += st.connects;
    retries += st.retries;
    max_lag_ms = std::max(max_lag_ms, st.max_lag_ms);
    query_ms += st.query_ms;
  }
  std::vector<double> rate, cpu_per_op;
  double referee_cpu_s = 0.0;
  for (const Interval& i : w.intervals) {
    referee_cpu_s += i.referee_cpu_s;
    if (i.ops <= 0.0 || i.seconds <= 0.0) continue;
    rate.push_back(i.ops / i.seconds);
    cpu_per_op.push_back(1e3 * i.referee_cpu_s / i.ops);
  }
  if (rate.empty()) {
    fail(out, "no operation completed in the measured window");
    return;
  }
  const double sites = static_cast<double>(w.sites) * w.collections;
  auto e2e = [&](const char* name, double v, const char* unit) {
    out.end_to_end.push_back({name, v, unit});
  };
  e2e("setup_s", median(w.setup_s), "s");
  e2e("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  e2e("latency_p90_ms", quantile(latency_ms, 0.90), "ms");
  e2e("throughput_per_s", median(rate), "1/s");
  e2e("referee_cpu_ms_per_op", median(cpu_per_op), "ms");
  e2e("referee_rss_mb", w.referee_rss_mb, "MB");
  e2e("wire_kb_per_site", wire_bytes / sites / 1024.0, "KB");
  if (!cfg.trace) return;

  std::vector<const Tracer*> views;
  for (const Tracer& t : tracers) views.push_back(&t);
  const TraceSummary sum = summarize(views);
  const auto wall = static_cast<double>(std::max<std::int64_t>(sum.wall_ns, 1));
  auto self_share = [&](const char* span) {
    const auto it = sum.self_ns.find(span);
    return it == sum.self_ns.end() ? 0.0 : static_cast<double>(it->second) / wall;
  };
  auto durations = [&](const char* span) {
    const auto it = sum.durations_us.find(span);
    return it == sum.durations_us.end() ? std::vector<double>{} : it->second;
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  const double cpu_ns = std::max(referee_cpu_s, 1e-9) * 1e9;
  const ObsSnapshot& r = w.referee;
  const ObsSample& decode = histogram(r, "ustream_frame_decode_ns");
  const ObsSample& eval = histogram(r, "ustream_query_latency_ns");
  const ObsSample& merge = histogram(r, "ustream_merge_reduce_ns");
  const double accepted = counter(r, "ustream_referee_frames_accepted_total");
  const double fsyncs = counter(r, "ustream_wal_fsyncs_total");
  const double wal_records = counter(r, "ustream_wal_records_total");

  auto layer = [&](const char* name, double v, const char* unit) {
    out.per_layer.push_back({name, v, unit});
  };
  layer("bench.gen_share", self_share("bench.gen"), "share");
  layer("bench.idle_share", self_share("bench.idle"), "share");
  layer("cli.wait_share", self_share("cli.spawn") + self_share("cli.answer"), "share");
  layer("core.ingest_share", self_share("core.ingest"), "share");
  layer("core.serialize_share", self_share("core.serialize"), "share");
  layer("distributed.ingest_share", self_share("distributed.ingest"), "share");
  layer("distributed.delta_encode_share", self_share("distributed.encode"), "share");
  layer("freq.ingest_share", self_share("freq.ingest"), "share");
  layer("freq.serialize_share", self_share("freq.serialize"), "share");
  layer("common.frame_encode_share", self_share("common.frame_encode"), "share");
  layer("net.push_share", self_share("net.push"), "share");
  layer("net.admin_share", self_share("net.admin"), "share");
  layer("bench.span_coverage", static_cast<double>(sum.covered_ns) / wall, "share");
  layer("bench.trace_overhead_pct",
        100.0 * static_cast<double>(sum.spans) * span_cost_ns() / wall, "%");
  layer("bench.gen_lag_ms_max", max_lag_ms, "ms");
  layer("net.push_rtt_us_p50", quantile(durations("net.push"), 0.50), "us");
  layer("net.push_rtt_us_p99", quantile(durations("net.push"), 0.99), "us");
  layer("common.frame_encode_us", mean(durations("common.frame_encode")), "us");
  layer("net.connects", static_cast<double>(connects), "count");
  layer("net.retries", static_cast<double>(retries), "count");
  layer("distributed.frames_per_site", static_cast<double>(frames) / sites, "count");
  layer("distributed.delta_bytes_per_frame",
        delta_frames == 0 ? 0.0 : delta_bytes / static_cast<double>(delta_frames), "bytes");
  layer("net.wire_vs_t2_bound",
        w.t2_bound_bits == 0.0 ? 0.0 : 8.0 * wire_bytes / sites / w.t2_bound_bits, "ratio");
  layer("cli.serve_cpu_ms_per_frame", accepted == 0.0 ? 0.0 : 1e3 * referee_cpu_s / accepted,
        "ms");
  layer("cli.serve_busy_share", referee_cpu_s / std::max(w.referee_wall_s, 1e-9), "share");
  layer("cli.serve_unattributed_share", 1.0 - (decode.sum + eval.sum + merge.sum) / cpu_ns,
        "share");
  layer("common.frame_decode_us", decode.count == 0.0 ? 0.0 : decode.sum / decode.count / 1e3,
        "us");
  layer("core.merge_share", merge.sum / cpu_ns, "share");
  layer("query.eval_share", eval.sum / cpu_ns, "share");
  layer("query.wait_share", query_ms == 0.0 ? 0.0 : 1.0 - eval.sum / 1e6 / query_ms, "share");
  layer("net.referee_frames_accepted", accepted, "count");
  layer("net.referee_frames_delta", counter(r, "ustream_referee_frames_delta_total"), "count");
  layer("net.referee_frames_duplicate", counter(r, "ustream_referee_frames_duplicate_total"),
        "count");
  layer("net.referee_frames_stale", counter(r, "ustream_referee_frames_stale_total"), "count");
  layer("net.referee_frames_quarantined",
        counter(r, "ustream_referee_frames_quarantined_total"), "count");
  layer("net.referee_frames_resync", counter(r, "ustream_referee_frames_resync_total"), "count");
  layer("net.referee_bytes_in", counter(r, "ustream_referee_bytes_in_total"), "bytes");
  layer("net.referee_bytes_out", counter(r, "ustream_referee_bytes_out_total"), "bytes");
  layer("durability.wal_records", wal_records, "count");
  layer("durability.wal_bytes", counter(r, "ustream_wal_bytes_total"), "bytes");
  layer("durability.fsyncs", fsyncs, "count");
  layer("durability.records_per_fsync", fsyncs == 0.0 ? 0.0 : wal_records / fsyncs, "ratio");

  if (!cfg.trace_path.empty()) write_chrome_trace(cfg.trace_path, views);
}

// Starts `serve --continuous` for `sites` sites plus `extra` flags and waits
// until both its site and admin ports are listening.
struct ContinuousReferee {
  std::unique_ptr<RefereeProcess> process;
  std::uint16_t port = 0;
  std::uint16_t admin_port = 0;
};
ContinuousReferee start_continuous(const RunConfig& cfg, std::size_t sites,
                                   const std::vector<std::string>& extra) {
  const std::string port_file = work_path(cfg, "serve.port");
  const std::string admin_file = work_path(cfg, "admin.port");
  std::filesystem::remove(port_file);
  std::filesystem::remove(admin_file);
  std::vector<std::string> args = {"serve", "--continuous", "--sites", std::to_string(sites),
                                   "--shards", "1", "--timeout-ms", "3600000", "--port-file",
                                   port_file, "--admin-port-file", admin_file};
  args.insert(args.end(), extra.begin(), extra.end());
  ContinuousReferee r;
  r.process = std::make_unique<RefereeProcess>(cfg.serve, args, cfg.work_dir);
  r.port = r.process->wait_for_port(port_file);
  r.admin_port = r.process->wait_for_port(admin_file);
  return r;
}

// ===========================================================================
// One-shot collection (the paper's T2 protocol): every site builds its
// sketch, sends one frame, and a fresh referee merges and answers.

struct OneShotSpec {
  std::size_t sites = 0;
  std::vector<std::string> serve_args;  // besides --sites/--port-file/--json/--stats
  double t2_bound_bits = 0.0;
  // Site s's single frame: label generation, ingest, serialize, encode.
  std::function<std::vector<std::uint8_t>(Tracer&, std::size_t site)> build;
  // Checks the referee's final JSON line.
  std::function<void(const std::string& answer, Outcome&)> check;
};

struct RoundResult {
  double accepted = 0.0;   // sites whose frame drew an 'A' ack
  double collect_s = 0.0;  // first label to the referee's final answer
  double referee_wall_s = 0.0;
  ProcessUsage usage;
  ObsSnapshot stats;
};

// One collection with a fresh referee. `main_timed`: the calling thread's
// wall time is already being counted by an Activity around the window.
RoundResult run_round(const RunConfig& cfg, const OneShotSpec& spec, std::vector<Tracer>& tracers,
                      std::vector<ThreadStats>& stats, bool main_timed, Outcome& out) {
  const std::string port_file = work_path(cfg, "serve.port");
  std::filesystem::remove(port_file);
  std::vector<std::string> args = {"serve", "--sites", std::to_string(spec.sites), "--shards",
                                   "1", "--timeout-ms", kServeTimeoutMs, "--port-file",
                                   port_file, "--json", "--stats"};
  args.insert(args.end(), spec.serve_args.begin(), spec.serve_args.end());

  const auto spawned = Clock::now();
  std::optional<RefereeProcess> referee;
  std::uint16_t port = 0;
  {
    auto s = tracers[0].span("cli.spawn");
    referee.emplace(cfg.serve, args, cfg.work_dir);
    port = referee->wait_for_port(port_file);
  }
  const auto go = Clock::now();
  std::atomic<std::size_t> next_site{0};
  std::atomic<std::uint64_t> accepted{0};
  run_threads(kThreads, [&](std::size_t slot) {
    Tracer& t = tracers[slot];
    std::optional<Tracer::Activity> activity;
    if (slot != 0 || !main_timed) activity.emplace(t);
    ThreadStats& st = stats[slot];
    TcpTransport transport(spec.sites, transport_config(port));
    std::uint64_t sends = 0;
    for (;;) {
      const std::size_t site = next_site.fetch_add(1);
      if (site >= spec.sites) break;
      const auto start = Clock::now();
      st.max_lag_ms = std::max(st.max_lag_ms, ms_between(go, start));
      ++st.attempted;
      auto op = t.span(kOpSpan, site_request(site, 0));
      const std::vector<std::uint8_t> frame = spec.build(t, site);
      ++sends;
      const auto ack = push(t, transport, site, 0, frame, st);
      if (ack == PushAck::kAccepted) {
        st.latency_ms.push_back(ms_between(start, Clock::now()));
        accepted.fetch_add(1);
      } else {
        ++st.failed;
      }
    }
    settle_transport(transport, sends, st);
  });

  RoundResult r;
  r.accepted = static_cast<double>(accepted.load());
  {
    auto s = tracers[0].span("cli.answer");
    r.usage = referee->wait();
  }
  const auto done = Clock::now();
  r.collect_s = ms_between(go, done) / 1e3;
  r.referee_wall_s = ms_between(spawned, done) / 1e3;
  const std::string output = referee->output();
  const std::size_t eol = output.find('\n');
  if (r.usage.exit_code != 0 || eol == std::string::npos) {
    fail(out, "referee exited with " + std::to_string(r.usage.exit_code) + ": " +
                  referee->errors());
    return r;
  }
  const std::string answer = output.substr(0, eol);
  r.stats = parse_obs_json(output.substr(eol + 1));
  spec.check(answer, out);
  check_accepted(r.stats, accepted.load(), out);
  return r;
}

Outcome run_oneshot(const RunConfig& cfg, const std::function<OneShotSpec()>& prepare) {
  Outcome out;
  Window w;
  std::vector<Tracer> tracers = make_tracers(cfg.trace);
  std::optional<OneShotSpec> spec;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    spec.reset();
    spec.emplace(prepare());
    std::vector<ThreadStats> warmup(kThreads);
    run_round(cfg, *spec, tracers, warmup, false, out);  // warm-up round
    w.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  w.sites = spec->sites;
  w.collections = 0.0;
  w.t2_bound_bits = spec->t2_bound_bits;

  const auto origin = Clock::now();
  reset_tracers(tracers, origin);
  std::vector<double> rss;
  {
    Tracer::Activity main_thread(tracers[0]);
    while (ms_between(origin, Clock::now()) < cfg.seconds * 1e3) {
      const RoundResult r = run_round(cfg, *spec, tracers, w.threads, true, out);
      w.intervals.push_back({r.accepted, r.collect_s, r.usage.cpu_s});
      w.referee_wall_s += r.referee_wall_s;
      w.referee += r.stats;
      rss.push_back(r.usage.max_rss_mb);
      w.collections += 1.0;
    }
  }
  w.referee_rss_mb = median(rss);
  report(cfg, w, tracers, out);
  return out;
}

// --- oneshot_f0 ---------------------------------------------------------------
// 64 sites, eps = 0.1, delta = 0.05 (capacity 3600, 37 copies); site s
// sees ids [s*stride, s*stride + n) with stride n/2, so neighbours overlap
// by half and the exact union is (sites-1)*stride + n.

constexpr std::size_t kF0Sites = 64;
constexpr std::uint64_t kF0Items = 1u << 17;
constexpr double kF0Eps = 0.1;

OneShotSpec oneshot_f0_spec(std::uint64_t seed) {
  const SeedSequence seeds(seed);
  const EstimatorParams params = EstimatorParams::for_guarantee(kF0Eps, 0.05, seeds.child(1));
  const std::uint64_t key = seeds.child(2);
  constexpr std::uint64_t stride = kF0Items / 2;

  OneShotSpec spec;
  spec.sites = kF0Sites;
  spec.t2_bound_bits = static_cast<double>(params.capacity * params.copies) * 64.0;
  spec.build = [params, key](Tracer& t, std::size_t site) {
    const std::uint64_t req = site_request(site, 0);
    std::optional<F0Estimator> est;
    {
      auto s = t.span("core.ingest", req);
      est.emplace(params);
    }
    std::vector<std::uint64_t> buf(kBatch);
    for (std::uint64_t i = 0; i < kF0Items; i += kBatch) {
      const std::size_t len = std::min<std::uint64_t>(kBatch, kF0Items - i);
      {
        auto s = t.span("bench.gen", req);
        for (std::size_t j = 0; j < len; ++j) buf[j] = label_of(key, site * stride + i + j);
      }
      auto s = t.span("core.ingest", req);
      est->add_batch(std::span<const std::uint64_t>(buf.data(), len));
    }
    std::vector<std::uint8_t> payload;
    {
      auto s = t.span("core.serialize", req);
      payload = est->serialize();
    }
    auto s = t.span("common.frame_encode", req);
    return ustream::frame_encode(
        {PayloadKind::kF0Estimator, static_cast<std::uint32_t>(site), 0, 0}, payload);
  };
  spec.check = [](const std::string& answer, Outcome& out) {
    const double exact = static_cast<double>((kF0Sites - 1) * stride + kF0Items);
    const double err = std::fabs(json_number(answer, "estimate") / exact - 1.0);
    if (out.checks.empty()) out.checks.push_back({"union_rel_err", 0.0, "abs"});
    out.checks[0].value = std::max(out.checks[0].value, err);
    if (err > kF0Eps) fail(out, "union_rel_err " + std::to_string(err) + " outside eps 0.1");
    if (json_number(answer, "sites_reported") != static_cast<double>(kF0Sites)) {
      fail(out, "referee reported fewer than all sites");
    }
  };
  return spec;
}

// --- oneshot_freq -------------------------------------------------------------
// 64 sites of FreqSketch{depth 4, width 2^12, 64 heavy} over Zipf(1.5) on
// 10^6 labels. The Zipf ranks are drawn during set-up; site s reads a
// window of the shared pool. The union's exact top 10 comes from counts.

constexpr std::size_t kFreqSites = 64;
constexpr std::uint64_t kFreqItems = 1u << 19;
constexpr std::size_t kFreqPool = std::size_t{1} << 22;
constexpr std::size_t kFreqUniverse = 1'000'000;
constexpr std::size_t kTopK = 10;

OneShotSpec oneshot_freq_spec(std::uint64_t seed) {
  const SeedSequence seeds(seed);
  const std::uint64_t key = seeds.child(2);
  FreqConfig config;
  config.depth = 4;
  config.width_log2 = 12;
  config.heavy_capacity = 64;
  config.seed = seeds.child(1);

  auto pool = std::make_shared<std::vector<std::uint32_t>>(kFreqPool);
  {
    const ustream::ZipfDistribution zipf(kFreqUniverse, 1.5);
    ustream::Xoshiro256 rng(seeds.child(3));
    for (auto& rank : *pool) rank = static_cast<std::uint32_t>(zipf.sample(rng));
  }
  auto rank_at = [pool](std::size_t site, std::uint64_t i) {
    return (*pool)[(site * (kFreqPool / kFreqSites) + i) % kFreqPool];
  };
  std::vector<std::uint32_t> counts(kFreqUniverse + 1, 0);
  for (std::size_t s = 0; s < kFreqSites; ++s) {
    for (std::uint64_t i = 0; i < kFreqItems; ++i) ++counts[rank_at(s, i)];
  }
  std::vector<std::uint32_t> ranks(kFreqUniverse);
  for (std::size_t r = 0; r < kFreqUniverse; ++r) ranks[r] = static_cast<std::uint32_t>(r + 1);
  std::partial_sort(ranks.begin(), ranks.begin() + kTopK, ranks.end(),
                    [&](std::uint32_t a, std::uint32_t b) { return counts[a] > counts[b]; });
  std::vector<std::uint64_t> top;
  for (std::size_t i = 0; i < kTopK; ++i) top.push_back(label_of(key, ranks[i]));

  OneShotSpec spec;
  spec.sites = kFreqSites;
  spec.serve_args = {"--kind", "freq", "--top", std::to_string(kTopK)};
  spec.build = [config, key, rank_at](Tracer& t, std::size_t site) {
    const std::uint64_t req = site_request(site, 0);
    std::optional<FreqSketch> sketch;
    {
      auto s = t.span("freq.ingest", req);
      sketch.emplace(config);
    }
    std::vector<std::uint64_t> buf(kBatch);
    for (std::uint64_t i = 0; i < kFreqItems; i += kBatch) {
      const std::size_t len = std::min<std::uint64_t>(kBatch, kFreqItems - i);
      {
        auto s = t.span("bench.gen", req);
        for (std::size_t j = 0; j < len; ++j) buf[j] = label_of(key, rank_at(site, i + j));
      }
      auto s = t.span("freq.ingest", req);
      sketch->add_batch(std::span<const std::uint64_t>(buf.data(), len));
    }
    std::vector<std::uint8_t> payload;
    {
      auto s = t.span("freq.serialize", req);
      payload = sketch->serialize();
    }
    auto s = t.span("common.frame_encode", req);
    return ustream::frame_encode(
        {PayloadKind::kFreqSketch, static_cast<std::uint32_t>(site), 0, 0}, payload);
  };
  spec.check = [top](const std::string& answer, Outcome& out) {
    // Labels are full 64-bit values: parse them as integers, not doubles.
    std::size_t pos = answer.find("\"heavy_hitters\":[");
    std::size_t found = 0;
    while (pos != std::string::npos) {
      pos = answer.find("\"label\":", pos);
      if (pos == std::string::npos) break;
      pos += 8;
      const std::uint64_t label = std::strtoull(answer.c_str() + pos, nullptr, 10);
      found += static_cast<std::size_t>(std::count(top.begin(), top.end(), label));
    }
    const double recall = static_cast<double>(found) / static_cast<double>(kTopK);
    if (out.checks.empty()) out.checks.push_back({"hh_recall", 1.0, "fraction"});
    out.checks[0].value = std::min(out.checks[0].value, recall);
    if (recall < 0.95) fail(out, "hh_recall " + std::to_string(recall) + " below 0.95");
    const double items = static_cast<double>(kFreqSites * kFreqItems);
    if (json_number(answer, "f1") != items) fail(out, "union f1 differs from the items sent");
  };
  return spec;
}

// ===========================================================================
// continuous_wal: `serve --continuous --wal-dir` with 64 DeltaSiteSession
// sites (eps 0.3, growth eps/2, groups 1 + s%4). Set-up gives site s a
// prefix of 20000 * 2^(s/64) labels and one full frame each; the window is
// an open loop in which every site grows by the same 2% of its prefix per
// second, labels evenly spaced in time, a frame going out whenever a site's
// threshold is crossed.
//
// A site's 37 copies raise their levels at nearly the same stream length,
// so most frames come in bursts as a site passes 400 * 2^k labels. Prefixes
// spread over one octave and growth proportional to the prefix make those
// crossings, and so the frame rate, even over the window; equal prefixes
// would synchronise the sites, and equal rates would run out of crossings.

constexpr std::size_t kContSites = 64;
constexpr std::size_t kContGroups = 4;
constexpr double kContEps = 0.3;
constexpr double kContGrowthPerSecond = 0.02;
constexpr std::uint64_t kContStride = 16384;
constexpr std::size_t kContThreads = 2;

std::uint64_t cont_prefix(std::size_t site) {
  return static_cast<std::uint64_t>(
      20000.0 * std::exp2(static_cast<double>(site) / static_cast<double>(kContSites)));
}

struct ContinuousSites {
  EstimatorParams params;
  std::uint64_t key = 0;
  std::vector<DeltaSiteSession> sessions;
  std::vector<std::uint64_t> ingested;  // labels each site has seen
};

std::uint16_t site_group(std::size_t site, std::size_t groups) {
  return static_cast<std::uint16_t>(1 + site % groups);
}

// Exact size of the union of the id intervals [s*stride, s*stride + n_s).
double interval_union(const std::vector<std::uint64_t>& lengths, std::uint64_t stride) {
  double total = 0.0;
  std::uint64_t covered_to = 0;
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    const std::uint64_t lo = std::max<std::uint64_t>(s * stride, covered_to);
    const std::uint64_t hi = s * stride + lengths[s];
    if (hi > lo) total += static_cast<double>(hi - lo);
    covered_to = std::max(covered_to, hi);
  }
  return total;
}

// Sends site's pending update (a delta, or a full frame after a resync)
// and settles the session; returns the ack of the first transmission.
std::optional<PushAck> send_update(Tracer& t, TcpTransport& transport, ContinuousSites& cs,
                                   std::size_t site, ThreadStats& st, std::uint64_t& sends,
                                   std::atomic<std::uint64_t>& accepted) {
  DeltaSiteSession& session = cs.sessions[site];
  std::optional<PushAck> first;
  for (int attempt = 0; attempt < 2; ++attempt) {
    DeltaSiteSession::Outgoing msg;
    {
      auto s = t.span("distributed.encode", site_request(site, session.epoch() + 1));
      msg = session.next_update();
    }
    std::vector<std::uint8_t> frame;
    {
      auto s = t.span("common.frame_encode", site_request(site, msg.epoch));
      frame = ustream::frame_encode(
          {msg.is_delta ? PayloadKind::kF0Delta : PayloadKind::kF0Estimator,
           static_cast<std::uint32_t>(site), msg.epoch, site_group(site, kContGroups)},
          msg.payload);
    }
    if (msg.is_delta) {
      ++st.delta_frames;
      st.delta_bytes += static_cast<double>(msg.payload.size());
    }
    ++sends;
    const auto ack = push(t, transport, site, msg.epoch, frame, st);
    if (!first) first = ack;
    if (ack == PushAck::kAccepted) {
      accepted.fetch_add(1);
      session.delivered();
      return first;
    }
    // The chain is broken ('R') or the frame is lost: the next update is a
    // full frame that re-bases the referee's mirror.
    session.lost();
  }
  return first;
}

Outcome run_continuous_wal(const RunConfig& cfg) {
  Outcome out;
  Window w;
  w.sites = kContSites;
  std::vector<Tracer> tracers = make_tracers(cfg.trace);
  const std::string wal_dir = work_path(cfg, "wal");
  const SeedSequence seeds(cfg.seed);
  ContinuousReferee referee;
  std::unique_ptr<ContinuousSites> cs;
  std::atomic<std::uint64_t> accepted{0};

  for (std::size_t i = 0; i < kSetups; ++i) {
    referee.process.reset();
    cs.reset();
    std::filesystem::remove_all(wal_dir);
    accepted = 0;
    const auto t0 = Clock::now();
    referee = start_continuous(cfg, kContSites, {"--wal-dir", wal_dir});
    cs = std::make_unique<ContinuousSites>();
    cs->params = EstimatorParams::for_guarantee(kContEps, 0.05, seeds.child(1));
    cs->key = seeds.child(2);
    for (std::size_t s = 0; s < kContSites; ++s) {
      cs->sessions.emplace_back(cs->params, kContEps / 2);
    }
    cs->ingested.assign(kContSites, 0);
    run_threads(kContThreads, [&](std::size_t slot) {
      TcpTransport transport(kContSites, transport_config(referee.port));
      Tracer untraced(false, 0);
      ThreadStats unused;
      std::uint64_t sends = 0;
      for (std::size_t s = slot; s < kContSites; s += kContThreads) {
        const std::uint64_t prefix = cont_prefix(s);
        for (std::uint64_t k = 0; k < prefix; ++k) {
          cs->sessions[s].add(label_of(cs->key, s * kContStride + k));
        }
        cs->ingested[s] = prefix;
        if (send_update(untraced, transport, *cs, s, unused, sends, accepted) !=
            PushAck::kAccepted) {
          throw std::runtime_error("set-up frame of site " + std::to_string(s) + " rejected");
        }
      }
    });
    w.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  // Measured window: open loop, each thread serving its half of the sites
  // in due order, latency taken from the due time of the label that crossed
  // the threshold.
  const std::uint16_t port = referee.port;
  const std::uint16_t admin_port = referee.admin_port;
  const ObsSnapshot before = scrape(admin_port);
  const auto origin = Clock::now();
  IntervalSampler sampler(*referee.process, origin);
  std::atomic<std::uint64_t> completed{0};
  reset_tracers(tracers, origin);
  run_threads(kContThreads, [&](std::size_t slot) {
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us after it
    Tracer& t = tracers[slot];
    Tracer::Activity activity(t);
    ThreadStats& st = w.threads[slot];
    TcpTransport transport(kContSites, transport_config(port));
    std::uint64_t sends = 0;
    struct Schedule {
      std::size_t site;
      double period_ns;
      double next_ns;  // since origin
    };
    std::vector<Schedule> mine;
    for (std::size_t s = slot; s < kContSites; s += kContThreads) {
      const double period = 1e9 / (kContGrowthPerSecond * static_cast<double>(cont_prefix(s)));
      mine.push_back({s, period, period * (static_cast<double>(s) + 0.5) / kContSites});
    }
    for (;;) {
      if (slot == 0) sampler.sample(completed.load());
      const auto next = std::min_element(
          mine.begin(), mine.end(),
          [](const Schedule& a, const Schedule& b) { return a.next_ns < b.next_ns; });
      if (next->next_ns >= cfg.seconds * 1e9) break;
      const std::size_t site = next->site;
      const auto due =
          origin + std::chrono::nanoseconds(static_cast<std::int64_t>(next->next_ns));
      next->next_ns += next->period_ns;
      const auto now = Clock::now();
      if (now < due) {
        auto s = t.span("bench.idle");
        std::this_thread::sleep_until(due);
      } else {
        st.max_lag_ms = std::max(st.max_lag_ms, ms_between(due, now));
      }
      DeltaSiteSession& session = cs->sessions[site];
      bool crossed = false;
      {
        auto s = t.span("distributed.ingest", site_request(site, session.epoch() + 1));
        crossed = session.add(label_of(cs->key, site * kContStride + cs->ingested[site]++));
      }
      if (!crossed) continue;
      ++st.attempted;
      auto op = t.span(kOpSpan, site_request(site, session.epoch() + 1));
      if (send_update(t, transport, *cs, site, st, sends, accepted) == PushAck::kAccepted) {
        st.latency_ms.push_back(ms_between(due, Clock::now()));
        completed.fetch_add(1);
      } else {
        ++st.failed;
      }
    }
    settle_transport(transport, sends, st);
  });
  w.intervals = sampler.finish(completed.load());
  w.referee_wall_s = ms_between(origin, Clock::now()) / 1e3;
  w.referee = obs_delta(before, scrape(admin_port));
  w.t2_bound_bits = static_cast<double>(cs->params.capacity * cs->params.copies) * 64.0;

  // Untimed flush: every site's suppressed tail goes out, so the referee's
  // live union must match the exact union of all labels.
  std::atomic<std::uint64_t> flush_failures{0};
  run_threads(kContThreads, [&](std::size_t slot) {
    TcpTransport transport(kContSites, transport_config(port));
    Tracer untraced(false, 0);
    ThreadStats unused;
    std::uint64_t sends = 0;
    for (std::size_t s = slot; s < kContSites; s += kContThreads) {
      if (cs->sessions[s].dirty() &&
          send_update(untraced, transport, *cs, s, unused, sends, accepted) !=
              PushAck::kAccepted) {
        flush_failures.fetch_add(1);
      }
    }
  });
  if (flush_failures.load() != 0) fail(out, "flush frames were rejected");
  const ObsSnapshot final_stats = scrape(admin_port);
  const double exact = interval_union(cs->ingested, kContStride);
  const double err = std::fabs(counter(final_stats, "ustream_referee_live_estimate") / exact - 1.0);
  out.checks.push_back({"union_rel_err", err, "abs"});
  if (err > kContEps) fail(out, "union_rel_err " + std::to_string(err) + " outside eps 0.3");
  check_accepted(final_stats, accepted.load(), out);
  w.referee_rss_mb = referee.process->terminate().max_rss_mb;
  report(cfg, w, tracers, out);
  return out;
}

// ===========================================================================
// live_query: `serve --continuous`, no WAL. Set-up preloads 64 sites in
// groups 1..8 over a universe where ids below kQueryCore sit in each site
// with probability 1/2 and the rest with probability 1/14 (~200k labels a
// site). The window runs a closed-loop admin client over a fixed
// 5-expression mix beside a 20 Hz writer re-pushing full frames. The writer
// re-ingests labels its site already holds, so every answer stays fixed and
// checkable against the exact cardinality.

constexpr std::size_t kQuerySites = 64;
constexpr std::size_t kQueryGroups = 8;
constexpr double kQueryEps = 0.3;  // capacity 400: a full-frame write re-merges 64 sites in ~5 ms
constexpr std::uint64_t kQueryUniverse = 1'600'000;
constexpr std::uint64_t kQueryCore = 200'000;
constexpr double kWriterHz = 20.0;
constexpr std::size_t kReingest = 256;

struct QueryExpr {
  const char* text;
  std::function<bool(std::uint64_t mask)> exact;  // over site-membership bits
};

std::uint64_t group_mask(std::size_t group) {
  std::uint64_t m = 0;
  for (std::size_t s = 0; s < kQuerySites; ++s) {
    if (site_group(s, kQueryGroups) == group) m |= 1ull << s;
  }
  return m;
}

// 2 to 8 operands mixing site: and group:, with &, |, \ and !. Each answer
// is a sizable share of its operands' union, so the DLRT standard error
// stays small.
std::vector<QueryExpr> query_mix() {
  auto in = [](std::uint64_t mask, std::uint64_t set) { return (mask & set) != 0; };
  auto site = [](std::size_t s) { return 1ull << s; };
  const std::uint64_t g1 = group_mask(1), g2 = group_mask(2), g3 = group_mask(3),
                      g4 = group_mask(4), g5 = group_mask(5);
  return {
      {"group:1 & group:2", [=](std::uint64_t m) { return in(m, g1) && in(m, g2); }},
      {"(group:3 | group:4) \\ site:5",
       [=](std::uint64_t m) { return in(m, g3 | g4) && !in(m, site(5)); }},
      {"site:20 & !site:4 & !site:12 & group:5",
       [=](std::uint64_t m) {
         return in(m, site(20)) && !in(m, site(4)) && !in(m, site(12)) && in(m, g5);
       }},
      {"(site:0 | site:8 | site:16) & (group:2 | group:3) \\ site:40",
       [=](std::uint64_t m) {
         return in(m, site(0) | site(8) | site(16)) && in(m, g2 | g3) && !in(m, site(40));
       }},
      {"(group:1 | group:2 | group:3 | group:4) & (site:1 | site:2 | site:3 | site:4)",
       [=](std::uint64_t m) {
         return in(m, g1 | g2 | g3 | g4) && in(m, site(1) | site(2) | site(3) | site(4));
       }},
  };
}

struct QueryState {
  std::vector<F0Estimator> sketches;
  std::vector<std::vector<std::uint64_t>> reingest;  // labels each site already holds
  std::vector<double> exact;                         // per expression
};

QueryState build_query_state(const EstimatorParams& params, std::uint64_t key,
                             std::uint64_t member_key, const std::vector<QueryExpr>& mix) {
  std::vector<std::uint64_t> masks(kQueryUniverse, 0);
  run_threads(kThreads, [&](std::size_t slot) {
    const std::uint64_t lo = kQueryUniverse * slot / kThreads;
    const std::uint64_t hi = kQueryUniverse * (slot + 1) / kThreads;
    for (std::uint64_t x = lo; x < hi; ++x) {
      const std::uint64_t threshold =
          x < kQueryCore ? (1ull << 63) : ~std::uint64_t{0} / 14;
      std::uint64_t m = 0;
      for (std::size_t s = 0; s < kQuerySites; ++s) {
        if (ustream::SplitMix64::mix(member_key ^ (x * kQuerySites + s)) < threshold) {
          m |= 1ull << s;
        }
      }
      masks[x] = m;
    }
  });
  QueryState q;
  q.sketches.assign(kQuerySites, F0Estimator(params));
  q.reingest.resize(kQuerySites);
  run_threads(kThreads, [&](std::size_t slot) {
    std::vector<std::uint64_t> buf;
    buf.reserve(kBatch);
    for (std::size_t s = slot; s < kQuerySites; s += kThreads) {
      for (std::uint64_t x = 0; x < kQueryUniverse; ++x) {
        if ((masks[x] >> s & 1u) == 0) continue;
        buf.push_back(label_of(key, x));
        if (buf.size() == kBatch) {
          q.sketches[s].add_batch(buf);
          buf.clear();
        }
        if (q.reingest[s].size() < kReingest) q.reingest[s].push_back(label_of(key, x));
      }
      q.sketches[s].add_batch(buf);
      buf.clear();
    }
  });
  for (const QueryExpr& e : mix) {
    double n = 0.0;
    for (std::uint64_t m : masks) n += e.exact(m) ? 1.0 : 0.0;
    q.exact.push_back(n);
  }
  return q;
}

Outcome run_live_query(const RunConfig& cfg) {
  Outcome out;
  Window w;
  w.sites = kQuerySites;
  std::vector<Tracer> tracers = make_tracers(cfg.trace);
  const SeedSequence seeds(cfg.seed);
  const EstimatorParams params = EstimatorParams::for_guarantee(kQueryEps, 0.05, seeds.child(1));
  const std::vector<QueryExpr> mix = query_mix();
  std::vector<std::string> requests;
  for (const QueryExpr& e : mix) {
    requests.push_back("GET /query?e=" + ustream::query::percent_encode(e.text) + "\n");
  }
  ContinuousReferee referee;
  std::optional<QueryState> state;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::uint32_t> epochs;

  for (std::size_t i = 0; i < kSetups; ++i) {
    referee.process.reset();
    state.reset();
    accepted = 0;
    const auto t0 = Clock::now();
    referee = start_continuous(cfg, kQuerySites, {});
    state.emplace(build_query_state(params, seeds.child(2), seeds.child(3), mix));
    epochs.assign(kQuerySites, 1);
    run_threads(kThreads, [&](std::size_t slot) {
      TcpTransport transport(kQuerySites, transport_config(referee.port));
      for (std::size_t s = slot; s < kQuerySites; s += kThreads) {
        const auto frame = ustream::frame_encode(
            {PayloadKind::kF0Estimator, static_cast<std::uint32_t>(s), 1,
             site_group(s, kQueryGroups)},
            state->sketches[s].serialize());
        if (transport.send_with_ack(s, frame) != PushAck::kAccepted) {
          throw std::runtime_error("preload frame of site " + std::to_string(s) + " rejected");
        }
        accepted.fetch_add(1);
      }
    });
    w.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  const std::uint16_t port = referee.port;
  const std::uint16_t admin_port = referee.admin_port;
  const ObsSnapshot before = scrape(admin_port);
  const auto origin = Clock::now();
  const auto end = origin + std::chrono::nanoseconds(static_cast<std::int64_t>(cfg.seconds * 1e9));
  IntervalSampler sampler(*referee.process, origin);
  reset_tracers(tracers, origin);
  run_threads(2, [&](std::size_t slot) {
    Tracer& t = tracers[slot];
    Tracer::Activity activity(t);
    ThreadStats& st = w.threads[slot];
    if (slot == 0) {  // closed-loop query client
      for (std::uint64_t n = 0; Clock::now() < end; ++n) {
        sampler.sample(st.latency_ms.size());
        const std::size_t q = n % requests.size();
        ++st.attempted;
        const auto start = Clock::now();
        auto op = t.span(kOpSpan, kQueryBit | n);
        std::string reply;
        try {
          auto s = t.span("net.admin", kQueryBit | n);
          reply = admin_get(admin_port, requests[q]);
        } catch (const ustream::net::TransportError&) {
        }
        const double ms = ms_between(start, Clock::now());
        if (reply.rfind("{\"query\"", 0) != 0) {
          ++st.failed;
          continue;
        }
        st.latency_ms.push_back(ms);
        st.query_ms += ms;
      }
      return;
    }
    // Open-loop writer: one full-frame re-push every 1/kWriterHz seconds,
    // round-robin over the sites, latency from the due time.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    TcpTransport transport(kQuerySites, transport_config(port));
    std::uint64_t sends = 0;
    for (std::uint64_t k = 0;; ++k) {
      const auto due = origin + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                    static_cast<double>(k) * 1e9 / kWriterHz));
      if (due >= end) break;
      const auto now = Clock::now();
      if (now < due) {
        auto s = t.span("bench.idle");
        std::this_thread::sleep_until(due);
      } else {
        st.max_lag_ms = std::max(st.max_lag_ms, ms_between(due, now));
      }
      const std::size_t site = k % kQuerySites;
      const std::uint32_t epoch = ++epochs[site];
      const std::uint64_t req = site_request(site, epoch);
      ++st.attempted;
      auto op = t.span(kOpSpan, req);
      {
        auto s = t.span("core.ingest", req);
        state->sketches[site].add_batch(state->reingest[site]);
      }
      std::vector<std::uint8_t> payload;
      {
        auto s = t.span("core.serialize", req);
        payload = state->sketches[site].serialize();
      }
      std::vector<std::uint8_t> frame;
      {
        auto s = t.span("common.frame_encode", req);
        frame = ustream::frame_encode({PayloadKind::kF0Estimator,
                                       static_cast<std::uint32_t>(site), epoch,
                                       site_group(site, kQueryGroups)},
                                      payload);
      }
      ++sends;
      if (push(t, transport, site, epoch, frame, st) == PushAck::kAccepted) {
        accepted.fetch_add(1);
      } else {
        ++st.failed;
      }
    }
    settle_transport(transport, sends, st);
  });
  w.intervals = sampler.finish(w.threads[0].latency_ms.size());
  w.referee_wall_s = ms_between(origin, Clock::now()) / 1e3;
  w.referee = obs_delta(before, scrape(admin_port));

  // Final answers against the exact cardinalities of the generated sets.
  double worst_z = 0.0;
  for (std::size_t q = 0; q < mix.size(); ++q) {
    const std::string reply = admin_get(admin_port, requests[q]);
    if (reply.rfind("{\"query\"", 0) != 0) {
      fail(out, std::string("query '") + mix[q].text + "' failed: " + reply);
      continue;
    }
    const double est = json_number(reply, "estimate");
    const double se = json_number(reply, "std_error");
    const double z = std::fabs(est - state->exact[q]) / std::max(se, 1e-9);
    worst_z = std::max(worst_z, z);
    if (z > 3.0) {
      fail(out, std::string("query '") + mix[q].text + "' answered " + std::to_string(est) +
                    " +- " + std::to_string(se) + ", exact " + std::to_string(state->exact[q]));
    }
  }
  out.checks.push_back({"query_max_abs_z", worst_z, "se"});
  check_accepted(scrape(admin_port), accepted.load(), out);
  w.referee_rss_mb = referee.process->terminate().max_rss_mb;
  report(cfg, w, tracers, out);
  return out;
}

}  // namespace

Outcome run_workload(const RunConfig& cfg) {
  if (cfg.workload == "oneshot_f0") {
    return run_oneshot(cfg, [&] { return oneshot_f0_spec(cfg.seed); });
  }
  if (cfg.workload == "oneshot_freq") {
    return run_oneshot(cfg, [&] { return oneshot_freq_spec(cfg.seed); });
  }
  if (cfg.workload == "continuous_wal") return run_continuous_wal(cfg);
  if (cfg.workload == "live_query") return run_live_query(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace bench
