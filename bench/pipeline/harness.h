// Plumbing for the pipeline benchmark: span tracing kept in the generator's
// own buffers, the referee child process (spawn, port files, SIGTERM,
// wait4 rusage), one-line admin requests, parsing of the referee's JSON
// output, and the host fingerprint every result carries.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Linearly interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Spans. Each generator thread owns one Tracer; nothing is shared between
// threads while a workload runs, and the buffers are read after the threads
// are joined.

// Request ids: a site frame is (site, epoch), a query carries kQueryBit.
inline constexpr std::uint64_t kQueryBit = 1ull << 63;
inline std::uint64_t site_request(std::size_t site, std::uint32_t epoch) {
  return (static_cast<std::uint64_t>(site) << 32) | epoch;
}

struct Span {
  const char* name = nullptr;  // "layer.call"; a string literal
  std::int64_t start_ns = 0;   // since the tracer's origin
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;   // time covered by direct children
  std::int32_t parent = -1;    // index into the same buffer; -1 = root
  std::uint64_t request = 0;
};

// The wrapper span around one operation; its self time is time no layer
// span covers, so it counts against bench.span_coverage.
inline constexpr const char* kOpSpan = "bench.op";

class Tracer {
 public:
  // A disabled tracer records nothing. An enabled one preallocates
  // `capacity` spans and skips spans beyond that (coverage then drops).
  Tracer(bool enabled, std::size_t capacity);

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };
  Scope span(const char* name, std::uint64_t request = 0) { return Scope(*this, name, request); }

  // Adds the lifetime of the returned object to this thread's wall time:
  // the denominator of the layer shares.
  class Activity {
   public:
    explicit Activity(Tracer& tracer) : tracer_(tracer), start_(Clock::now()) {}
    ~Activity();
    Activity(const Activity&) = delete;
    Activity& operator=(const Activity&) = delete;

   private:
    Tracer& tracer_;
    Clock::time_point start_;
  };

  // Drops everything recorded so far: the measured window starts here.
  void reset(Clock::time_point origin);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::int64_t wall_ns() const noexcept { return wall_ns_; }

 private:
  bool enabled_;
  std::size_t capacity_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::int64_t wall_ns_ = 0;
};

// Self time per span name plus the coverage and overhead figures, summed
// over a set of thread buffers.
struct TraceSummary {
  std::map<std::string, std::int64_t> self_ns;
  std::map<std::string, std::vector<double>> durations_us;  // per span name
  std::int64_t wall_ns = 0;
  std::int64_t covered_ns = 0;  // self time of every span except kOpSpan
  std::size_t spans = 0;
};
TraceSummary summarize(const std::vector<const Tracer*>& tracers);

// Cost of recording one span, measured on this host.
double span_cost_ns();

// Chrome trace JSON ("traceEvents", complete events), one tid per thread,
// holding each thread's first kTraceFileSpans spans: a per-label loop
// records millions, which would make a file of hundreds of MB.
inline constexpr std::size_t kTraceFileSpans = 20'000;
void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers);

// ---------------------------------------------------------------------------
// The referee under test, as a child process.

struct ProcessUsage {
  double cpu_s = 0.0;       // user + system
  double max_rss_mb = 0.0;  // ru_maxrss
  int exit_code = -1;       // -1 when ended by a signal
};

class RefereeProcess {
 public:
  // Starts `exe args...` with stdout and stderr sent to files under `dir`.
  // The child is killed if the generator dies first.
  RefereeProcess(const std::string& exe, const std::vector<std::string>& args,
                 const std::string& dir);
  // Kills and reaps a child that is still running.
  ~RefereeProcess();
  RefereeProcess(const RefereeProcess&) = delete;
  RefereeProcess& operator=(const RefereeProcess&) = delete;

  // Waits until the referee has written `path` (it does so after binding)
  // and returns the port in it. Throws if the child exits first.
  std::uint16_t wait_for_port(const std::string& path) const;

  // CPU time so far, summed over the child's threads from /proc.
  double cpu_seconds() const;

  ProcessUsage wait();       // reaps a child that exits on its own
  ProcessUsage terminate();  // SIGTERM, then reap
  std::string output() const;
  std::string errors() const;

 private:
  ProcessUsage reap();

  pid_t pid_ = -1;
  std::string out_path_;
  std::string err_path_;
};

// One admin round trip: send the request line, read until the referee
// closes the connection.
std::string admin_get(std::uint16_t port, const std::string& request);

// ---------------------------------------------------------------------------
// Parsing of the referee's output.

// One sample of the obs JSON rendering, by metric name (a --shards 1
// referee emits no labels). Counters and gauges fill value; histograms
// fill count and sum (nanoseconds).
struct ObsSample {
  double value = 0.0;
  double count = 0.0;
  double sum = 0.0;
};
using ObsSnapshot = std::map<std::string, ObsSample>;
ObsSnapshot parse_obs_json(const std::string& text);
// after - before, sample by sample; meaningful for counters and histograms.
ObsSnapshot obs_delta(const ObsSnapshot& before, const ObsSnapshot& after);
ObsSnapshot& operator+=(ObsSnapshot& into, const ObsSnapshot& add);

// The number after the first `"key":` in `text`; throws when absent.
double json_number(const std::string& text, const std::string& key);

// ---------------------------------------------------------------------------
// Host fingerprint: nproc, CPU model and MHz, kernel, compiler, build type
// and commit, as one JSON object.
std::string host_fingerprint_json();

}  // namespace bench
