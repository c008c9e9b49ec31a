#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/socket.h"

namespace bench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

}  // namespace

Tracer::Tracer(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(enabled ? capacity : 0) {
  spans_.reserve(capacity_);
  stack_.reserve(64);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request) : tracer_(tracer) {
  if (!tracer.enabled_ || tracer.spans_.size() >= tracer.capacity_) return;
  Span s;
  s.name = name;
  s.start_ns = ns_since(tracer.origin_);
  s.parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
  s.request = request;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  tracer.spans_.push_back(s);
  tracer.stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
  s.end_ns = ns_since(tracer_.origin_);
  tracer_.stack_.pop_back();
  if (s.parent >= 0) {
    tracer_.spans_[static_cast<std::size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

Tracer::Activity::~Activity() {
  tracer_.wall_ns_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count();
}

void Tracer::reset(Clock::time_point origin) {
  origin_ = origin;
  spans_.clear();
  stack_.clear();
  wall_ns_ = 0;
}

TraceSummary summarize(const std::vector<const Tracer*>& tracers) {
  TraceSummary out;
  for (const Tracer* t : tracers) {
    out.wall_ns += t->wall_ns();
    out.spans += t->spans().size();
    for (const Span& s : t->spans()) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::int64_t self = dur - s.child_ns;
      out.self_ns[s.name] += self;
      out.durations_us[s.name].push_back(static_cast<double>(dur) / 1e3);
      if (std::strcmp(s.name, kOpSpan) != 0) out.covered_ns += self;
    }
  }
  return out;
}

double span_cost_ns() {
  constexpr std::size_t kSpans = 200'000;
  Tracer t(true, kSpans);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) {
    auto s = t.span("bench.calibrate");
  }
  return ms_between(start, Clock::now()) * 1e6 / static_cast<double>(kSpans);
}

void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
    const std::vector<Span>& spans = tracers[tid]->spans();
    for (std::size_t i = 0; i < std::min(spans.size(), kTraceFileSpans); ++i) {
      const Span& s = spans[i];
      char request[48];
      if (s.request & kQueryBit) {
        std::snprintf(request, sizeof(request), "q#%llu",
                      static_cast<unsigned long long>(s.request & ~kQueryBit));
      } else {
        std::snprintf(request, sizeof(request), "%llu:%llu",
                      static_cast<unsigned long long>(s.request >> 32),
                      static_cast<unsigned long long>(s.request & 0xffffffffu));
      }
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"request\":\"%s\",\"parent\":%d}}",
                   first ? "" : ",", s.name, tid, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, request, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

// ---------------------------------------------------------------------------
// RefereeProcess

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

RefereeProcess::RefereeProcess(const std::string& exe, const std::vector<std::string>& args,
                               const std::string& dir)
    : out_path_(dir + "/serve.out"), err_path_(dir + "/serve.err") {
  std::vector<std::string> argv_store;
  argv_store.push_back(exe);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int out = ::open(out_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = ::open(err_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || ::dup2(out, 1) < 0 || ::dup2(err, 2) < 0) ::_exit(127);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
}

RefereeProcess::~RefereeProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  reap();
}

std::uint16_t RefereeProcess::wait_for_port(const std::string& path) const {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    const std::string text = read_file(path);
    if (!text.empty() && text.back() == '\n') {
      return static_cast<std::uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
    }
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOHANG | WNOWAIT) == 0 &&
        info.si_pid != 0) {
      throw std::runtime_error("referee exited before listening: " + errors());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("referee did not write " + path + " within 30 s");
}

double RefereeProcess::cpu_seconds() const {
  // schedstat's first field is the task's time on CPU in nanoseconds; the
  // process's CPU time is the sum over its threads.
  double ns = 0.0;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks)) {
    ns += std::strtod(read_file(task.path().string() + "/schedstat").c_str(), nullptr);
  }
  return ns / 1e9;
}

ProcessUsage RefereeProcess::reap() {
  ProcessUsage usage;
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid_, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  }
  pid_ = -1;
  usage.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  usage.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  usage.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return usage;
}

ProcessUsage RefereeProcess::wait() { return reap(); }

ProcessUsage RefereeProcess::terminate() {
  ::kill(pid_, SIGTERM);
  return reap();
}

std::string RefereeProcess::output() const { return read_file(out_path_); }
std::string RefereeProcess::errors() const { return read_file(err_path_); }

std::string admin_get(std::uint16_t port, const std::string& request) {
  using namespace std::chrono_literals;
  ustream::net::Socket sock = ustream::net::connect_tcp("127.0.0.1", port, 2000ms, 10000ms);
  ustream::net::send_all(sock, std::span<const std::uint8_t>(
                                   reinterpret_cast<const std::uint8_t*>(request.data()),
                                   request.size()));
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0) {
      throw ustream::net::TransportError("admin read failed");
    } else {
      return response;
    }
  }
}

// ---------------------------------------------------------------------------
// Parsing

double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) throw std::runtime_error("no \"" + key + "\" in referee output");
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

ObsSnapshot parse_obs_json(const std::string& text) {
  static const std::string kOpen = "{\"name\":\"";
  ObsSnapshot snap;
  std::size_t pos = text.find(kOpen);
  while (pos != std::string::npos) {
    const std::size_t name_start = pos + kOpen.size();
    const std::size_t name_end = text.find('"', name_start);
    const std::size_t next = text.find(kOpen, name_end);
    const std::string object = text.substr(name_end, next - name_end);
    ObsSample& s = snap[text.substr(name_start, name_end - name_start)];
    if (object.find("\"type\":\"histogram\"") != std::string::npos) {
      s.count += json_number(object, "count");
      s.sum += json_number(object, "sum");
    } else {
      s.value += json_number(object, "value");
    }
    pos = next;
  }
  return snap;
}

ObsSnapshot obs_delta(const ObsSnapshot& before, const ObsSnapshot& after) {
  ObsSnapshot d = after;
  for (auto& [name, s] : d) {
    const auto it = before.find(name);
    if (it == before.end()) continue;
    s.value -= it->second.value;
    s.count -= it->second.count;
    s.sum -= it->second.sum;
  }
  return d;
}

ObsSnapshot& operator+=(ObsSnapshot& into, const ObsSnapshot& add) {
  for (const auto& [name, s] : add) {
    ObsSample& t = into[name];
    t.value += s.value;
    t.count += s.count;
    t.sum += s.sum;
  }
  return into;
}

// ---------------------------------------------------------------------------
// Fingerprint

namespace {

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string host_fingerprint_json() {
  struct utsname uts {};
  ::uname(&uts);
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  const char* commit = std::getenv("BENCH_COMMIT");
  return "{\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu_model\":" + json_string(cpuinfo_field("model name")) +
         ",\"cpu_mhz\":" + json_string(cpuinfo_field("cpu MHz")) +
         ",\"kernel\":" + json_string(uts.release) + ",\"compiler\":" + json_string(compiler) +
         ",\"build_type\":" + json_string(BENCH_BUILD_TYPE) +
         ",\"commit\":" + json_string(commit != nullptr ? commit : "unknown") + "}";
}

}  // namespace bench
