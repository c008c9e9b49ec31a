// Observability core: a low-overhead metrics registry every layer of the
// tree reports into (DESIGN.md §9).
//
// The functional-monitoring regime this library targets — long-lived sites
// continuously reporting to a coordinator — cannot be operated blind:
// retries, quarantines, merge times and sampler level-raises must be
// visible WHILE a collection is in flight, not post-hoc in a
// CollectReport. The contract here is:
//
//   * writers are lock-free: Counter/Gauge are single relaxed atomics,
//     the latency Histogram is a fixed array of relaxed atomics sharing
//     the power-of-two bucket rule of common/histogram.h
//     (log2_bucket_index), so a hot-path increment is one uncontended
//     `lock add` and never takes a mutex;
//   * registration is name+labels keyed and returns a reference that
//     stays valid for the registry's lifetime (node-stable storage), so
//     call sites pay the map lookup once, through a function-local
//     static;
//   * snapshot() never stops writers: it reads the atomics with relaxed
//     loads and derives each histogram's count from the bucket reads
//     themselves, so a snapshot can lag a concurrent writer but can
//     never show a count that disagrees with its own buckets (the
//     "no torn totals" rule tests/test_obs.cpp hammers under TSan).
//
// Subsystems own their metric names, not this header: the referee server
// registers its frame-verdict set, and the durability plane registers
// ustream_wal_{records,bytes,fsyncs,rotations,snapshots}_total plus
// ustream_recovery_replayed_frames_total through function-local statics
// in src/durability — the registry's pointer-stable registration is what
// makes that pattern safe (DESIGN.md §9.2 lists the full inventory).
//
// Compile-time escape hatch: building with -DUSTREAM_NO_METRICS compiles
// the USTREAM_* instrumentation macros below to nothing (the classes stay
// available so non-macro call sites still build). bench_obs measures both
// flavors and `bench/run_gates.py obs` gates enabled-but-idle metrics at
// <2% on the ingestion and merge rows.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/histogram.h"

#if defined(USTREAM_NO_METRICS)
#define USTREAM_METRICS_ENABLED 0
#else
#define USTREAM_METRICS_ENABLED 1
#endif

namespace ustream::obs {

// Monotone event count. add() is wait-free; value() is a relaxed load, so
// a reader may lag writers but never observes a decrease.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Instantaneous level (open connections, queue depth). Signed so paired
// add/sub callers cannot underflow into 2^64.
class Gauge {
 public:
  void add(std::int64_t delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }
  void sub(std::int64_t delta) noexcept { add(-delta); }
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Fixed-bucket latency histogram over nonnegative integers (nanoseconds by
// convention — the _ns suffix in the naming scheme). Buckets follow
// common/histogram.h's log2_bucket_index rule: bucket 0 holds 0, bucket i
// holds [2^(i-1), 2^i); values past the last bucket clamp into it (2^46 ns
// is ~19.5 hours — nothing we time legitimately overflows that).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void observe(std::uint64_t value) noexcept {
    const std::size_t idx = std::min(log2_bucket_index(value), kBuckets - 1);
    buckets_[idx].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  // Derived from the buckets, never stored separately — the reason a
  // concurrent snapshot cannot tear count vs buckets.
  std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

// One metric read at snapshot time. `labels` is the pre-rendered
// Prometheus label body (e.g. `kind="f0"`), empty for unlabeled metrics.
struct MetricSample {
  std::string name;
  std::string labels;
  MetricType type = MetricType::kCounter;
  std::uint64_t counter_value = 0;             // kCounter
  std::int64_t gauge_value = 0;                // kGauge
  std::vector<std::uint64_t> buckets;          // kHistogram (log2 rule)
  std::uint64_t count = 0;                     // kHistogram: == sum(buckets)
  std::uint64_t sum = 0;                       // kHistogram
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // sorted by (name, labels)

  // nullptr when absent — callers asserting on a specific metric.
  const MetricSample* find(std::string_view name, std::string_view labels = {}) const noexcept;
  std::uint64_t counter_or(std::string_view name, std::uint64_t fallback = 0) const noexcept;
};

// Name+labels keyed registry. Registration takes a mutex (once per call
// site via the macros' function-local statics); returned references are
// stable for the registry's lifetime. A name may hold many label sets but
// only ONE metric type — re-registering under a different type throws
// InvalidArgument, keeping the exposition format unambiguous.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view labels = {});
  Gauge& gauge(std::string_view name, std::string_view labels = {});
  LatencyHistogram& histogram(std::string_view name, std::string_view labels = {});

  // Consistent-per-metric view of the registry without stopping writers.
  MetricsSnapshot snapshot() const;

  std::size_t size() const;

 private:
  struct Slot {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };
  Slot& slot(std::string_view name, std::string_view labels, MetricType type);

  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, Slot> slots_;
};

// The process-wide registry every instrumentation macro and built-in
// metric set reports into; the admin endpoint and the `ustream stats`
// dumps render exactly this.
MetricsRegistry& default_registry();

}  // namespace ustream::obs

// --- instrumentation macros --------------------------------------------------
//
// The only API hot paths use. Each call site resolves its metric once
// (function-local static) and then pays a single relaxed atomic op. Under
// -DUSTREAM_NO_METRICS they compile to nothing.

#if USTREAM_METRICS_ENABLED

#define USTREAM_COUNTER_ADD(name, delta)                                \
  do {                                                                  \
    static ::ustream::obs::Counter& ustream_obs_counter_ =              \
        ::ustream::obs::default_registry().counter(name);               \
    ustream_obs_counter_.add(static_cast<std::uint64_t>(delta));        \
  } while (0)

#define USTREAM_GAUGE_ADD(name, delta)                                  \
  do {                                                                  \
    static ::ustream::obs::Gauge& ustream_obs_gauge_ =                  \
        ::ustream::obs::default_registry().gauge(name);                 \
    ustream_obs_gauge_.add(static_cast<std::int64_t>(delta));           \
  } while (0)

#define USTREAM_HISTOGRAM_OBSERVE(name, value)                          \
  do {                                                                  \
    static ::ustream::obs::LatencyHistogram& ustream_obs_hist_ =        \
        ::ustream::obs::default_registry().histogram(name);             \
    ustream_obs_hist_.observe(static_cast<std::uint64_t>(value));       \
  } while (0)

#else

#define USTREAM_COUNTER_ADD(name, delta) ((void)0)
#define USTREAM_GAUGE_ADD(name, delta) ((void)0)
#define USTREAM_HISTOGRAM_OBSERVE(name, value) ((void)0)

#endif  // USTREAM_METRICS_ENABLED
