// The four pipeline workloads. Each drives a real `ustream serve` child
// over loopback and fills an Outcome with the end-to-end metrics (untraced
// and traced runs alike) and the per-layer metrics (meaningful only when
// tracing is on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;    // length of the measured window
  bool trace = false;
  std::string serve;        // path to the ustream binary
  std::string work_dir;     // port files, WAL segments, referee output
  std::string trace_path;   // Chrome trace output ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<std::string> failures;  // failed correctness checks
  std::uint64_t attempted = 0;        // operations in the measured window
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> checks;         // the values the correctness checks read
};

// Throws std::invalid_argument for an unknown workload.
Outcome run_workload(const RunConfig& config);

}  // namespace bench
