// bench_pipeline — end-to-end load generator for the ustream referee.
//
// Spawns the real `ustream serve` binary and drives it over loopback
// through the library's site API (F0Estimator, DeltaSiteSession,
// FreqSketch, frame_encode, TcpTransport) and the admin routes. Prints
// every metric as `workload metric value unit`, then one JSON line:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// Exits 1 when a correctness check fails, 2 on bad usage.
//
//   bench_pipeline --workload NAME --seed S --seconds T --trace 0|1
//                  --serve PATH/TO/ustream --work-dir DIR
//                  [--trace-file FILE] [--out RESULT.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

std::string metrics_json(const std::vector<bench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_pipeline: %s\nusage: bench_pipeline --workload NAME --seed S "
               "--seconds T --trace 0|1 --serve USTREAM --work-dir DIR "
               "[--trace-file FILE] [--out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  for (const char* required : {"workload", "seed", "seconds", "trace", "serve", "work-dir"}) {
    if (args.count(required) == 0) return usage((std::string("missing --") + required).c_str());
  }

  bench::RunConfig cfg;
  cfg.workload = args["workload"];
  cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  cfg.trace = args["trace"] == "1";
  cfg.serve = args["serve"];
  cfg.work_dir = args["work-dir"];
  cfg.trace_path = cfg.trace ? args["trace-file"] : "";
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1") return usage("--trace takes 0 or 1");

  bench::Outcome outcome;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    outcome = bench::run_workload(cfg);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }
  if (outcome.failed != 0) {
    outcome.failures.push_back(std::to_string(outcome.failed) + " of " +
                               std::to_string(outcome.attempted) + " operations failed");
  }
  std::vector<bench::Metric>& reported = cfg.trace ? outcome.per_layer : outcome.end_to_end;
  for (bench::Metric& m : reported) {
    if (std::isfinite(m.value)) continue;
    outcome.failures.push_back(m.name + " is not finite");
    m.value = 0.0;  // keep the result line valid JSON
  }
  const bool correct = outcome.failures.empty();

  const std::string fingerprint = bench::host_fingerprint_json();
  std::printf("fingerprint %s\n", fingerprint.c_str());
  for (const auto* group : {&outcome.end_to_end, &outcome.per_layer, &outcome.checks}) {
    for (const bench::Metric& m : *group) {
      std::printf("%s %s %.6g %s\n", cfg.workload.c_str(), m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& f : outcome.failures) {
    std::fprintf(stderr, "bench_pipeline: %s: FAILED %s\n", cfg.workload.c_str(), f.c_str());
  }
  const std::string result = "{\"correct\":" + std::string(correct ? "true" : "false") +
                             ",\"attempted\":" + std::to_string(outcome.attempted) +
                             ",\"failed\":" + std::to_string(outcome.failed) +
                             ",\"metrics\":" + metrics_json(reported) + "}";
  if (args.count("out") != 0) {
    std::FILE* f = std::fopen(args["out"].c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_pipeline: cannot write %s\n", args["out"].c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
                 "\"fingerprint\":%s,\"result\":%s}\n",
                 cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                 cfg.trace ? 1 : 0, fingerprint.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
