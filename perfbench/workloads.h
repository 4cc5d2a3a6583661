// The benchmark's workloads: each drives the program through its public
// entry points (OptimizeJoinOrder, OptimizerService::Submit), checks every
// returned plan and reports end-to-end metrics (timed run) or per-layer
// metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_out";
  /// Process start, the zero point of setup_s.
  std::chrono::steady_clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false (one line each, printed to stderr).
  std::vector<std::string> errors;
  /// Reference figures outside the metric set (printed to stderr).
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload; `options.workload` must be one of WorkloadNames().
RunOutcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
