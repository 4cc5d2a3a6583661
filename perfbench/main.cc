// qjo_perfbench: end-to-end benchmark of the join-ordering request path.
//
//   qjo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about <s> seconds (whole rounds), checks every
// returned plan, and prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// See README.md for the workloads and metrics.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

/// Taken during static initialisation: the process start for setup_s.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

std::string JsonNumber(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

int Usage(const std::string& error) {
  std::cerr << "qjo_perfbench: " << error
            << "\nusage: qjo_perfbench --workload <";
  const auto& names = perfbench::WorkloadNames();
  for (size_t i = 0; i < names.size(); ++i) std::cerr << (i ? "|" : "") << names[i];
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.process_start = kProcessStart;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      options.trace = value == "1";
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::WorkloadNames();
  if (!have_workload ||
      std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return Usage("unknown or missing --workload");
  }

  perfbench::RunOutcome out = perfbench::RunWorkload(options);
  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.Fail("metric " + m.name + " is not finite");
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + m.name +
               "\": {\"value\": " + JsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& note : out.notes) std::cerr << options.workload << ": " << note << "\n";
  for (const std::string& error : out.errors) std::cerr << "FAIL: " << error << "\n";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
