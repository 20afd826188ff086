// The four workloads of the navigation benchmark (README.md explains why
// each exists and which layers it stresses or bypasses).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "util/status.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for table files and the flight log.
  std::string work_dir;
  /// Survey size (points), the same for every workload.
  uint64_t points = 2000000;
  /// Full set-ups per run; setup_s is their median.
  int setup_reps = 3;
};

struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  Tally tally;
  std::vector<Metric> metrics;
  uint64_t survey_rows = 0;
  /// Extra stamp fields ("key": value JSON fragments).
  std::vector<std::pair<std::string, std::string>> notes;

  void Fail(const std::string& why);
};

/// Runs `config.workload`. A non-OK status means the run could not
/// complete (set-up failed, unknown workload); correctness failures of a
/// completed run are in `report`.
geocol::Status RunWorkload(const Config& config, Report* report);

/// Every workload navbench runs.
const std::vector<std::string>& WorkloadNames();

/// Names of the end-to-end metrics (--trace 0), in output order.
const std::vector<std::string>& EndToEndMetricNames();

/// Names of the per-layer metrics (--trace 1), in output order.
std::vector<std::string> PerLayerMetricNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
