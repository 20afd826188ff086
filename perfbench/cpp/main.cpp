// navbench: the repository's navigation benchmark.
//
//   navbench --workload <pan_zoom|dashboard_serve|ingest_live|out_of_core>
//            --seed N --seconds S --trace 0|1 --work-dir DIR [--source ID]
//
// Prints a stamp line, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1. See README.md.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "simd/dispatch.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "navbench: %s\nusage: navbench --workload W --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--source ID]\n",
               why);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string source = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      cfg.workload = v;
    } else if (flag == "--seed" && ParseU64(v, &n)) {
      cfg.seed = n;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace" && ParseU64(v, &n) && n <= 1) {
      cfg.trace = n == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      cfg.work_dir = v;
    } else if (flag == "--source") {
      source = v;
    } else {
      return Usage(("bad argument " + flag + " " + v).c_str());
    }
  }
  if (cfg.workload.empty() || cfg.work_dir.empty() || !have_trace ||
      !(cfg.seconds > 0)) {
    return Usage("--workload, --seconds, --trace and --work-dir are required");
  }
  std::filesystem::create_directories(cfg.work_dir);

  perfbench::Report rep;
  geocol::Status st = perfbench::RunWorkload(cfg, &rep);
  if (!st.ok()) {
    std::fprintf(stderr, "navbench: %s: %s\n", cfg.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "navbench: FAIL: %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "navbench: %s attempted %llu, failed %llu, refused %llu, "
               "mismatched %llu (fail_frac %.6f)\n",
               cfg.workload.c_str(),
               static_cast<unsigned long long>(rep.tally.attempted),
               static_cast<unsigned long long>(rep.tally.failed),
               static_cast<unsigned long long>(rep.tally.refused),
               static_cast<unsigned long long>(rep.tally.mismatched),
               rep.tally.fail_frac());

  // Stamp: what a later run must match to be comparable.
  std::string stamp = "{\"stamp\": {\"workload\": " +
                      perfbench::JsonString(cfg.workload) +
                      ", \"seed\": " + std::to_string(cfg.seed) +
                      ", \"trace\": " + (cfg.trace ? "1" : "0") +
                      ", \"seconds\": " + std::to_string(cfg.seconds) +
                      ", \"source\": " + perfbench::JsonString(source) +
                      ", \"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"usable_cpus\": " + std::to_string(UsableCpus()) +
                      ", \"window_cpus\": " +
                      std::to_string(std::min(UsableCpus(),
                                              perfbench::kWindowCpus)) +
                      ", \"simd\": " +
                      perfbench::JsonString(geocol::simd::SimdLevelName(
                          geocol::simd::ActiveSimdLevel())) +
                      ", \"build_type\": " +
                      perfbench::JsonString(PERFBENCH_BUILD_TYPE) +
                      ", \"survey_points\": " + std::to_string(cfg.points) +
                      ", \"survey_rows\": " + std::to_string(rep.survey_rows) +
                      ", \"setup_reps\": " + std::to_string(cfg.setup_reps) +
                      ", \"fail_frac\": " +
                      std::to_string(rep.tally.fail_frac());
  for (const auto& [k, v] : rep.notes) {
    stamp += ", " + perfbench::JsonString(k) + ": " + v;
  }
  stamp += "}}";
  std::printf("%s\n", stamp.c_str());
  std::printf("%s\n", perfbench::ResultJson(rep.correct, rep.tally.attempted,
                                            rep.tally.bad(), rep.metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}
