// Accounting helpers of the navigation benchmark: outcome tallies,
// percentiles that are only reported with enough samples beyond them,
// resident-memory sampling, /proc/self/io counters and the result line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// What happened to one attempted statement (or commit).
enum class Outcome {
  kOk,        ///< answered, and the answer matched the oracle
  kFailed,    ///< the call returned an error (or the transport died)
  kRefused,   ///< the server shed it (BUSY / RATE_LIMITED)
  kMismatch,  ///< answered, but the digest differs from the oracle's
};

/// Outcome counts of one run. Every outcome other than kOk counts as a
/// failure against the attempts.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  uint64_t mismatched = 0;

  void Add(Outcome o);
  void Merge(const Tally& o);
  /// A statement first tallied kOk whose oracle check later failed.
  void Reclassify(Outcome from, Outcome to);
  uint64_t bad() const { return failed + refused + mismatched; }
  double fail_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(bad()) / attempted;
  }

 private:
  uint64_t* Counter(Outcome o);
};

/// Minimum number of samples that must lie above a reported percentile.
constexpr size_t kMinBeyond = 10;

/// The q-quantile (0 < q < 1, nearest rank) of `samples`, or nullopt when
/// fewer than kMinBeyond samples lie strictly beyond its rank.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Smallest sample count for which Percentile(q) is reported.
size_t MinSamplesFor(double q);

/// Plain median (nullopt on empty input).
std::optional<double> Median(std::vector<double> samples);

/// Samples VmRSS every few milliseconds on a background thread and keeps
/// the maximum: the peak resident memory of the phase between Start and
/// Stop, excluding whatever earlier phases had allocated and freed.
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Start();
  /// Joins the sampler; returns the peak in MiB.
  double Stop();

  static double CurrentMb();

 private:
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> peak_kb_{0};
  std::thread thread_;
};

/// Timed windows run on this many CPUs, whatever the machine has, so runs
/// on hosts of different sizes compare, and so the benchmark's threads hand
/// work to each other on CPUs that stay busy: on a shared virtual machine,
/// waking a thread on an idle virtual CPU waits for the host to schedule
/// that CPU, and those waits (steal time) dominated p99 when windows used
/// every CPU. Set-up and the oracle checks use every CPU.
constexpr int kWindowCpus = 2;

/// For its lifetime, binds every thread of the process, and so every
/// thread they start, to the first kWindowCpus usable CPUs; restores the
/// earlier binding afterwards. It first hands memory freed by earlier
/// phases back to the OS, so a window's peak RSS counts live memory only.
class WindowScope {
 public:
  WindowScope();
  ~WindowScope();
  WindowScope(const WindowScope&) = delete;
  WindowScope& operator=(const WindowScope&) = delete;

  /// CPUs the window runs on; 0 if the binding failed.
  int cpus() const { return cpus_; }

 private:
  cpu_set_t saved_;
  int cpus_ = 0;
};

/// Counters of /proc/self/io (zeros where unavailable).
struct ProcIo {
  /// Bytes returned by read(2)/pread(2), minus the benchmark's own /proc
  /// reads.
  uint64_t rchar = 0;
  uint64_t wchar = 0;  ///< bytes handed to write(2)/pwrite(2)
  static ProcIo Read();
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// JSON string literal with escapes.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
