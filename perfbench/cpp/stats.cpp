#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

namespace perfbench {

uint64_t* Tally::Counter(Outcome o) {
  switch (o) {
    case Outcome::kOk: return nullptr;
    case Outcome::kFailed: return &failed;
    case Outcome::kRefused: return &refused;
    case Outcome::kMismatch: return &mismatched;
  }
  return nullptr;
}

void Tally::Add(Outcome o) {
  ++attempted;
  if (uint64_t* c = Counter(o)) ++*c;
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  failed += o.failed;
  refused += o.refused;
  mismatched += o.mismatched;
}

void Tally::Reclassify(Outcome from, Outcome to) {
  if (uint64_t* c = Counter(from)) --*c;
  if (uint64_t* c = Counter(to)) ++*c;
}

namespace {

/// Bytes this process read from /proc itself (RSS samples, I/O counters).
std::atomic<uint64_t> g_proc_read_bytes{0};

/// Reads a small /proc file, counting the bytes so ProcIo can leave the
/// benchmark's own reads out of rchar.
std::string ReadProcFile(const char* path) {
  std::string out;
  const int fd = ::open(path, O_RDONLY | O_CLOEXEC);
  if (fd < 0) return out;
  char buf[512];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<size_t>(n));
    g_proc_read_bytes.fetch_add(static_cast<uint64_t>(n));
  }
  ::close(fd);
  return out;
}

/// Nearest-rank index of quantile q in n sorted samples.
size_t RankIndex(size_t n, double q) {
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::max<size_t>(rank, 1) - 1;
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t idx = RankIndex(n, q);
  if (n - 1 - idx < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (n - 1 - RankIndex(n, q) < kMinBeyond) ++n;
  return n;
}

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double RssSampler::CurrentMb() {
  // statm field 2 is resident pages.
  std::istringstream in(ReadProcFile("/proc/self/statm"));
  uint64_t size_pages = 0, resident_pages = 0;
  in >> size_pages >> resident_pages;
  static const long page = sysconf(_SC_PAGESIZE);
  return static_cast<double>(resident_pages) * static_cast<double>(page) /
         (1024.0 * 1024.0);
}

namespace {

/// Binds every current thread of the process to `set`. A thread that ends
/// meanwhile is simply missed.
void BindAllThreads(const cpu_set_t& set) {
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = std::atoi(e.path().filename().c_str());
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
}

}  // namespace

WindowScope::WindowScope() {
  malloc_trim(0);
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t window;
  CPU_ZERO(&window);
  for (int c = 0; c < CPU_SETSIZE && cpus_ < kWindowCpus; ++c) {
    if (CPU_ISSET(c, &saved_)) {
      CPU_SET(c, &window);
      ++cpus_;
    }
  }
  BindAllThreads(window);
}

WindowScope::~WindowScope() {
  if (cpus_ > 0) BindAllThreads(saved_);
}

void RssSampler::Start() {
  Stop();
  peak_kb_.store(static_cast<uint64_t>(CurrentMb() * 1024.0));
  running_.store(true);
  thread_ = std::thread([this] {
    while (running_.load()) {
      const auto kb = static_cast<uint64_t>(CurrentMb() * 1024.0);
      uint64_t prev = peak_kb_.load();
      while (kb > prev && !peak_kb_.compare_exchange_weak(prev, kb)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

double RssSampler::Stop() {
  if (thread_.joinable()) {
    running_.store(false);
    thread_.join();
    const auto kb = static_cast<uint64_t>(CurrentMb() * 1024.0);
    if (kb > peak_kb_.load()) peak_kb_.store(kb);
  }
  return static_cast<double>(peak_kb_.load()) / 1024.0;
}

ProcIo ProcIo::Read() {
  const uint64_t own = g_proc_read_bytes.load();
  std::istringstream in(ReadProcFile("/proc/self/io"));
  ProcIo io;
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value >= own ? value - own : 0;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit; JSON has no NaN/Inf, so those become 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (i == 0 ? "" : ", ") << JsonString(metrics[i].name)
        << ": {\"value\": " << value
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
