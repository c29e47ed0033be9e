// Shared pieces of the perfbench program: clocks, exact percentiles, the
// failure-counting report, the in-memory span log, and process counters.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Raw latency samples (no histogram buckets), so a reported percentile
/// carries every measured digit.
class Samples {
 public:
  void Reserve(size_t n) { v_.reserve(n); }
  void Add(double x) { v_.push_back(x); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  /// Percentile p in (0, 100): the mean of the order statistics within
  /// +-0.2 percentage points of rank p (at least the one at rank p). The
  /// band steadies the estimate against single outliers without moving it
  /// off the percentile. 0 when empty.
  double Percentile(double p) const {
    if (v_.empty()) return 0.0;
    std::vector<double> c = v_;
    std::sort(c.begin(), c.end());
    const double n = static_cast<double>(c.size());
    auto rank = [&](double q) {
      return std::min(c.size() - 1,
                      static_cast<size_t>(std::max(0.0, q / 100.0 * n)));
    };
    const size_t lo = rank(p - 0.2), hi = rank(p + 0.2);
    double sum = 0;
    for (size_t i = lo; i <= hi; ++i) sum += c[i];
    return sum / static_cast<double>(hi - lo + 1);
  }

 private:
  std::vector<double> v_;
};

/// Quantile q in [0, 1] of `v`, interpolating linearly between order
/// statistics. 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// A timed phase cut into rounds reports, per metric, the round value at
/// the better quartile: the 25th percentile of round latencies, the 75th of
/// round throughputs. Other tenants of the machine only ever slow a round
/// down, so the better quartile tracks the code rather than the neighbours,
/// while a regression still moves every round.
struct RoundMetrics {
  std::vector<double> qps, p50, p90, p99;
  void Add(double q, double a, double b, double c) {
    qps.push_back(q);
    p50.push_back(a);
    p90.push_back(b);
    p99.push_back(c);
  }
  double Qps() const { return Quantile(qps, 0.75); }
  double P50() const { return Quantile(p50, 0.25); }
  double P90() const { return Quantile(p90, 0.25); }
  double P99() const { return Quantile(p99, 0.25); }
};

/// Bit-for-bit equality: answers from two paths over the same bytes must
/// agree exactly, not merely within a tolerance.
inline bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Attempted/failed accounting plus the metrics the run prints. Threads
/// count into their own locals and add them here once (the per-thread error
/// arrays of a multithreaded B-tree harness, summed at report time).
class Report {
 public:
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records one failed operation with a reason (the first few reasons go
  /// to stderr).
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    ++failed_;
    if (reasons_++ < 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }
  void Note(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (reasons_++ < 10) std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void PrintJson() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::mutex mu_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  int reasons_ = 0;
  std::vector<Entry> metrics_;
};

/// One span around a call into a layer: name, start, end, the span that
/// caused it, and the request it belongs to.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t request;
};

/// Spans kept in memory by one thread; merged and written when the run ends.
/// A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent, uint64_t request) {
    if (!enabled_) return 0;
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    spans_.push_back({name, start_ns, end_ns, id, parent, request});
    return id;
  }
  void Absorb(SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    other.spans_.clear();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static inline std::atomic<uint64_t> next_id_{1};
  bool enabled_;
  std::vector<Span> spans_;
};

/// Process CPU and context-switch counters.
struct Usage {
  double user_us = 0, sys_us = 0;
  long vcsw = 0;
  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
    u.sys_us = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
    u.vcsw = ru.ru_nvcsw;
    return u;
  }
};

/// Peak resident set (VmHWM) in MiB.
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Returns freed heap to the kernel and resets the peak-RSS mark to the
/// current resident set, which it returns (MiB), so later peaks exclude
/// set-up peaks.
inline double ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
  return PeakRssMb();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
