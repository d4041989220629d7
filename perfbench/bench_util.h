// Small shared helpers of the benchmark binary: clocks, exact quantiles,
// the metric report and /proc readers.
#ifndef SSJOIN_PERFBENCH_BENCH_UTIL_H_
#define SSJOIN_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

/// Exact nearest-rank quantile of `values` (sorted in place). 0 when empty.
inline double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(q * values->size()));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// Exact latency summary. A quantile q is reported only when at least
/// ten samples lie beyond it: count * (1 - q) >= 10.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
  bool has_p99 = false, has_p999 = false;
};

inline LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  s.p50 = Quantile(&values, 0.5);
  s.has_p99 = s.count >= 1000;
  s.has_p999 = s.count >= 10000;
  if (s.has_p99) s.p99 = Quantile(&values, 0.99);
  if (s.has_p999) s.p999 = Quantile(&values, 0.999);
  return s;
}

/// The run's printed output: human-readable report lines first (every
/// metric the workload defines, with units), then ONE final JSON line
/// holding the metrics the benchmark contract names for this mode.
class Report {
 public:
  /// A report line "name value unit  [note]" (not part of the JSON).
  void Line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    std::printf("%-32s %16.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  /// A metric that goes into the final JSON line (and is also printed).
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    Line(name, value, unit, note);
    json_[name] = {value, unit};
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : json_) {
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer), "%.17g", metric.value);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
             metric.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> json_;
};

/// A "Key:  <n> kB" field of /proc/<pid>/status, in MB; 0 when missing.
double ProcStatusMb(int pid, const char* key);
/// A "key: <n>" field of /proc/<pid>/io; 0 when missing.
uint64_t ProcIoField(int pid, const char* key);
/// Total bytes of the regular files under `dir` (recursive).
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // SSJOIN_PERFBENCH_BENCH_UTIL_H_
