// The three benchmark workloads. Each generates its own inputs from the
// seed, measures, checks every answer, and prints its report plus the
// final JSON line. Exit codes: 0 ok, 1 an answer check failed, 3 the run
// is invalid (server failed, generator fell behind its schedule).
#ifndef SSJOIN_PERFBENCH_WORKLOADS_H_
#define SSJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// The run's settings: `--key=value` flags, as perfbench/run.py passes
/// them from perfbench/workloads.json.
class Config {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Text(const std::string& key) const;
  double Number(const std::string& key) const;
  uint64_t Count(const std::string& key) const {
    return static_cast<uint64_t>(Number(key));
  }

 private:
  std::map<std::string, std::string> values_;
};

constexpr int kExitCheckFailed = 1;
constexpr int kExitInvalid = 3;

int RunServing(const Config& config, bool churn);
int RunBatchJoin(const Config& config);

/// Heap allocations so far in this process (global operator new).
uint64_t AllocationCount();

}  // namespace perfbench

#endif  // SSJOIN_PERFBENCH_WORKLOADS_H_
