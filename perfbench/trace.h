// In-memory spans for the traced replay: name, start, end, parent span
// and request id, recorded around the benchmark's calls into each layer
// and written to a file when the run ends. A disabled Tracer records
// nothing, which is what the untraced replay uses to measure tracing
// overhead.
#ifndef SSJOIN_PERFBENCH_TRACE_H_
#define SSJOIN_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;  // index into the span list, -1 for a root
  uint32_t request;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened by the constructor, closed by the destructor.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint32_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span named `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Self time (µs) per span name: each span's duration minus the time
  /// its direct children cover, summed over spans of that name.
  std::map<std::string, double> SelfTimeUs() const;
  /// One JSON object per line: name, start/end ns, parent, request.
  bool WriteFile(const std::string& path) const;

 private:
  bool enabled_;
  int32_t open_ = -1;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // SSJOIN_PERFBENCH_TRACE_H_
