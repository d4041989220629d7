#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint32_t request)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, NowNanos(), 0, tracer_->open_, request});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNanos();
  tracer_->open_ = span.parent;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::SelfTimeUs() const {
  // Children never overlap (one thread), so the covered part of a span is
  // the sum of its direct children's durations.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-3;
  }
  return self;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %d, \"request\": %u}\n",
                 i, span.name, static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent,
                 span.request);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
