// ssjoin_perfbench — the repository benchmark binary. perfbench/run.py
// builds it and passes every workload setting from
// perfbench/workloads.json as a --key=value flag:
//
//   ssjoin_perfbench --workload=lookup --seed=1 --seconds=10 --trace=0
//                    --workdir=DIR --server=PATH ...
//
// See perfbench/README.md for the workloads and metrics.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "workloads.h"

// Global allocation counter (the bench_micro BM_LayoutProbe counter):
// every operator new in the process bumps it, so the delta across one
// SimilarityService::Query call in the single-threaded replay counts that
// call's heap allocations exactly.
static std::atomic<uint64_t> g_alloc_calls{0};

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

uint64_t perfbench::AllocationCount() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      std::fprintf(stderr, "usage: ssjoin_perfbench --key=value ...\n");
      return 2;
    }
    config.Set(std::string(arg + 2, eq), std::string(eq + 1));
  }
  const std::string workload = config.Text("workload");
  if (workload == "lookup") return perfbench::RunServing(config, false);
  if (workload == "churn") return perfbench::RunServing(config, true);
  if (workload == "batch_join") return perfbench::RunBatchJoin(config);
  std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
  return 2;
}
