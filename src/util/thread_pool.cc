#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

#include "util/logging.h"

namespace ssjoin {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_ - 1);
  for (int worker = 1; worker < num_threads_; ++worker) {
    workers_.emplace_back([this, worker] {
      uint64_t seen_generation = 0;
      for (;;) {
        RangeFn fn;
        size_t total, chunk;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          work_cv_.wait(lock, [this, seen_generation] {
            return stop_ || generation_ != seen_generation;
          });
          if (stop_) return;
          seen_generation = generation_;
          fn = job_fn_;
          total = job_total_;
          chunk = job_chunk_;
        }
        RunChunks(fn, total, chunk, worker);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (--remaining_ == 0) done_cv_.notify_one();
        }
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunChunks(RangeFn fn, size_t total, size_t chunk,
                           int worker) {
  for (;;) {
    size_t begin = next_.fetch_add(chunk, std::memory_order_relaxed);
    if (begin >= total) return;
    fn(begin, std::min(begin + chunk, total), worker);
  }
}

void ThreadPool::ParallelFor(size_t total, size_t chunk, RangeFn fn) {
  if (total == 0) return;
  if (chunk == 0) chunk = 1;

  // Exceptions thrown by fn must not unwind through the worker loop
  // (std::thread would std::terminate): every invocation goes through a
  // guard that captures the first exception for rethrow on the caller.
  // Later chunks observe the failure flag and drain without running fn.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto guarded = [&](size_t begin, size_t end, int worker) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      fn(begin, end, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (first_error == nullptr) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };

  if (workers_.empty() || total <= chunk) {
    guarded(0, total, 0);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SSJOIN_CHECK(remaining_ == 0);  // ParallelFor is not reentrant
      job_fn_ = guarded;
      job_total_ = total;
      job_chunk_ = chunk;
      next_.store(0, std::memory_order_relaxed);
      remaining_ = static_cast<int>(workers_.size());
      ++generation_;
    }
    work_cv_.notify_all();
    RunChunks(guarded, total, chunk, /*worker=*/0);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_fn_ = nullptr;
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

int ThreadPool::DefaultNumThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace ssjoin
