#ifndef SSJOIN_UTIL_THREAD_POOL_H_
#define SSJOIN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/function_ref.h"

namespace ssjoin {

/// A small fixed-size worker pool built for the one pattern the join
/// algorithms need: blocking data-parallel loops over an index range.
/// Work distribution is chunk-stealing — workers repeatedly claim the
/// next unclaimed chunk from a shared atomic cursor, so skewed per-item
/// cost (hot records with long posting lists) balances automatically.
///
/// The calling thread participates as worker 0, so a pool of size N uses
/// N-1 background threads and ParallelFor saturates N cores.
class ThreadPool {
 public:
  /// fn(begin, end, worker): process items [begin, end). `worker` is a
  /// stable id in [0, num_threads) — use it to index per-worker state.
  /// Borrowed, not owned: ParallelFor blocks until every chunk has run,
  /// so handing the range function to the workers never allocates.
  using RangeFn = FunctionRef<void(size_t begin, size_t end, int worker)>;

  /// Spawns num_threads - 1 background workers (clamped to >= 1; a pool
  /// of size 1 runs everything inline on the caller).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn over [0, total) in chunks of `chunk` items and blocks until
  /// every item has been processed. Chunks are claimed dynamically; two
  /// invocations may assign items to different workers, so callers that
  /// need determinism must merge per-worker results order-independently.
  /// Writes made by fn happen-before ParallelFor's return.
  /// Not reentrant: do not call ParallelFor from inside fn.
  ///
  /// If fn throws, the first exception (in completion order) is captured
  /// and rethrown on the calling thread after every worker has drained —
  /// it never crosses the noexcept worker-thread boundary. Chunks
  /// claimed after a failure are skipped, so items may go unprocessed;
  /// the pool itself stays usable for subsequent ParallelFor calls.
  void ParallelFor(size_t total, size_t chunk, RangeFn fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int DefaultNumThreads();

 private:
  void RunChunks(RangeFn fn, size_t total, size_t chunk, int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // ParallelFor waits for the drain
  uint64_t generation_ = 0;           // bumped once per ParallelFor
  int remaining_ = 0;                 // workers still draining this job
  bool stop_ = false;

  // Current job; valid while remaining_ > 0. Chunk claims go through
  // next_ so workers never contend on mutex_ while there is work.
  RangeFn job_fn_;
  size_t job_total_ = 0;
  size_t job_chunk_ = 0;
  std::atomic<size_t> next_{0};
};

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_THREAD_POOL_H_
