#ifndef SSJOIN_UTIL_TIMER_H_
#define SSJOIN_UTIL_TIMER_H_

#include <chrono>

namespace ssjoin {

/// Simple monotonic wall-clock stopwatch used by the benchmark harness.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ssjoin

#endif  // SSJOIN_UTIL_TIMER_H_
