// Wall-clock stopwatch used by the benchmark harnesses to report the
// paper's "Execution time [m:s]" column.
#pragma once

#include <chrono>

namespace rrsn {

/// Monotonic stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace rrsn
