#include "util/timing.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace mfa::util {

std::uint64_t rdtsc_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

namespace {

/// One (TSC, steady_clock) pair. The clock read is bracketed by two TSC
/// reads and the tightest of a few brackets wins, so a preemption between
/// the reads cannot skew the pair.
struct ClockPair {
  std::uint64_t tsc = 0;
  std::chrono::steady_clock::time_point wall;
};

ClockPair read_pair() {
  ClockPair best;
  std::uint64_t best_gap = ~std::uint64_t{0};
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t before = rdtsc_now();
    const auto wall = std::chrono::steady_clock::now();
    const std::uint64_t after = rdtsc_now();
    if (after - before < best_gap) {
      best_gap = after - before;
      best = {before + best_gap / 2, wall};
    }
  }
  return best;
}

}  // namespace

double tsc_ticks_per_second() {
  // A ~2 ms busy spin against steady_clock: the error is the skew of the
  // two endpoint pairs (tens of ns) over the window, about 1e-5, and the
  // first caller (a pipeline start() with telemetry) pays 2 ms, not a
  // 50 ms sleep.
  static const double rate = [] {
    const ClockPair start = read_pair();
    while (std::chrono::steady_clock::now() - start.wall < std::chrono::milliseconds(2)) {
    }
    const ClockPair end = read_pair();
    const double secs = std::chrono::duration<double>(end.wall - start.wall).count();
    return static_cast<double>(end.tsc - start.tsc) / secs;
  }();
  return rate;
}

}  // namespace mfa::util
