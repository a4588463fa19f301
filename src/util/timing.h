// Cycle- and wall-clock timing utilities.
//
// The paper (Sec. V-B) measures matching throughput in CPU cycles per byte
// (CpB) using the rdtsc instruction, and construction cost in cpu-seconds.
// CycleTimer mirrors the rdtsc methodology; WallTimer gives construction
// seconds. On non-x86 builds CycleTimer falls back to a steady clock scaled
// by an estimated cycle rate so CpB numbers remain comparable in shape.
#pragma once

#include <chrono>
#include <cstdint>

namespace mfa::util {

/// Read the CPU timestamp counter (or a monotonic-nanosecond fallback).
std::uint64_t rdtsc_now();

/// Estimated TSC ticks per second, calibrated once per process over a ~2 ms
/// busy spin against steady_clock (used to convert cycle counts to seconds
/// where needed; cached after the first call).
double tsc_ticks_per_second();

/// Measures elapsed CPU cycles between construction/reset and elapsed().
class CycleTimer {
 public:
  CycleTimer() : start_(rdtsc_now()) {}
  void reset() { start_ = rdtsc_now(); }
  [[nodiscard]] std::uint64_t elapsed_cycles() const { return rdtsc_now() - start_; }

 private:
  std::uint64_t start_;
};

/// Measures elapsed wall seconds (double) between construction and seconds().
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace mfa::util
