// Bounded single-producer/single-consumer ring queue.
//
// The sharded pipeline's only cross-thread channel: the dispatcher thread
// pushes packets, exactly one worker pops them, so a classic Lamport ring
// with acquire/release counters needs no locks and no CAS on the hot path.
// Each side keeps a cached copy of the other side's counter so the common
// case touches only one shared cache line per operation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfa::pipeline {

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side only. Returns false when the ring is full.
  bool try_push(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    ring_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side only. Returns false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = ring_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side only. Pops up to `max` items into `out`, returning how
  /// many were available (0 when empty). One release store retires the run.
  std::size_t try_pop_batch(T* out, std::size_t max) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(tail_cache_ - head);
    if (avail == 0) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<std::size_t>(tail_cache_ - head);
    }
    const std::size_t cnt = max < avail ? max : avail;
    for (std::size_t i = 0; i < cnt; ++i) out[i] = ring_[(head + i) & mask_];
    if (cnt != 0) head_.store(head + cnt, std::memory_order_release);
    return cnt;
  }

  /// Producer side: declare that nothing more will ever be pushed. A
  /// consumer looping on try_pop/try_pop_batch uses `empty-pop && closed()`
  /// as its termination condition; because closed_ is set AFTER the final
  /// push's release store (program order on the producer thread), a consumer
  /// that observes closed() and then drains one more time cannot miss items
  /// — closing the shutdown race where a stop flag set by a third party
  /// could be observed before the queue's last elements.
  void close() { closed_.store(true, std::memory_order_release); }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Consumer side: reopen after a drain, for reusing the ring.
  void reopen() { closed_.store(false, std::memory_order_release); }

  /// Occupancy estimate; exact from the producer thread, approximate
  /// elsewhere. Used for queue-depth stats, not for synchronization.
  [[nodiscard]] std::size_t depth() const {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(tail - head);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> ring_;
  std::size_t mask_ = 0;
  std::atomic<bool> closed_{false};
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next slot to pop
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next slot to push
  alignas(64) std::uint64_t head_cache_ = 0;  ///< producer's last view of head_
  alignas(64) std::uint64_t tail_cache_ = 0;  ///< consumer's last view of tail_
};

}  // namespace mfa::pipeline
