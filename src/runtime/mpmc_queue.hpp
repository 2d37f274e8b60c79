// Bounded multi-producer multi-consumer queue — the submission primitive of
// the serving layer (src/serve).
//
// Design choices, in the same spirit as ThreadPool:
//  * A mutex + two condition variables, not a lock-free ring. Producers are
//    request submitters (a handful of client threads), consumers are the
//    service's worker pumps; every item is a whole request, so queue
//    synchronization is nowhere near the bottleneck and the simple
//    implementation is easy to prove correct under TSan.
//  * Strict FIFO. Items pop in push order, which keeps the service's
//    accounting intelligible (queue-wait distributions are monotone in
//    arrival order under a single consumer) — correctness never depends on
//    it, since every request is independent.
//  * Explicit close() lifecycle. After close(), pushes fail immediately but
//    pops keep draining what was accepted — exactly the graceful-shutdown
//    contract ("drain in-flight, refuse new work").
//  * The queue never holds more than `capacity` items, by construction:
//    push() blocks while full, try_push() fails while full. high_water()
//    exposes the maximum occupancy ever observed so tests can pin the
//    bound; it reads without the lock, so a submitter can publish it
//    after each push at the price of one relaxed load.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace dnj::runtime {

template <typename T>
class MpmcQueue {
 public:
  /// `capacity` must be at least 1; smaller values are clamped up.
  explicit MpmcQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocking push: waits for space. Returns true when `item` was moved
  /// into the queue; false (item untouched) when the queue is closed —
  /// including when it closes while this call is waiting for space.
  bool push(T& item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    enqueue_locked(item);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false (item untouched) when full or closed — the
  /// reject admission policy.
  bool try_push(T& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      enqueue_locked(item);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking pop: waits for an item. Returns false only when the queue is
  /// closed AND fully drained, so consumers naturally finish the backlog
  /// before exiting.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Closes the queue: subsequent pushes fail, blocked pushers wake and
  /// fail, poppers drain the remainder then fail. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  /// Maximum occupancy ever observed — tests pin high_water() <= capacity().
  /// Read without the lock: the mark is only ever raised, under the queue
  /// mutex, so a pusher reading it after its own push sees at least the
  /// occupancy that push reached.
  std::size_t high_water() const { return high_water_.load(std::memory_order_relaxed); }

 private:
  void enqueue_locked(T& item) {
    items_.push_back(std::move(item));
    if (items_.size() > high_water_.load(std::memory_order_relaxed))
      high_water_.store(items_.size(), std::memory_order_relaxed);
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::atomic<std::size_t> high_water_{0};
  bool closed_ = false;
};

}  // namespace dnj::runtime
