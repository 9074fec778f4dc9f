// The service's admission queue: a small bounded MPMC queue.
//
// Admission control is the point, not throughput: try_push never blocks
// (a full queue is an explicit "overloaded" answer to the client, not a
// stalled reader thread), while pop blocks workers until work arrives or
// the queue is closed.  close() is the drain mechanism — already-admitted
// items keep draining, new pushes are refused, and workers wake up and exit
// once the backlog is empty.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

namespace tilo::svc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Non-blocking admission.  Returns the depth right after the push, as
  /// seen under the queue's lock (so a high-water mark raised from it
  /// cannot miss an item a worker pops at once), or 0 when the queue is
  /// full or closed.
  std::size_t try_push(T item) {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return 0;
      items_.push_back(std::move(item));
      depth = items_.size();
    }
    cv_.notify_one();
    return depth;
  }

  /// Blocks until an item is available or the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Refuses new pushes; blocked pops drain the backlog, then return empty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace tilo::svc
