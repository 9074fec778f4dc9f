// The engine's pending-event set, ordered by (time, seq).
//
// Timed runs keep a small pending set (about 20 entries, rarely over 40),
// and a new event is usually later than most of it.  So the soonest kNear
// entries sit in an inline buffer sorted earliest first from a head index:
// pop advances the head, and push walks in from the latest end, shifting
// only the few entries later than the new one.  Entries beyond kNear
// overflow into a binary min-heap whose every entry is later than every
// buffered one, so a push or pop costs O(kNear + log n) even when one
// handler schedules thousands of events at once.
//
// Entries travel in registers (push takes the fields and stores them one
// by one, top() is read in place): a 24-byte temporary written field by
// field and then copied whole stalls store forwarding on the hot path.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tilo::sim {

/// One pending event.  `seq` is the engine's monotone scheduling number,
/// so no two entries compare equal; `ref` is the engine's payload.
struct QueueEntry {
  std::int64_t time;
  std::uint64_t seq;
  std::uintptr_t ref;
};

class EventQueue {
 public:
  bool empty() const { return head_ == tail_ && far_.empty(); }
  std::size_t size() const { return tail_ - head_ + far_.size(); }

  void push(std::int64_t time, std::uint64_t seq, std::uintptr_t ref) {
    const std::size_t live = tail_ - head_;
    if ((!far_.empty() && earlier(far_.front(), time, seq)) ||
        (live == kNear && earlier(near_[tail_ - 1], time, seq))) {
      push_far(QueueEntry{time, seq, ref});
      return;
    }
    if (tail_ == near_.size()) {  // live <= kNear < size, so head_ > 0
      std::copy(near_.begin() + head_, near_.begin() + tail_, near_.begin());
      tail_ -= head_;
      head_ = 0;
    }
    std::size_t i = tail_++;
    for (; i > head_ && !earlier(near_[i - 1], time, seq); --i)
      near_[i] = near_[i - 1];
    near_[i].time = time;
    near_[i].seq = seq;
    near_[i].ref = ref;
    if (live == kNear) push_far(near_[--tail_]);  // the latest overflows
  }

  /// The earliest entry.  Requires !empty().
  const QueueEntry& top() const {
    return head_ < tail_ ? near_[head_] : far_.front();
  }

  /// Removes the earliest entry.  Requires !empty().
  void pop() {
    if (head_ < tail_) {
      if (++head_ == tail_) head_ = tail_ = 0;
      return;
    }
    std::pop_heap(far_.begin(), far_.end(), Later{});
    far_.pop_back();
  }

  /// Visits every pending entry, in no particular order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = head_; i < tail_; ++i) f(near_[i]);
    for (const QueueEntry& e : far_) f(e);
  }

  /// Drops every entry; capacity is kept.
  void clear() {
    head_ = tail_ = 0;
    far_.clear();
  }

 private:
  static constexpr std::size_t kNear = 64;

  /// a before (time, seq).
  static bool earlier(const QueueEntry& a, std::int64_t time,
                      std::uint64_t seq) {
    return (a.time < time) | ((a.time == time) & (a.seq < seq));
  }
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      return earlier(b, a.time, a.seq);
    }
  };

  void push_far(const QueueEntry& e) {
    far_.push_back(e);
    std::push_heap(far_.begin(), far_.end(), Later{});
  }

  // near_[head_, tail_) sorted earliest first; the spare half lets the
  // head advance kNear times between compactions.
  std::array<QueueEntry, 2 * kNear> near_{};
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::vector<QueueEntry> far_;  // min-heap, all later than near_
};

}  // namespace tilo::sim
