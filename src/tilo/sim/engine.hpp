// Deterministic discrete-event simulation engine.
//
// Time is integer nanoseconds.  Events at equal times run in scheduling
// order (a monotone sequence number breaks ties), so simulations are
// byte-for-byte reproducible across runs and platforms.
//
// Hot-path layout (see DESIGN.md "Performance architecture"): callbacks are
// stored type-erased in a chunked slot pool with small-buffer optimization
// (no per-event heap allocation for callables up to kInlineBytes), and the
// pending set is an EventQueue of plain {time, seq, ref} records, so queue
// operations move 24-byte PODs instead of std::function objects and slots
// are recycled through a free list.  A coroutine handle needs no slot at
// all: its frame address is the record's ref, resumed directly on pop.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "tilo/obs/sink.hpp"
#include "tilo/sim/event_queue.hpp"
#include "tilo/util/error.hpp"
#include "tilo/util/math.hpp"

namespace tilo::sim {

/// Simulated time in nanoseconds.
using Time = std::int64_t;

/// Converts wall seconds to simulated nanoseconds (rounding to nearest).
Time from_seconds(double seconds);
/// Converts simulated nanoseconds to seconds.
double to_seconds(Time t);

/// The event queue and clock.
class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now).  Accepts any callable;
  /// callables up to kInlineBytes are stored in the slot pool without a
  /// heap allocation.  A coroutine handle is stored in the queue record
  /// itself and resumed straight from it; the engine never destroys it.
  template <typename F>
  void at(Time t, F&& fn) {
    TILO_REQUIRE(t >= now_, "scheduling into the past: ", t, " < ", now_);
    if constexpr (std::is_convertible_v<F&&, std::coroutine_handle<>>) {
      const std::coroutine_handle<> h = fn;
      const auto ref = reinterpret_cast<std::uintptr_t>(h.address());
      TILO_ASSERT(h && (ref & 1) == 0, "unschedulable coroutine handle");
      push_entry(t, ref);
    } else {
      const std::uint32_t idx = alloc_slot();
      emplace_callable(slot(idx), std::forward<F>(fn), idx);
      push_entry(t, (std::uintptr_t{idx} << 1) | 1);
    }
  }

  /// Schedules `fn` at now + dt (dt >= 0).
  template <typename F>
  void after(Time dt, F&& fn) {
    TILO_REQUIRE(dt >= 0, "negative delay ", dt);
    at(util::checked_add(now_, dt), std::forward<F>(fn));
  }

  /// Drops every pending event without running it and rewinds the clock,
  /// sequence and event counters to a fresh engine's.  The slot pool and
  /// heap keep their capacity, so a reused engine schedules without heap
  /// traffic once warm; the (time, seq) order of a run after reset() is
  /// that of a fresh engine.  Not callable while running.
  void reset();

  /// Runs events until the queue drains.  Exceptions thrown by event
  /// handlers abort the run and are rethrown to the caller; the throwing
  /// event's slot is reclaimed, remaining events stay queued.
  void run();

  /// Attaches an observability sink (nullptr detaches).  The engine emits
  /// drain-level counters (events processed, slot-pool size) at the end of
  /// each run(); the per-event hot path is untouched, so a null or
  /// non-null sink costs nothing per event.
  void set_sink(obs::Sink* sink) { sink_ = sink; }
  obs::Sink* sink() const { return sink_; }

  /// Number of events processed so far.
  std::uint64_t events_processed() const { return processed_; }

  /// Number of events currently pending.
  std::size_t events_pending() const { return queue_.size(); }

  /// True while run() is draining the queue.
  bool running() const { return running_; }

  /// Callable capacity of an event slot's inline buffer (larger callables
  /// fall back to one heap allocation).
  static constexpr std::size_t kInlineBytes = 40;

 private:
  // One pooled callback.  Metadata first: for the common small callable
  // the dispatch pointers and the callable share the slot's first cache
  // line.  `call` moves the callable out, releases the slot back to the
  // engine's free list, then invokes (so a self-rescheduling handler
  // reuses its own — cache-hot — slot); `destroy` releases without
  // invoking (destructor / cleanup paths).  Slots live in fixed chunks so
  // stored callables never relocate while pending.  Inline storage is
  // 8-byte aligned; over-aligned callables take the heap fallback.
  struct Slot {
    void (*call)(Slot&, Engine&, std::uint32_t);
    void (*destroy)(Slot&);
    void* heap;
    unsigned char buf[kInlineBytes];
  };
  static_assert(sizeof(Slot) == 64, "one slot = one cache line");
  static constexpr std::size_t kChunkSlots = 256;

  template <typename F>
  void emplace_callable(Slot& s, F&& fn, std::uint32_t idx) {
    using Fn = std::decay_t<F>;
    try {
      if constexpr (sizeof(Fn) <= kInlineBytes &&
                    alignof(Fn) <= alignof(void*) &&
                    std::is_trivially_copyable_v<Fn>) {
        // Trivially-copyable fast path: copy out and free before invoking,
        // so a self-rescheduling handler reuses its own cache-hot slot.
        ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
        s.heap = nullptr;
        s.call = [](Slot& sl, Engine& e, std::uint32_t i) {
          Fn local(*std::launder(reinterpret_cast<Fn*>(sl.buf)));
          e.free_slot(i);
          local();
        };
        s.destroy = [](Slot&) {};
      } else if constexpr (sizeof(Fn) <= kInlineBytes &&
                           alignof(Fn) <= alignof(void*)) {
        // General inline path: invoke in place (no per-event move of a
        // large or non-trivial callable), then destroy and free.
        ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
        s.heap = nullptr;
        s.call = [](Slot& sl, Engine& e, std::uint32_t i) {
          Fn* p = std::launder(reinterpret_cast<Fn*>(sl.buf));
          try {
            (*p)();
          } catch (...) {
            p->~Fn();
            e.free_slot(i);
            throw;
          }
          p->~Fn();
          e.free_slot(i);
        };
        s.destroy = [](Slot& sl) {
          std::launder(reinterpret_cast<Fn*>(sl.buf))->~Fn();
        };
      } else {
        s.heap = new Fn(std::forward<F>(fn));
        s.call = [](Slot& sl, Engine& e, std::uint32_t i) {
          Fn* p = static_cast<Fn*>(sl.heap);
          e.free_slot(i);  // slot itself holds nothing inline
          try {
            (*p)();
          } catch (...) {
            delete p;
            throw;
          }
          delete p;
        };
        s.destroy = [](Slot& sl) { delete static_cast<Fn*>(sl.heap); };
      }
    } catch (...) {
      free_slot(idx);
      throw;
    }
  }

  Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  std::uint32_t alloc_slot() {
    if (free_.empty()) grow_pool();
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  void grow_pool();
  void free_slot(std::uint32_t i) { free_.push_back(i); }
  // Queue records are ordered by (time, seq): seq is the monotone
  // scheduling sequence number, which preserves the engine's documented
  // equal-time tie-break exactly.  `ref` is a slot index shifted left with
  // the low bit set, or an (even) coroutine frame address.
  void push_entry(Time t, std::uintptr_t ref) {
    queue_.push(t, next_seq_++, ref);
  }
  /// Releases the callable behind a pending record without running it.
  void drop(const QueueEntry& ev, bool free);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool running_ = false;
  obs::Sink* sink_ = nullptr;
  EventQueue queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
};

}  // namespace tilo::sim
