// Minimal C++20 coroutine support for writing per-rank programs that read
// like the paper's ProcB/ProcNB pseudocode.  Programs are eager,
// fire-and-forget coroutines driven by the simulation engine; suspension
// points are CPU charges (CpuAwait) and request waits (msg::Wait).  Their
// frames come from a FrameArena, so a warm run allocates none.
//
// The awaitables are deliberately non-aggregate classes with explicit
// constructors: GCC 12 miscompiles aggregate awaitables that carry default
// member initializers (frame slots overlap, corrupting the coroutine
// frame), and explicit constructors sidestep that bug.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <vector>

#include "tilo/msg/cluster.hpp"
#include "tilo/msg/endpoint.hpp"
#include "tilo/obs/phase.hpp"
#include "tilo/obs/sink.hpp"

namespace tilo::exec {

/// Recycles coroutine frames (libcoro's pool_alloc idiom): one free list
/// per frame size, blocks kept until the arena dies.  Each block starts
/// with a header naming its arena and free list, so a frame goes back to
/// the right list from the promise's operator delete, which only sees the
/// frame and its size.  Not thread-safe, like the simulation that owns it.
class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena() {
    for (const List& l : lists_)
      for (void* block : l.free) ::operator delete(block);
  }

  void* take(std::size_t bytes) {
    std::size_t i = 0;
    while (i < lists_.size() && lists_[i].bytes != bytes) ++i;
    if (i == lists_.size()) lists_.push_back(List{bytes, 0, {}});
    List& l = lists_[i];
    void* block;
    if (l.free.empty()) {
      // Room for every block of the list, so give() never reallocates.
      if (l.free.capacity() < ++l.blocks) l.free.reserve(2 * l.blocks);
      block = ::operator new(kHeader + bytes);
    } else {
      block = l.free.back();
      l.free.pop_back();
    }
    ::new (block) Header{this, i};
    ++live_;
    return static_cast<std::byte*>(block) + kHeader;
  }

  static void give(void* frame) noexcept {
    void* block = static_cast<std::byte*>(frame) - kHeader;
    const Header h = *static_cast<Header*>(block);
    h.arena->lists_[h.list].free.push_back(block);
    --h.arena->live_;
  }

  /// Frames handed out and not yet given back.
  std::size_t live() const { return live_; }

 private:
  struct Header {
    FrameArena* arena;
    std::size_t list;
  };
  // Keeps frames at operator new's alignment.
  static constexpr std::size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
  static_assert(sizeof(Header) <= kHeader);

  struct List {
    std::size_t bytes;
    std::size_t blocks;
    std::vector<void*> free;
  };
  std::vector<List> lists_;
  std::size_t live_ = 0;
};

/// The first parameter of every rank program derives from this: the
/// arena its frame comes from, and where it parks an exception (events run
/// outside any coroutine, so an exception escaping a program body cannot
/// reach the caller directly; the runner rethrows after the engine
/// drains).
struct ProgramContext {
  FrameArena* frames = nullptr;
  std::exception_ptr error;
};

/// Fire-and-forget coroutine type for rank programs `f(ctx, rank)`.
struct RankProgram {
  struct promise_type {
    ProgramContext* ctx;

    promise_type(ProgramContext& c, int) : ctx(&c) {}

    static void* operator new(std::size_t bytes, ProgramContext& c, int) {
      return c.frames->take(bytes);
    }
    static void operator delete(void* frame, std::size_t) noexcept {
      FrameArena::give(frame);
    }

    RankProgram get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    // Never suspend at the end: the frame destroys itself.
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      if (!ctx->error) ctx->error = std::current_exception();
    }
  };
};

/// co_await CpuAwait(...): occupy the CPU for `dt`, recording `phase`.
/// The coroutine handle itself is the engine event, resumed straight from
/// the queue.
class CpuAwait {
 public:
  CpuAwait(msg::Endpoint& ep, sim::Time dt, obs::Phase phase)
      : ep_(&ep), dt_(dt), phase_(phase) {}

  bool await_ready() const noexcept { return dt_ == 0; }
  void await_suspend(std::coroutine_handle<> h) {
    ep_->cpu(dt_, phase_, h);
  }
  void await_resume() const noexcept {}

 private:
  msg::Endpoint* ep_;
  sim::Time dt_;
  obs::Phase phase_;
};

}  // namespace tilo::exec
