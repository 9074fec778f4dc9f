#include "tilo/sim/engine.hpp"

#include <cmath>

namespace tilo::sim {

Time from_seconds(double seconds) {
  TILO_REQUIRE(seconds >= 0.0 && std::isfinite(seconds),
               "cannot convert ", seconds, " s to simulated time");
  return static_cast<Time>(std::llround(seconds * 1e9));
}

double to_seconds(Time t) { return static_cast<double>(t) * 1e-9; }

Engine::~Engine() {
  // Drop pending events without running them.
  queue_.for_each([this](const QueueEntry& ev) { drop(ev, false); });
}

void Engine::drop(const QueueEntry& ev, bool free) {
  if ((ev.ref & 1) == 0) return;  // a coroutine: not the engine's to destroy
  const auto idx = static_cast<std::uint32_t>(ev.ref >> 1);
  Slot& s = slot(idx);
  s.destroy(s);
  if (free) free_slot(idx);
}

void Engine::reset() {
  TILO_REQUIRE(!running_, "Engine::reset while running");
  queue_.for_each([this](const QueueEntry& ev) { drop(ev, true); });
  queue_.clear();
  now_ = 0;
  next_seq_ = 0;
  processed_ = 0;
}

void Engine::grow_pool() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  TILO_REQUIRE(base + kChunkSlots <= UINT32_MAX, "event pool exhausted");
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  free_.reserve(free_.size() + kChunkSlots);
  // Reversed so indices hand out in ascending order.
  for (std::size_t i = kChunkSlots; i-- > 0;)
    free_.push_back(static_cast<std::uint32_t>(base + i));
}

void Engine::run() {
  TILO_REQUIRE(!running_, "Engine::run is not reentrant");
  running_ = true;
  const std::uint64_t processed_before = processed_;
  try {
    while (!queue_.empty()) {
      const QueueEntry& top = queue_.top();
      now_ = top.time;
      const std::uintptr_t ref = top.ref;
      queue_.pop();
      ++processed_;
      if ((ref & 1) == 0) {
        std::coroutine_handle<>::from_address(reinterpret_cast<void*>(ref))
            .resume();
        continue;
      }
      // One indirect call does move-out + destroy + free + invoke; the
      // slot is reclaimed exactly once (before the invoke, so handlers may
      // schedule into their own slot) whether the handler returns or
      // throws.  The chunked pool never relocates slots.
      const auto idx = static_cast<std::uint32_t>(ref >> 1);
      Slot& s = slot(idx);
      s.call(s, *this, idx);
    }
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
  if (sink_) {
    sink_->counter("engine.events",
                   static_cast<double>(processed_ - processed_before));
    sink_->counter("engine.drains", 1.0);
  }
}

}  // namespace tilo::sim
