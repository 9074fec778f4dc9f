// A serially reusable facility: DMA channel, NIC port, shared bus.
// Requests are granted FIFO; each request holds the facility for a fixed
// duration.
#pragma once

#include <string>
#include <utility>

#include "tilo/sim/engine.hpp"

namespace tilo::sim {

/// FIFO-serialized resource.  Because grants never preempt and durations
/// are known at request time, occupancy reduces to a running `free_at`
/// watermark — no queue object is needed and behaviour stays deterministic.
class Resource {
 public:
  Resource(Engine& engine, std::string name)
      : engine_(&engine), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Requests the facility for `duration`, starting no earlier than
  /// `earliest` (and no earlier than the end of previously granted work).
  /// Schedules `done` at the completion time and returns {start, completion}.
  /// Accepts any callable; it is forwarded to the engine's pooled event
  /// store without an intermediate std::function.
  struct Grant {
    Time start;
    Time completion;
  };
  template <typename F>
  Grant acquire(Time earliest, Time duration, F&& done) {
    const Grant g = plan(earliest, duration);
    engine_->at(g.completion, std::forward<F>(done));
    return g;
  }

  /// Forgets all granted work (a fresh resource, for a reset engine).
  void reset() {
    free_at_ = 0;
    busy_ = 0;
  }

  /// Total granted busy time so far.
  Time busy_time() const { return busy_; }
  /// Time at which all granted work completes.
  Time free_at() const { return free_at_; }

 private:
  /// Validates the request and advances the occupancy watermark.
  Grant plan(Time earliest, Time duration);

  Engine* engine_;
  std::string name_;
  Time free_at_ = 0;
  Time busy_ = 0;
};

}  // namespace tilo::sim
