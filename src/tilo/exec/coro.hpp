// Minimal C++20 coroutine support for writing per-rank programs that read
// like the paper's ProcB/ProcNB pseudocode.  Programs are eager,
// fire-and-forget coroutines driven by the simulation engine; suspension
// points are CPU charges and message-completion waits.
//
// The awaitables are deliberately non-aggregate classes with explicit
// constructors: GCC 12 miscompiles aggregate awaitables that carry default
// member initializers (frame slots overlap, corrupting the coroutine
// frame), and explicit constructors sidestep that bug.
#pragma once

#include <coroutine>
#include <exception>
#include <memory>

#include "tilo/msg/cluster.hpp"
#include "tilo/msg/endpoint.hpp"
#include "tilo/obs/phase.hpp"
#include "tilo/obs/sink.hpp"

namespace tilo::exec {

/// Where rank programs park exceptions; the runner rethrows after the
/// engine drains.  (Events run outside any coroutine, so an exception
/// escaping a program body cannot propagate to the caller directly.)
struct ProgramErrorSink {
  std::exception_ptr error;
};

/// Fire-and-forget coroutine type for rank programs.  The first parameter
/// of every program must expose `ProgramErrorSink& error_sink()`; the
/// promise captures it so unhandled exceptions are reported, not lost.
struct RankProgram {
  struct promise_type {
    ProgramErrorSink* sink;

    template <typename Ctx, typename... Rest>
    explicit promise_type(Ctx& ctx, Rest&&...) : sink(&ctx.error_sink()) {}

    RankProgram get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    // Never suspend at the end: the frame destroys itself.
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() {
      if (!sink->error) sink->error = std::current_exception();
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

/// co_await SendDoneAwait(...): block (CPU idle) until the send pipeline
/// finishes; the blocked interval is reported to the cluster's sink.
/// Refers to the caller's handle, which must outlive the co_await.
class SendDoneAwait {
 public:
  SendDoneAwait(msg::Cluster& cluster, int rank,
                const std::shared_ptr<msg::SendHandle>& handle)
      : cluster_(&cluster), rank_(rank), handle_(handle) {}

  bool await_ready() const noexcept { return handle_->done; }
  void await_suspend(std::coroutine_handle<> h) {
    const sim::Time suspended_at = cluster_->engine().now();
    msg::Cluster* cluster = cluster_;
    const int rank = rank_;
    cluster->register_suspended(rank, h.address());
    msg::Endpoint::when_done(handle_, [cluster, rank, suspended_at, h] {
      cluster->unregister_suspended(rank);
      if (obs::Sink* sink = cluster->sink())
        sink->span(rank, obs::Phase::kBlocked, suspended_at,
                   cluster->engine().now(), "wait-send");
      h.resume();
    });
  }
  void await_resume() const noexcept {}

 private:
  msg::Cluster* cluster_;
  int rank_;
  const std::shared_ptr<msg::SendHandle>& handle_;
};

/// co_await RecvReadyAwait(...): block until the message is kernel-ready.
/// The caller still owes the A3 CPU charge afterwards.  Refers to the
/// caller's handle, which must outlive the co_await.
class RecvReadyAwait {
 public:
  RecvReadyAwait(msg::Cluster& cluster, int rank,
                 const std::shared_ptr<msg::RecvHandle>& handle)
      : cluster_(&cluster), rank_(rank), handle_(handle) {}

  bool await_ready() const noexcept { return handle_->ready; }
  void await_suspend(std::coroutine_handle<> h) {
    const sim::Time suspended_at = cluster_->engine().now();
    msg::Cluster* cluster = cluster_;
    const int rank = rank_;
    cluster->register_suspended(rank, h.address());
    msg::Endpoint::when_ready(handle_, [cluster, rank, suspended_at, h] {
      cluster->unregister_suspended(rank);
      if (obs::Sink* sink = cluster->sink())
        sink->span(rank, obs::Phase::kBlocked, suspended_at,
                   cluster->engine().now(), "wait-recv");
      h.resume();
    });
  }
  void await_resume() const noexcept {}

 private:
  msg::Cluster* cluster_;
  int rank_;
  const std::shared_ptr<msg::RecvHandle>& handle_;
};

}  // namespace tilo::exec
