// Test helper: runs a callback when a msg request completes, through the
// same msg::Wait the rank programs use.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "tilo/msg/cluster.hpp"

namespace tilo::testing_support {

/// Eager fire-and-forget coroutine whose frame frees itself at the end.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// Waits on request `id`, then calls `then(message)` at completion time.
template <typename F>
Detached on_complete(msg::Cluster& c, msg::RequestId id, F then) {
  then(co_await msg::Wait(c, id));
}

}  // namespace tilo::testing_support
