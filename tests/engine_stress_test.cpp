// Stress tests for the pooled event engine: slot recycling under millions
// of events, FIFO ordering inside equal-time bursts, exception propagation
// mid-drain, the heap fallback for oversized callables, leak-freedom (no
// callable leaked, none run twice) verified by instance counting, and the
// (time, seq) pop order of mixed callback and coroutine events against a
// std::priority_queue reference.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "tilo/sim/engine.hpp"
#include "tilo/util/error.hpp"
#include "tilo/util/rng.hpp"

namespace {

using tilo::sim::Engine;
using tilo::sim::Time;

// Counts live instances and invocations across copies/moves, so a test can
// assert that the pool destroyed every stored callable exactly once and
// invoked each scheduled event at most once.
struct Counted {
  static int live;
  static int runs;
  int* fired;

  explicit Counted(int* f) : fired(f) { ++live; }
  Counted(const Counted& o) : fired(o.fired) { ++live; }
  Counted(Counted&& o) noexcept : fired(o.fired) { ++live; }
  ~Counted() { --live; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) = default;

  void operator()() {
    ++runs;
    if (fired) ++*fired;
  }
};
int Counted::live = 0;
int Counted::runs = 0;

TEST(EngineStressTest, MillionEventsMixedAtAfter) {
  Engine e;
  std::uint64_t sum = 0;
  Time last = -1;
  bool monotone = true;
  const int kChains = 64;
  const int kSteps = 16000;  // 64 * 16000 = 1.024M events
  // Self-rescheduling chains with staggered periods: the pending set stays
  // small (recycled slots), total events cross one million.
  struct Tick {
    Engine* e;
    std::uint64_t* sum;
    Time* last;
    bool* monotone;
    Time period;
    int remaining;

    void operator()() {
      if (e->now() < *last) *monotone = false;
      *last = e->now();
      ++*sum;
      if (remaining > 0) {
        Tick next = *this;
        --next.remaining;
        if (next.remaining % 2 == 0) {
          e->after(period, next);
        } else {
          e->at(e->now() + period, next);
        }
      }
    }
  };
  for (int c = 0; c < kChains; ++c) {
    e.at(c, Tick{&e, &sum, &last, &monotone,
                 static_cast<Time>(1 + c % 7), kSteps - 1});
  }
  e.run();
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kChains) * kSteps);
  EXPECT_EQ(e.events_processed(), sum);
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_TRUE(monotone);
}

TEST(EngineStressTest, EqualTimeBurstsRunInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  const int kBursts = 50;
  const int kPerBurst = 200;
  // Interleave scheduling across bursts so pool slots are handed out in an
  // order unrelated to the firing order.
  for (int i = 0; i < kPerBurst; ++i) {
    for (int b = 0; b < kBursts; ++b) {
      e.at(static_cast<Time>(b * 10), [&order, b, i] {
        order.push_back(b * kPerBurst + i);
      });
    }
  }
  e.run();
  ASSERT_EQ(order.size(),
            static_cast<std::size_t>(kBursts * kPerBurst));
  // Within one time, events must fire in the order they were scheduled:
  // for burst b that is i = 0, 1, 2, ... regardless of slot indices.
  std::size_t pos = 0;
  for (int b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kPerBurst; ++i, ++pos) {
      ASSERT_EQ(order[pos], b * kPerBurst + i)
          << "burst " << b << " slot " << i;
    }
  }
}

TEST(EngineStressTest, ExceptionMidDrainReclaimsAndResumes) {
  Counted::live = 0;
  Counted::runs = 0;
  int fired = 0;
  {
    Engine e;
    for (int i = 0; i < 100; ++i) e.at(i, Counted{&fired});
    e.at(100, [] { throw tilo::util::Error("boom"); });
    for (int i = 0; i < 100; ++i) e.at(101 + i, Counted{&fired});

    EXPECT_THROW(e.run(), tilo::util::Error);
    // Events before the throw ran once each; the rest stay queued.
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(e.events_pending(), 100u);
    EXPECT_FALSE(e.running());

    // The engine is still usable: a second run drains the remainder in
    // order, reusing the thrower's reclaimed slot for new events.
    e.at(500, Counted{&fired});
    e.run();
    EXPECT_EQ(fired, 201);
    EXPECT_EQ(e.events_pending(), 0u);
  }
  // Every pooled copy was destroyed, and nothing ran twice.
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(Counted::runs, 201);
}

TEST(EngineStressTest, DestructorReleasesPendingCallables) {
  Counted::live = 0;
  Counted::runs = 0;
  int fired = 0;
  {
    Engine e;
    for (int i = 0; i < 1000; ++i) e.at(i, Counted{&fired});
    // No run(): the destructor must release all 1000 stored callables.
  }
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(Counted::runs, 0);
  EXPECT_EQ(fired, 0);
}

TEST(EngineStressTest, OversizedCallablesUseHeapFallbackCorrectly) {
  Counted::live = 0;
  Counted::runs = 0;
  // Padded beyond the inline slot capacity: stored via the heap fallback.
  struct Big {
    Counted counted;
    unsigned char pad[Engine::kInlineBytes + 64];
    explicit Big(int* f) : counted(f), pad{} {}
    void operator()() { counted(); }
  };
  static_assert(sizeof(Big) > Engine::kInlineBytes);

  int fired = 0;
  {
    Engine e;
    for (int i = 0; i < 500; ++i) e.at(i % 13, Big{&fired});
    for (int i = 0; i < 500; ++i) e.at(20 + i, Counted{&fired});  // inline
    e.run();
    EXPECT_EQ(fired, 1000);
    // Leave a few pending for the destructor path.
    e.at(100000, Big{&fired});
    e.at(100001, Counted{&fired});
  }
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(fired, 1000);
}

// Fire-and-forget coroutine that frees its own frame when it finishes.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

/// Checks every fired event against a reference priority queue over
/// (time, scheduling order).  Half the events are slot callbacks, half
/// coroutine resumes; every event schedules more from inside its handler.
class OrderOracle {
 public:
  explicit OrderOracle(Engine& e) : e_(e), rng_(7) {}

  /// Schedules one event (of either kind) at `t`.
  void schedule(Time t) {
    const std::uint64_t id = next_id_++;
    ref_.emplace(t, id);
    if (rng_.chance(0.5)) {
      e_.at(t, [this, id] { fired(id); });
    } else {
      sleeper(t, id);
    }
  }

  std::size_t budget = 0;  // events still to schedule
  std::uint64_t mismatches = 0;
  std::uint64_t coroutine_events = 0;
  std::uint64_t checked = 0;

  bool drained() const { return ref_.empty(); }

 private:
  struct ResumeAt {
    Engine& e;
    Time t;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { e.at(t, h); }
    void await_resume() const noexcept {}
  };

  Detached sleeper(Time t, std::uint64_t id) {
    co_await ResumeAt{e_, t};
    ++coroutine_events;
    fired(id);
  }

  void fired(std::uint64_t id) {
    ++checked;
    const auto [t, want] = ref_.top();
    ref_.pop();
    if (id != want || e_.now() != t) ++mismatches;
    // The pending set drifts down to a couple of dozen entries and
    // hovers there.  Many equal-time ties: a third of the children land
    // at now, the rest within a few ns of it.
    const int children =
        ref_.size() < 24
            ? static_cast<int>(rng_.uniform(1, 2))
            : static_cast<int>(rng_.uniform(0, 1)) + (rng_.chance(0.45) ? 1 : 0);
    for (int c = 0; c < children && budget > 0; ++c, --budget)
      schedule(e_.now() + (rng_.chance(0.33) ? 0 : rng_.uniform(0, 8)));
  }

  using Key = std::tuple<Time, std::uint64_t>;
  Engine& e_;
  tilo::util::Rng rng_;
  std::uint64_t next_id_ = 0;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> ref_;
};

TEST(EngineStressTest, MixedEventsPopInTimeSeqOrder) {
  Engine e;
  OrderOracle oracle(e);
  oracle.budget = 150'000;
  // A wide initial burst (past the queue's sorted-array capacity) with
  // random times and ties, then handler-driven scheduling.
  for (int i = 0; i < 2000; ++i, --oracle.budget)
    oracle.schedule(static_cast<Time>(i % 97));
  e.run();
  EXPECT_EQ(oracle.mismatches, 0u);
  EXPECT_TRUE(oracle.drained());
  EXPECT_GE(oracle.checked, 100'000u);
  EXPECT_EQ(e.events_processed(), oracle.checked);
  EXPECT_GT(oracle.coroutine_events, oracle.checked / 4);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(EngineStressTest, SchedulingIntoThePastThrows) {
  Engine e;
  e.at(10, [] {});
  e.run();
  EXPECT_EQ(e.now(), 10);
  EXPECT_THROW(e.at(5, [] {}), tilo::util::Error);
  EXPECT_THROW(e.after(-1, [] {}), tilo::util::Error);
}

}  // namespace
