// Allocation count of the timed run path.  This executable replaces the
// global operator new with a counting one and checks that a warm timed
// run_plan (workspace already holding the comm table, rank geometry, frame
// arena and cluster tables) allocates exactly the nodes of the returned
// RunResult::traffic map and nothing else, under both schedules and both
// protocols: no allocation per run, per message or per event.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "tilo/core/problem.hpp"
#include "tilo/exec/run.hpp"

namespace {

std::atomic<long> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace tilo;

namespace {

void check_warm_run(sched::ScheduleKind kind,
                    msg::Protocol protocol = msg::Protocol::kEager) {
  const core::Problem p = core::paper_problem_iii();
  const exec::TilePlan plan = p.plan(116, kind);
  const auto model = std::make_shared<const mach::IdealOverlapModel>(p.machine);
  exec::RunOptions opts;
  opts.comm.protocol = protocol;

  exec::RunWorkspace ws;
  (void)exec::run_plan(p.nest, plan, model, opts, &ws);  // warm the workspace

  const long before = g_allocs.load();
  const exec::RunResult warm = exec::run_plan(p.nest, plan, model, opts, &ws);
  const long allocs = g_allocs.load() - before;

  ASSERT_GT(warm.messages, 0);
  ASSERT_FALSE(warm.traffic.empty());
  EXPECT_EQ(allocs, static_cast<long>(warm.traffic.size()))
      << "for " << warm.messages << " messages and " << warm.events
      << " events";

  const exec::RunResult fresh = exec::run_plan(p.nest, plan, model, opts);
  EXPECT_EQ(warm.completion, fresh.completion);
  EXPECT_EQ(warm.events, fresh.events);
  EXPECT_EQ(warm.messages, fresh.messages);
  EXPECT_EQ(warm.bytes, fresh.bytes);
  EXPECT_EQ(warm.traffic, fresh.traffic);
}

}  // namespace

TEST(RunAllocTest, CountingAllocatorSeesAllocations) {
  const long before = g_allocs.load();
  {
    std::vector<int> v(256);
    volatile int sink = v[1];
    (void)sink;
  }
  EXPECT_GE(g_allocs.load() - before, 1);
}

TEST(RunAllocTest, WarmOverlapRunStaysUnderAllocationBound) {
  check_warm_run(sched::ScheduleKind::kOverlap);
}

TEST(RunAllocTest, WarmNonOverlapRunStaysUnderAllocationBound) {
  check_warm_run(sched::ScheduleKind::kNonOverlap);
}

TEST(RunAllocTest, WarmRendezvousRunStaysUnderAllocationBound) {
  check_warm_run(sched::ScheduleKind::kOverlap, msg::Protocol::kRendezvous);
}
