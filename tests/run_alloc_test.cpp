// Allocation bound for the timed run path.  This executable replaces the
// global operator new with a counting one and checks that a warm timed
// run_plan (workspace already holding the comm table and rank buffers)
// makes at most kMaxAllocsPerMessage heap allocations per message, under
// both schedules.  Fixed per-run setup (cluster, endpoints, coroutine
// frames) is included in the count, so the bound also caps it.
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

constexpr double kMaxAllocsPerMessage = 4.0;

void check_warm_run(sched::ScheduleKind kind) {
  const core::Problem p = core::paper_problem_iii();
  const exec::TilePlan plan = p.plan(116, kind);
  const auto model = std::make_shared<const mach::IdealOverlapModel>(p.machine);

  exec::RunWorkspace ws;
  (void)exec::run_plan(p.nest, plan, model, {}, &ws);  // warm the workspace

  const long before = g_allocs.load();
  const exec::RunResult warm = exec::run_plan(p.nest, plan, model, {}, &ws);
  const long allocs = g_allocs.load() - before;

  ASSERT_GT(warm.messages, 0);
  const double per_message =
      static_cast<double>(allocs) / static_cast<double>(warm.messages);
  EXPECT_LE(per_message, kMaxAllocsPerMessage)
      << allocs << " allocations for " << warm.messages << " messages";

  const exec::RunResult fresh = exec::run_plan(p.nest, plan, model);
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
