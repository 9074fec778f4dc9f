// A free-list recycler for fixed-size blocks, and an allocator over it for
// std::allocate_shared.  Hot-path objects that are created and released
// once per message (the messaging layer's send/receive handles) draw their
// storage from a pool owned by a long-lived object, so a warm pool makes no
// heap allocation per object.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "tilo/util/error.hpp"

namespace tilo::util {

/// Hands out blocks of one size (fixed by the first take()) and keeps
/// returned blocks for reuse.  Not thread-safe: blocks must be taken and
/// given back on one thread, like the simulation that owns the pool.
class BlockPool {
 public:
  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;
  ~BlockPool() {
    for (void* p : free_) ::operator delete(p);
  }

  void* take(std::size_t bytes) {
    if (bytes_ == 0) bytes_ = bytes;
    TILO_ASSERT(bytes == bytes_, "BlockPool serves one block size (",
                bytes_, "), asked for ", bytes);
    if (free_.empty()) {
      // Room for every block ever handed out, so give() never reallocates.
      if (free_.capacity() < ++blocks_) free_.reserve(2 * blocks_);
      return ::operator new(bytes_);
    }
    void* p = free_.back();
    free_.pop_back();
    return p;
  }
  void give(void* p) noexcept { free_.push_back(p); }

 private:
  std::size_t bytes_ = 0;
  std::size_t blocks_ = 0;
  std::vector<void*> free_;
};

/// Allocator drawing single objects from a shared BlockPool.  Copies share
/// the pool, and a control block made by std::allocate_shared keeps its
/// copy, so the pool outlives every object allocated from it.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(std::shared_ptr<BlockPool> pool)
      : pool_(std::move(pool)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& o) noexcept : pool_(o.pool_) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "PoolAllocator blocks have operator new's alignment");
    TILO_ASSERT(n == 1, "PoolAllocator allocates single objects");
    return static_cast<T*>(pool_->take(sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { pool_->give(p); }

  template <typename U>
  bool operator==(const PoolAllocator<U>& o) const noexcept {
    return pool_ == o.pool_;
  }

 private:
  template <typename U>
  friend class PoolAllocator;
  std::shared_ptr<BlockPool> pool_;
};

}  // namespace tilo::util
