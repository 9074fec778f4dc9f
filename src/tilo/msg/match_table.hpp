// Pending messaging entries matched by (source, tag), oldest first within
// a key: the arrived-message, posted-receive and parked-sender tables of
// msg::Endpoint.
//
// A flat open-addressing table (linear probing, backward-shift deletion)
// maps each live key to the head and tail of a FIFO chain threaded through
// a pooled node array.  A key's slot is freed when its chain empties, and
// freed nodes are recycled, so the table only grows with the number of
// simultaneously pending entries; clear() keeps every capacity, so a warm
// table matches without heap allocation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "tilo/util/error.hpp"
#include "tilo/util/math.hpp"

namespace tilo::msg {

template <typename V>
class MatchTable {
 public:
  using Key = std::pair<int, util::i64>;  // (src, tag)

  /// Appends `value` to the back of `key`'s FIFO.
  void push(const Key& key, V value) {
    if (2 * (keys_ + 1) > slots_.size()) grow();
    std::uint32_t n = kNil;
    if (free_.empty()) {
      TILO_REQUIRE(nodes_.size() < kNil, "match table exhausted");
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(value), kNil});
    } else {
      n = free_.back();
      free_.pop_back();
      nodes_[n] = Node{std::move(value), kNil};
    }
    ++size_;
    Slot& s = slots_[probe(key)];
    if (s.head == kNil) {
      s = Slot{key.second, key.first, n, n};
      ++keys_;
    } else {
      nodes_[s.tail].next = n;
      s.tail = n;
    }
  }

  /// Removes and returns the oldest entry under `key`, if any.
  std::optional<V> pop(const Key& key) {
    if (keys_ == 0) return std::nullopt;
    const std::size_t i = probe(key);
    Slot& s = slots_[i];
    if (s.head == kNil) return std::nullopt;
    const std::uint32_t n = s.head;
    Node& node = nodes_[n];
    std::optional<V> out(std::move(node.value));
    node.value = V{};  // drop held payloads and handles now
    s.head = node.next;
    free_.push_back(n);
    --size_;
    if (s.head == kNil) erase(i);
    return out;
  }

  /// The oldest entry under `key` satisfying `pred`, or nullptr.
  template <typename Pred>
  V* find_if(const Key& key, Pred pred) {
    if (keys_ == 0) return nullptr;
    for (std::uint32_t n = slots_[probe(key)].head; n != kNil;
         n = nodes_[n].next)
      if (pred(nodes_[n].value)) return &nodes_[n].value;
    return nullptr;
  }

  /// Number of pending entries, over all keys.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Drops every entry; capacity is kept.
  void clear() {
    for (Slot& s : slots_) s.head = kNil;
    nodes_.clear();
    free_.clear();
    keys_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  // A slot is free iff its chain is empty (head == kNil).
  struct Slot {
    util::i64 tag = 0;
    int src = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct Node {
    V value;
    std::uint32_t next;
  };

  std::size_t home(util::i64 tag, int src) const {
    std::uint64_t h = static_cast<std::uint64_t>(tag) * 0x9E3779B97F4A7C15ull ^
                      static_cast<std::uint32_t>(src);
    h *= 0xBF58476D1CE4E5B9ull;
    return static_cast<std::size_t>(h ^ (h >> 32)) & (slots_.size() - 1);
  }

  /// The slot holding `key`, or the free slot where it would go.
  std::size_t probe(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key.second, key.first);
    while (slots_[i].head != kNil &&
           (slots_[i].tag != key.second || slots_[i].src != key.first))
      i = (i + 1) & mask;
    return i;
  }

  /// Frees slot `i`, shifting later members of its probe run back so no
  /// lookup ever stops at the hole.
  void erase(std::size_t i) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (i + 1) & mask; slots_[j].head != kNil;
         j = (j + 1) & mask) {
      // Slot j may fill the hole iff its home is not cyclically in (i, j].
      const std::size_t h = home(slots_[j].tag, slots_[j].src);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i].head = kNil;
    --keys_;
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.head != kNil) slots_[probe(Key{s.src, s.tag})] = s;
  }

  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::size_t keys_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tilo::msg
