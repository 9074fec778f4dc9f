// Messages exchanged between simulated ranks, and the ids of the
// nonblocking requests that move them.
#pragma once

#include <cstdint>
#include <type_traits>

#include "tilo/util/math.hpp"

namespace tilo::msg {

using util::i64;

/// Optional functional payload: the index of a value buffer owned by the
/// cluster (Cluster::make_payload), holding region values concatenated in
/// the sender's region order (the receiver reconstructs the region list
/// from the tag, so no geometry travels with the message).  Timed runs
/// carry none; only the byte count matters.
struct Payload {
  static constexpr std::uint32_t kNone = UINT32_MAX;
  std::uint32_t index = kNone;

  bool has_data() const { return index != kNone; }
};

/// A message in flight.
struct Message {
  int src = -1;
  int dst = -1;
  i64 tag = 0;
  i64 bytes = 0;
  Payload payload;
};

/// A nonblocking request (MPI_Request): a slot of the cluster's request
/// table plus the generation that slot had when the request was posted.
/// Waiting releases the slot and bumps its generation, so a stale or
/// already-waited id is detected instead of aliasing a newer request.
struct RequestId {
  std::uint32_t slot = UINT32_MAX;
  std::uint32_t gen = 0;

  friend bool operator==(RequestId, RequestId) = default;
};

static_assert(std::is_trivially_copyable_v<Message>);
static_assert(std::is_trivially_copyable_v<RequestId>);

}  // namespace tilo::msg
