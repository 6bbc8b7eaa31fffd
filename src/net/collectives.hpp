// Collective operations over a set of endpoints (the decentralized
// substrate). AllReduce uses the two-step scheme the paper describes for
// AR-SGD: a ring Reduce-Scatter followed by a ring All-Gather, each moving
// (N-1)/N of the buffer per rank. Works in functional mode (real float
// buffers are summed) and in cost-only mode (empty buffer, only wire bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/network.hpp"

namespace dt::net {

/// A group of endpoints participating in collectives: the whole worker set
/// of a static ring, or the renumbered live members of one membership view
/// under ring repair. Every rank must execute the same collective calls in
/// the same order.
struct Communicator {
  Network* net = nullptr;
  std::vector<int> endpoints;  // rank -> endpoint id
  int my_rank = 0;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(endpoints.size());
  }
  [[nodiscard]] int my_endpoint() const {
    return endpoints[static_cast<std::size_t>(my_rank)];
  }
};

/// Number of distinct membership-view epochs a ring tag region can keep
/// apart by tag alone. Ring rounds use tags
///   tag_region + 2*(epoch % kEpochTagSpan) + phase
/// and stamp the *full* epoch into Packet.c, so stale traffic is discarded
/// by tag when the epochs differ modulo the span and by the c-guard when
/// they alias (see flush_stale_epochs). A static ring is epoch 0.
inline constexpr int kEpochTagSpan = 16;

/// Tag pair base for `epoch` inside `tag_region`.
[[nodiscard]] inline int epoch_tag_base(int tag_region,
                                        std::int64_t epoch) noexcept {
  return tag_region + 2 * static_cast<int>(epoch % kEpochTagSpan);
}

/// Abort condition of a ring round under elastic membership: receives wait
/// in `poll_s` slices and give up as soon as `fired()` returns true (a new
/// view was published, so a peer of this round may be gone for good).
struct AbortGuard {
  double poll_s = 0.0;
  std::function<bool()> fired;
};

/// Outcome of a ring AllReduce round.
struct ElasticStatus {
  /// True when the collective ran to completion over the epoch's ring.
  /// False when the abort guard fired mid-round: the data buffer then holds
  /// partial sums, and callers retry the round from their own contribution
  /// under the new view.
  bool completed = false;
};

/// Receives the next packet on `tag` at `endpoint` for a ring round of
/// `epoch`. Without a guard this is the blocking Network::recv: a view that
/// never changes cannot void the round. With one, the receive polls in
/// guard->poll_s slices, returns nullopt once the guard fires, and discards
/// packets whose Packet.c differs from `epoch` (stale traffic of an aborted
/// round that aliases the tag pair modulo kEpochTagSpan).
std::optional<Packet> recv_in_epoch(runtime::Process& self, Network& net,
                                    int endpoint, int tag, std::int64_t epoch,
                                    const AbortGuard* guard);

/// In-place sum-AllReduce of `data` across all ranks of `comm`.
/// `total_wire_bytes` is the modeled size of the full buffer (what a rank
/// would send if it pushed everything at once); each ring step transfers
/// total_wire_bytes / N. `data` may be empty (cost-only mode).
/// `tag_base` must not collide with other traffic on these endpoints; the
/// collective uses tags [tag_base, tag_base + 2) and stamps `epoch` into
/// Packet.c. Every rank of an elastic round passes the same epoch and the
/// same `guard` condition (see recv_in_epoch); a static ring passes
/// neither and always completes.
ElasticStatus ring_allreduce(runtime::Process& self, const Communicator& comm,
                             std::span<float> data,
                             std::uint64_t total_wire_bytes, int tag_base,
                             std::int64_t epoch = 0,
                             const AbortGuard* guard = nullptr);

/// Rendezvous of all ranks (centralized gather-release on rank 0).
void barrier(runtime::Process& self, const Communicator& comm, int tag_base);

/// Drains (without blocking) every already-delivered packet parked on the
/// epoch tags of `tag_region` EXCEPT the current epoch's pair — the
/// abandoned chunks of aborted rounds. Stale packets that alias the current
/// pair modulo kEpochTagSpan are left for the receive loop's c-guard, and
/// packets still in flight are caught by the next flush (or discarded by
/// the guard). Returns the number of packets dropped.
int flush_stale_epochs(runtime::Process& self, Network& net, int endpoint,
                       int tag_region, std::int64_t epoch);

/// Small control-message size used by barriers/acks.
inline constexpr std::uint64_t kControlBytes = 64;

}  // namespace dt::net
