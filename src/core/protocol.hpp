// Wire protocol constants and small helpers shared by the algorithm
// implementations.
//
// Centralized algorithms exchange *per-slot* packets (slot = one layer's
// parameters): a gradient push is num_slots packets routed to the PS shards
// that own each slot, and parameter replies come back per slot. This is
// what makes layer-wise sharding, wait-free backpropagation (per-layer
// pipelining) and DGC (per-layer sparsification) compose naturally.
// Decentralized algorithms exchange whole-model packets peer-to-peer.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace dt::core {

enum Tag : int {
  kTagGrad = 1,         // worker/leader -> PS: dense gradient for one slot
  kTagSparseGrad = 2,   // worker -> PS: DGC sparse gradient for one slot
  kTagParams = 3,       // PS -> worker: parameters of one slot
  kTagPull = 4,         // SSP worker -> PS: request global parameters
  kTagEasgdPush = 5,    // EASGD worker -> PS: local params of one slot
  kTagLocalGrad = 6,    // worker -> machine leader (BSP local aggregation)
  kTagLocalParams = 7,  // machine leader -> worker (local broadcast)
  kTagGossip = 8,       // GoSGD push (whole model + weight)
  kTagAdpsgdReq = 9,    // AD-PSGD active -> passive (whole model)
  kTagAdpsgdReply = 10, // AD-PSGD passive -> active (whole model)
  kTagRejoin = 12,      // DSSP worker -> controller shard: fire-and-forget
                        // "I rebooted" note; restarts the rank's push-rate
                        // window in the staleness policy. No reply.
  kTagViewChange = 13,  // membership detector -> PS shard: a new view was
                        // published (Packet.c = epoch); without the detector,
                        // a finishing drop-mode BSP worker's departure note.
                        // Synchronous PSes re-check their admission
                        // condition; others ignore.
  kTagBarrier = 100,    // +0/+1 reserved
  // Ring tag regions. Each membership epoch gets a tag pair inside the
  // region: tag = region + 2*(epoch % net::kEpochTagSpan) + phase, where
  // phase is reduce-scatter/all-gather (AR-SGD) or the round parity
  // (D-PSGD); a static ring runs at epoch 0 for the whole run. Packets
  // carry the *full* epoch in Packet.c so receivers can discard stale
  // traffic even when epochs alias modulo the span (see
  // net/collectives.hpp, flush_stale_epochs). AR-SGD's wait-free-BP
  // buckets add +2*b to the epoch-0 pair (static ring only).
  kTagAllreduce = 200,
  kTagDpsgd = 300,
  // FSDP/ZeRO tag region. Each phase gets a +0/+1 pair indexed by the
  // iteration parity (a rank can be at most one iteration ahead of any
  // peer — closing round i needs every rank's round-i contribution — so
  // parity fully disambiguates adjacent rounds).
  kTagFsdpGrad = 500,    // worker -> owner: flat gradient piece(s)
  kTagFsdpParam = 502,   // owner -> worker: updated flat parameter range
  kTagFsdpGather = 504,  // owner -> worker: stage-3 per-slot param pieces.
                         // Tag = base + 4*slot + 2*phase + parity (phase:
                         // 0 = pre-forward gather, 1 = backward re-gather),
                         // so a slow rank's pre-forward recv never dequeues
                         // a fast peer's later-slot or backward traffic.
};

/// Packet field conventions (Packet.a/b/c/d/x):
///   a = sender worker rank (or shard id in replies)
///   b = slot index (per-slot packets) or bucket index
///   c = iteration / staleness clock of the sender
///   d = per-rank exchange round id (reliable/replicated PS runs): pushes
///       carry the sender's monotonic round so the shard can apply each
///       exchange exactly once across retransmissions and failover;
///       replies echo it so workers can drop stale/duplicate replies.
///       0 elsewhere. (Packet.rel_seq below d is owned by the transport.)
///   x = learning rate in effect at the sender (centralized pushes),
///       gossip weight (GoSGD), or — on kTagParams replies from the DSSP
///       controller shard — the staleness bound granted to the receiver

/// Gathers `slots[i]`-indexed tensors from a full slot-ordered vector.
inline std::vector<tensor::Tensor> select_slots(
    const std::vector<tensor::Tensor>& all,
    const std::vector<std::size_t>& slots) {
  std::vector<tensor::Tensor> out;
  out.reserve(slots.size());
  for (std::size_t s : slots) out.push_back(all.at(s));
  return out;
}

}  // namespace dt::core
