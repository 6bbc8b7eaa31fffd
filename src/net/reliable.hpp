// Reliable, exactly-once transport over the lossy simulated network.
//
// net::Network::send with message faults enabled is an unreliable datagram
// service: messages may be dropped, duplicated, or reordered (see
// docs/network-model.md, "Reliability model"). ReliableTransport layers a
// classic ARQ protocol on top:
//
//  * every data packet carries a per-(source, destination) sequence number
//    (Packet::rel_seq) and is acknowledged by the receiver with a small
//    control message (kTagAck, kAckBytes on the wire);
//  * send() blocks (in virtual time) until the matching ack arrives,
//    retransmitting on timeout with exponential backoff — the k-th wait is
//    min(timeout * backoff^k, max_timeout) — up to `max_retransmits`
//    retransmissions, after which it throws TimeoutError (a typed
//    common::Error) instead of stalling forever on a dead peer;
//  * the receive side delivers each message exactly once and in per-source
//    order: duplicates (injected or retransmitted) are re-acked, counted in
//    net.dup_delivered_total, and dropped; out-of-order arrivals are held
//    until the gap fills. A deadline receive (recv_until) returns nothing
//    at its deadline; it never throws.
//
// Deadlock freedom: a sender blocked waiting for an ack keeps servicing its
// own endpoint — incoming data packets are acked and buffered for a later
// recv() — so two peers sending to each other always make progress. Acks
// themselves travel unreliably (a lost ack is repaired by the sender's
// retransmission, which the receiver dedups and re-acks).
//
// Steady state costs what the plain path costs: per-endpoint state is a
// vector indexed by endpoint id, per-pair state a sorted vector of the
// peers an endpoint has talked to (it allocates at first contact only), the
// ready queues share one pooled Mailboxes, and an in-order delivery goes
// straight to its ready queue. Only a real gap parks packets in a map.
//
// All timing is virtual, so lossy runs inherit the simulator's determinism
// contract: same (config, seed) → byte-identical results at any
// compute_threads setting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "metrics/registry.hpp"
#include "net/mailbox.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "runtime/sim.hpp"

namespace dt::net {

/// Ack control tag — far above every protocol tag (core::Tag grows upward
/// from kTagAllreduce = 200 by small bucket offsets).
inline constexpr int kTagAck = 1 << 30;

/// Wire size of an ack control message.
inline constexpr std::uint64_t kAckBytes = 64;

/// Retransmission policy (the `[reliability]` INI keys; virtual seconds).
struct ReliableConfig {
  double timeout = 0.05;     // initial ack wait
  double backoff = 2.0;      // wait multiplier per retransmission
  double max_timeout = 1.0;  // backoff cap
  int max_retransmits = 10;  // budget per send() before TimeoutError
};

/// Raised when a send() exhausts its retransmit budget — the signal the
/// PS-failover logic turns into a route change instead of a hang.
class TimeoutError : public common::Error {
 public:
  explicit TimeoutError(const std::string& what) : common::Error(what) {}
};

class ReliableTransport {
 public:
  ReliableTransport(Network& net, ReliableConfig cfg);

  /// Registers the transport's instruments. Call only for runs that route
  /// traffic through the transport (fault-free metric dumps must stay
  /// byte-identical): net.retransmits_total, net.dup_delivered_total, and
  /// a per-sender ack-RTT gauge net.ack_rtt_s{endpoint=...} resolved
  /// lazily at the first completed send.
  void set_metrics(metrics::MetricRegistry* registry);

  /// Exactly-once send: blocks until `dst_ep` acknowledges, retransmitting
  /// per the ReliableConfig schedule. Throws TimeoutError when the budget
  /// is exhausted. While waiting, incoming data on `src_ep` is acked and
  /// buffered for a later recv (never lost, never a deadlock).
  ///
  /// `seq_io`: callers that retry a timed-out send to the SAME destination
  /// must reuse its sequence number, or an in-flight copy of the abandoned
  /// attempt could park the receiver on a gap forever. Pass a holder
  /// initialized to -1: the first call assigns the seq, a retry reuses it.
  /// Reset it to -1 when switching destinations (failover).
  void send(runtime::Process& self, int src_ep, int dst_ep, Packet pkt,
            std::int64_t* seq_io = nullptr);

  /// Blocking exactly-once, per-source-in-order receive of the earliest
  /// buffered (or next arriving) message with a matching tag.
  Packet recv(runtime::Process& self, int ep, int tag = kAnyTag);

  /// recv with a virtual-time deadline, the contract of
  /// Network::recv_until: the earliest matching message delivered at or
  /// before `deadline`, or nullopt with `self` advanced to `deadline`.
  std::optional<Packet> recv_until(runtime::Process& self, int ep, int tag,
                                   double deadline);

  /// Non-blocking receive over already-delivered traffic.
  std::optional<Packet> try_recv(runtime::Process& self, int ep,
                                 int tag = kAnyTag);

  /// Fail-stop death of `ep`'s owner: from now on, arriving data packets
  /// are silently dropped (never acked — senders will time out), while
  /// acks for `ep`'s own in-progress sends are still consumed so a dying
  /// primary can finish mirroring what it already acknowledged.
  void set_deaf(int ep);

  /// Pops every acked-but-undelivered message buffered at `ep`, in
  /// delivery order — the death drain: whatever the transport acked must
  /// be processed (applied and mirrored) before the owner dies, or acked
  /// updates would be lost.
  std::vector<Packet> drain_ready(int ep);

  [[nodiscard]] const ReliableConfig& config() const noexcept { return cfg_; }

 private:
  /// One endpoint's half of a (local, remote) endpoint pair.
  struct Peer {
    int ep = -1;                     // the remote endpoint
    std::int64_t next_seq = 0;       // next seq to send to it
    std::int64_t next_expected = 0;  // next in-order seq to deliver from it
    std::map<std::int64_t, Packet> parked;  // out-of-order, by seq (gaps)
  };
  struct EndpointState {
    bool deaf = false;
    std::vector<Peer> peers;              // sorted by ep; first contact adds
    metrics::Gauge* rtt_gauge = nullptr;  // net.ack_rtt_s, at first ack
  };

  // Network::send yields the calling fiber (send_overhead), and another
  // fiber may then grow eps_ or its own peer list: hold no reference into
  // either across a send.

  /// `ep`'s state; the table grows to every endpoint at first contact.
  EndpointState& state(int ep);

  /// `ep`'s entry for `remote`, added (sorted) at first contact.
  Peer& peer(int ep, int remote);

  /// Waits until `deadline` for dst's ack of `seq`, servicing (acking and
  /// buffering) any data packets that arrive meanwhile. False on timeout.
  bool await_ack(runtime::Process& self, int src_ep, int dst_ep,
                 std::int64_t seq, double deadline);

  /// Classifies one raw delivery at `ep`: stale acks are dropped, data is
  /// acked + deduped + parked/enqueued in order (unless `ep` is deaf).
  void handle_raw(runtime::Process& self, int ep, Packet pkt);

  std::optional<Packet> pop_ready(int ep, int tag);

  Network& net_;
  ReliableConfig cfg_;
  std::vector<EndpointState> eps_;  // by endpoint id
  Mailboxes ready_;  // by endpoint id: in-order, deduped, unread

  metrics::MetricRegistry* registry_ = nullptr;
  metrics::Counter* ctr_retransmits_ = nullptr;
  metrics::Counter* ctr_dup_ = nullptr;
};

}  // namespace dt::net
