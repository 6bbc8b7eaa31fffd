#include "net/reliable.hpp"

#include <algorithm>
#include <string>
#include <utility>

namespace dt::net {

ReliableTransport::ReliableTransport(Network& net, ReliableConfig cfg)
    : net_(net), cfg_(cfg) {
  common::check(cfg_.timeout > 0.0, "reliable: timeout must be positive");
  common::check(cfg_.backoff >= 1.0, "reliable: backoff must be >= 1");
  common::check(cfg_.max_timeout >= cfg_.timeout,
                "reliable: max_timeout must be >= timeout");
  common::check(cfg_.max_retransmits >= 0,
                "reliable: max_retransmits must be >= 0");
}

void ReliableTransport::set_metrics(metrics::MetricRegistry* registry) {
  if (registry == nullptr) return;
  registry_ = registry;
  ctr_retransmits_ = &registry->counter("net.retransmits_total");
  ctr_dup_ = &registry->counter("net.dup_delivered_total");
}

ReliableTransport::EndpointState& ReliableTransport::state(int ep) {
  const auto i = static_cast<std::size_t>(ep);
  if (i >= eps_.size()) {
    // Every endpoint exists before traffic starts, so this runs once.
    const std::size_t n =
        std::max(i + 1, static_cast<std::size_t>(net_.num_endpoints()));
    while (eps_.size() < n) {
      eps_.emplace_back();
      ready_.add();
    }
  }
  return eps_[i];
}

ReliableTransport::Peer& ReliableTransport::peer(int ep, int remote) {
  std::vector<Peer>& peers = state(ep).peers;
  auto it = std::lower_bound(
      peers.begin(), peers.end(), remote,
      [](const Peer& p, int id) { return p.ep < id; });
  if (it == peers.end() || it->ep != remote) {
    it = peers.insert(it, Peer{.ep = remote, .parked = {}});
  }
  return *it;
}

void ReliableTransport::send(runtime::Process& self, int src_ep, int dst_ep,
                             Packet pkt, std::int64_t* seq_io) {
  std::int64_t seq;
  if (seq_io != nullptr && *seq_io >= 0) {
    seq = *seq_io;  // retry of an abandoned send: keep the receiver gapless
  } else {
    seq = peer(src_ep, dst_ep).next_seq++;
    if (seq_io != nullptr) *seq_io = seq;
  }
  pkt.rel_seq = seq;

  double wait = cfg_.timeout;
  int retransmits = 0;
  for (;;) {
    net_.send(self, src_ep, dst_ep, pkt);  // copy kept for retransmission
    const double attempt_at = self.now();  // post send-overhead
    if (await_ack(self, src_ep, dst_ep, seq, attempt_at + wait)) {
      if (registry_ != nullptr) {
        metrics::Gauge*& g = state(src_ep).rtt_gauge;
        if (g == nullptr) {
          g = &registry_->gauge("net.ack_rtt_s",
                                {{"endpoint", net_.endpoint_name(src_ep)}});
        }
        g->set(self.now() - attempt_at);
      }
      return;
    }
    if (retransmits >= cfg_.max_retransmits) {
      throw TimeoutError("reliable: no ack from " +
                         net_.endpoint_name(dst_ep) + " for " +
                         net_.endpoint_name(src_ep) + " seq " +
                         std::to_string(seq) + " after " +
                         std::to_string(retransmits) + " retransmits");
    }
    ++retransmits;
    if (ctr_retransmits_ != nullptr) ctr_retransmits_->inc();
    wait = std::min(wait * cfg_.backoff, cfg_.max_timeout);
  }
}

bool ReliableTransport::await_ack(runtime::Process& self, int src_ep,
                                  int dst_ep, std::int64_t seq,
                                  double deadline) {
  for (;;) {
    std::optional<Packet> raw = net_.recv_until(self, src_ep, kAnyTag,
                                                deadline);
    if (!raw.has_value()) return false;
    if (raw->tag == kTagAck) {
      if (raw->src_endpoint == dst_ep && raw->a == seq) return true;
      continue;  // stale ack of an already-completed send — drop
    }
    handle_raw(self, src_ep, std::move(*raw));
  }
}

void ReliableTransport::handle_raw(runtime::Process& self, int ep,
                                   Packet pkt) {
  if (pkt.tag == kTagAck) return;  // stale ack outside a send — drop
  if (state(ep).deaf) return;      // fail-stopped owner: drop, never ack

  if (pkt.rel_seq < 0) {
    // Raw (non-transport) delivery on a transport endpoint: pass through.
    ready_.push_back(ep, std::move(pkt));
    return;
  }

  // Ack every transport delivery, duplicates included: the sender's copy
  // of our previous ack may have been lost.
  const int peer_ep = pkt.src_endpoint;
  Packet ack;
  ack.tag = kTagAck;
  ack.a = pkt.rel_seq;
  ack.wire_bytes = kAckBytes;
  net_.send(self, ep, peer_ep, std::move(ack));

  Peer& from = peer(ep, peer_ep);
  if (pkt.rel_seq == from.next_expected && from.parked.empty()) {
    ++from.next_expected;  // in order, no gap open: deliver directly
    ready_.push_back(ep, std::move(pkt));
    return;
  }
  if (pkt.rel_seq < from.next_expected ||
      from.parked.find(pkt.rel_seq) != from.parked.end()) {
    if (ctr_dup_ != nullptr) ctr_dup_->inc();
    return;  // exactly-once: duplicate delivery dropped
  }
  from.parked.emplace(pkt.rel_seq, std::move(pkt));
  // Release the in-order prefix.
  for (auto it = from.parked.begin();
       it != from.parked.end() && it->first == from.next_expected;
       it = from.parked.erase(it), ++from.next_expected) {
    ready_.push_back(ep, std::move(it->second));
  }
}

std::optional<Packet> ReliableTransport::pop_ready(int ep, int tag) {
  (void)state(ep);  // creates the endpoint's ready queue
  const Mailboxes::Slot s = ready_.find(ep, tag);
  if (s == Mailboxes::kNone) return std::nullopt;
  return ready_.take(ep, s);
}

Packet ReliableTransport::recv(runtime::Process& self, int ep, int tag) {
  for (;;) {
    if (auto pkt = pop_ready(ep, tag)) return std::move(*pkt);
    handle_raw(self, ep, net_.recv(self, ep, kAnyTag));
  }
}

std::optional<Packet> ReliableTransport::recv_until(runtime::Process& self,
                                                    int ep, int tag,
                                                    double deadline) {
  for (;;) {
    if (auto pkt = pop_ready(ep, tag)) return pkt;
    std::optional<Packet> raw =
        net_.recv_until(self, ep, kAnyTag, deadline);
    if (!raw.has_value()) return std::nullopt;
    handle_raw(self, ep, std::move(*raw));
  }
}

std::optional<Packet> ReliableTransport::try_recv(runtime::Process& self,
                                                  int ep, int tag) {
  // Absorb everything already delivered, then look at the ready buffer.
  while (auto raw = net_.try_recv(self, ep, kAnyTag)) {
    handle_raw(self, ep, std::move(*raw));
  }
  return pop_ready(ep, tag);
}

void ReliableTransport::set_deaf(int ep) { state(ep).deaf = true; }

std::vector<Packet> ReliableTransport::drain_ready(int ep) {
  (void)state(ep);
  std::vector<Packet> out;
  out.reserve(ready_.size(ep));
  for (Mailboxes::Slot s; (s = ready_.find(ep, kAnyTag)) != Mailboxes::kNone;) {
    out.push_back(ready_.take(ep, s));
  }
  return out;
}

}  // namespace dt::net
