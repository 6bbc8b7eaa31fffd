#include "net/network.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "metrics/trace.hpp"

namespace dt::net {

Network::Network(runtime::SimEngine& engine, ClusterSpec spec)
    : engine_(engine), spec_(spec) {
  common::check(spec_.num_machines > 0, "Network: need at least one machine");
  common::check(spec_.nic_bandwidth > 0 && spec_.local_bus_bandwidth > 0,
                "Network: bandwidths must be positive");
  tx_busy_.assign(static_cast<std::size_t>(spec_.num_machines), 0.0);
  rx_busy_.assign(static_cast<std::size_t>(spec_.num_machines), 0.0);
  bus_busy_.assign(static_cast<std::size_t>(spec_.num_machines), 0.0);
}

int Network::add_endpoint(int machine, std::string name) {
  common::check(machine >= 0 && machine < spec_.num_machines,
                "Network::add_endpoint: bad machine index");
  const int id = num_endpoints();
  Endpoint ep;
  ep.machine = machine;
  ep.name = name.empty() ? "ep" + std::to_string(id) : std::move(name);
  endpoints_.push_back(std::move(ep));
  mailboxes_.add();
  return id;
}

void Network::bind(int endpoint_id, runtime::Process& proc) {
  endpoint(endpoint_id).owner = &proc;
}

Network::Endpoint& Network::endpoint(int id) {
  common::check(id >= 0 && id < num_endpoints(), "Network: bad endpoint id");
  return endpoints_[static_cast<std::size_t>(id)];
}

const Network::Endpoint& Network::endpoint(int id) const {
  common::check(id >= 0 && id < num_endpoints(), "Network: bad endpoint id");
  return endpoints_[static_cast<std::size_t>(id)];
}

int Network::machine_of(int endpoint_id) const {
  return endpoint(endpoint_id).machine;
}

std::size_t Network::queue_depth(int endpoint_id) const {
  (void)endpoint(endpoint_id);  // validates the id
  return mailboxes_.size(endpoint_id);
}

const std::string& Network::endpoint_name(int endpoint_id) const {
  return endpoint(endpoint_id).name;
}

void Network::set_metrics(metrics::MetricRegistry* registry) {
  if (registry == nullptr) return;
  ctr_bytes_inter_ = &registry->counter("net.bytes_total", {{"scope", "inter"}});
  ctr_bytes_intra_ = &registry->counter("net.bytes_total", {{"scope", "intra"}});
  ctr_msgs_inter_ =
      &registry->counter("net.messages_total", {{"scope", "inter"}});
  ctr_msgs_intra_ =
      &registry->counter("net.messages_total", {{"scope", "intra"}});
  in_flight_ = &registry->gauge("net.in_flight");
  if (faults_ != nullptr && faults_->has_link_windows()) {
    ctr_degraded_ = &registry->counter("net.degraded_sends_total");
  }
  if (msg_faults_on_) {
    ctr_lost_ = &registry->counter("net.lost_total");
    ctr_reordered_ = &registry->counter("net.reordered_total");
  }
  ctr_tx_busy_.clear();
  ctr_rx_busy_.clear();
  ctr_bus_busy_.clear();
  for (int m = 0; m < spec_.num_machines; ++m) {
    const std::string machine = std::to_string(m);
    ctr_tx_busy_.push_back(&registry->counter(
        "net.link_busy_s", {{"machine", machine}, {"dir", "tx"}}));
    ctr_rx_busy_.push_back(&registry->counter(
        "net.link_busy_s", {{"machine", machine}, {"dir", "rx"}}));
    ctr_bus_busy_.push_back(&registry->counter(
        "net.link_busy_s", {{"machine", machine}, {"dir", "bus"}}));
  }
}

double Network::model_transfer(int src_machine, int dst_machine,
                               std::uint64_t wire_bytes, double now) {
  // Link degradation: a window on either endpoint's machine scales this
  // transfer's bandwidth down and latency up for its whole duration
  // (evaluated at the send instant — virtual time, hence deterministic).
  double bw_mult = 1.0;
  double lat_mult = 1.0;
  if (faults_ != nullptr && faults_->has_link_windows() &&
      faults_->link_multipliers(now, src_machine, dst_machine, &bw_mult,
                                &lat_mult)) {
    if (ctr_degraded_ != nullptr) ctr_degraded_->inc();
  }

  double arrival;
  if (src_machine == dst_machine) {
    double& bus = bus_busy_[static_cast<std::size_t>(src_machine)];
    const double start = std::max(now, bus);
    const double serialization = static_cast<double>(wire_bytes) /
                                 (spec_.local_bus_bandwidth * bw_mult);
    const double finish = start + serialization;
    bus = finish;
    arrival = finish + spec_.local_latency * lat_mult;
    if (ctr_bytes_intra_ != nullptr) {
      ctr_bytes_intra_->inc(static_cast<double>(wire_bytes));
      ctr_msgs_intra_->inc();
      ctr_bus_busy_[static_cast<std::size_t>(src_machine)]->inc(serialization);
    }
  } else {
    // Cut-through model: the message occupies the sender's TX queue and
    // the receiver's RX queue for its serialization time each, and the RX
    // occupancy may overlap the TX occupancy (it just cannot start before
    // the sender starts). Unloaded transfer: T + latency; contended queues
    // serialize independently at full utilization (no head-of-line idling
    // between unrelated flows, unlike a circuit reservation).
    double& tx = tx_busy_[static_cast<std::size_t>(src_machine)];
    double& rx = rx_busy_[static_cast<std::size_t>(dst_machine)];
    const double serialization =
        static_cast<double>(wire_bytes) / (spec_.nic_bandwidth * bw_mult);
    const double tx_start = std::max(now, tx);
    tx = tx_start + serialization;
    const double rx_start = std::max(tx_start, rx);
    rx = rx_start + serialization;
    arrival = rx_start + serialization + spec_.latency * lat_mult;
    ++stats_.inter_machine_messages;
    stats_.inter_machine_bytes += wire_bytes;
    if (ctr_bytes_inter_ != nullptr) {
      ctr_bytes_inter_->inc(static_cast<double>(wire_bytes));
      ctr_msgs_inter_->inc();
      ctr_tx_busy_[static_cast<std::size_t>(src_machine)]->inc(serialization);
      ctr_rx_busy_[static_cast<std::size_t>(dst_machine)]->inc(serialization);
    }
  }
  ++stats_.messages;
  stats_.bytes += wire_bytes;
  return arrival;
}

void Network::send(runtime::Process& self, int src_endpoint, int dst_endpoint,
                   Packet pkt) {
  Endpoint& dst = endpoint(dst_endpoint);
  const int src_machine = endpoint(src_endpoint).machine;
  const int dst_machine = dst.machine;

  if (spec_.send_overhead > 0.0) self.advance(spec_.send_overhead);
  const double now = engine_.now();

  // Message faults (inter-machine only; intra-machine buses are reliable).
  // Fixed draw order — loss, duplication, reorder, then the reorder delay
  // when it fired — from the plan's dedicated stream, so the fault timeline
  // is a pure function of (config, seed) and never perturbs any other RNG
  // stream. A lost message still occupies the wire (the bytes traveled);
  // a duplicate occupies it twice; a reordered delivery is delayed past
  // later sends without extra wire time.
  bool lost = false;
  bool duplicated = false;
  double extra_delay = 0.0;
  if (msg_faults_on_ && src_machine != dst_machine &&
      faults_->msg_faults().affects(src_machine, dst_machine)) {
    const faults::MsgFaults& mf = faults_->msg_faults();
    const double u_loss = msg_rng_.uniform();
    const double u_dup = msg_rng_.uniform();
    const double u_reorder = msg_rng_.uniform();
    if (u_reorder < mf.reorder_prob) {
      extra_delay = msg_rng_.uniform() * mf.reorder_window;
    }
    lost = u_loss < mf.loss_prob;
    duplicated = !lost && u_dup < mf.dup_prob;
    if (lost) extra_delay = 0.0;
  }

  const double arrival =
      model_transfer(src_machine, dst_machine, pkt.wire_bytes, now) +
      extra_delay;

  if (lost) {
    if (ctr_lost_ != nullptr) ctr_lost_->inc();
    if (trace_ != nullptr) {
      trace_->lost_flow(src_endpoint, dst_endpoint, pkt.wire_bytes, now,
                        arrival, edges_ == nullptr ? 0 : edges_->size());
    }
    return;
  }
  if (extra_delay > 0.0 && ctr_reordered_ != nullptr) ctr_reordered_->inc();

  const double dup_arrival =
      duplicated
          ? model_transfer(src_machine, dst_machine, pkt.wire_bytes, now)
          : -1.0;

  const auto enqueue = [&](Packet p, double arr) {
    if (in_flight_ != nullptr) in_flight_->add(1.0);
    if (edges_ != nullptr) {
      edges_->push_back({src_endpoint, dst_endpoint, p.wire_bytes, now, arr,
                         src_machine != dst_machine});
    }
    p.src_endpoint = src_endpoint;
    p.sent_at = now;
    p.arrival = arr;
    mailboxes_.insert(dst_endpoint, std::move(p));
    if (dst.owner != nullptr && dst.owner != &self) {
      engine_.wake(*dst.owner, arr);
    }
  };

  if (duplicated) {
    enqueue(pkt, arrival);  // copy: the duplicate below moves the original
    enqueue(std::move(pkt), dup_arrival);
  } else {
    enqueue(std::move(pkt), arrival);
  }
}

std::size_t Network::drain(int endpoint_id) {
  (void)endpoint(endpoint_id);  // validates the id
  const std::size_t dropped = mailboxes_.clear(endpoint_id);
  if (in_flight_ != nullptr && dropped > 0) {
    in_flight_->add(-static_cast<double>(dropped));
  }
  return dropped;
}

void Network::transfer(runtime::Process& self, int src_endpoint,
                       int dst_endpoint, std::uint64_t bytes) {
  const int src_machine = endpoint(src_endpoint).machine;
  const int dst_machine = endpoint(dst_endpoint).machine;
  if (spec_.send_overhead > 0.0) self.advance(spec_.send_overhead);
  const double now = engine_.now();
  const double arrival = model_transfer(src_machine, dst_machine, bytes, now);
  if (edges_ != nullptr) {
    edges_->push_back({src_endpoint, dst_endpoint, bytes, now, arrival,
                       src_machine != dst_machine, metrics::EdgeKind::recover});
  }
  if (arrival > now) self.advance(arrival - now);
}

bool Network::poll(const runtime::Process& self, int endpoint_id,
                   int tag) const {
  (void)endpoint(endpoint_id);  // validates the id
  return landed(self, mailboxes_.find(endpoint_id, tag));
}

std::optional<Packet> Network::try_recv(runtime::Process& self,
                                        int endpoint_id, int tag) {
  Endpoint& ep = endpoint(endpoint_id);
  common::check(ep.owner == &self, "Network::try_recv by non-owner process");
  const Mailboxes::Slot s = mailboxes_.find(endpoint_id, tag);
  if (!landed(self, s)) return std::nullopt;
  return take(endpoint_id, s);
}

bool Network::landed(const runtime::Process& self, Mailboxes::Slot s) const {
  // The queue is sorted by arrival, so the earliest matching packet is the
  // only candidate: deliverable iff it has already landed.
  return s != Mailboxes::kNone && mailboxes_.at(s).arrival <= self.now();
}

Packet Network::take(int endpoint_id, Mailboxes::Slot s) {
  if (in_flight_ != nullptr) in_flight_->add(-1.0);
  return mailboxes_.take(endpoint_id, s);
}

Packet Network::recv(runtime::Process& self, int endpoint_id, int tag) {
  Endpoint& ep = endpoint(endpoint_id);
  common::check(ep.owner == &self, "Network::recv by non-owner process");
  for (;;) {
    const Mailboxes::Slot s = mailboxes_.find(endpoint_id, tag);
    if (landed(self, s)) return take(endpoint_id, s);
    // Earliest matching in-flight packet, if any: sleep until it lands but
    // stay wakeable in case an earlier one is sent meanwhile.
    if (s != Mailboxes::kNone) {
      self.wait_event_until(mailboxes_.at(s).arrival);
    } else {
      self.wait_event();
    }
  }
}

std::optional<Packet> Network::recv_until(runtime::Process& self,
                                          int endpoint_id, int tag,
                                          double deadline) {
  Endpoint& ep = endpoint(endpoint_id);
  common::check(ep.owner == &self, "Network::recv_until by non-owner process");
  for (;;) {
    const Mailboxes::Slot s = mailboxes_.find(endpoint_id, tag);
    if (landed(self, s)) return take(endpoint_id, s);
    if (self.now() >= deadline) return std::nullopt;
    // Sleep until the earliest matching in-flight arrival or the deadline,
    // whichever comes first; stay wakeable for earlier sends meanwhile.
    self.wait_event_until(s != Mailboxes::kNone
                              ? std::min(mailboxes_.at(s).arrival, deadline)
                              : deadline);
  }
}

}  // namespace dt::net
