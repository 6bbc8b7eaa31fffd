// Simulated cluster network.
//
// Topology model (mirrors the paper's testbed): `num_machines` hosts, each
// with one full-duplex NIC of `nic_bandwidth` (10 or 56 Gbps in the paper's
// settings). Workers and PS shards are *endpoints* pinned to a machine; all
// endpoints of one machine share its NIC, which is what creates both the
// PS-bottleneck effect (many senders target the PS machine's RX queue) and
// the gain from BSP's local aggregation (fewer flows leave each machine).
//
// Transfer model (cut-through, one serialization per queue):
//   inter-machine: tx_start = max(now, tx_busy[src])
//                  rx_start = max(tx_start, rx_busy[dst])
//                  tx_busy[src] = tx_start + bytes / nic_bandwidth
//                  rx_busy[dst] = rx_start + bytes / nic_bandwidth
//                  arrival  = rx_start + bytes / nic_bandwidth + latency
//   intra-machine: a per-machine local bus (PCIe-like) with its own queue
//                  and much higher bandwidth.
// An unloaded transfer costs bytes/bw + latency; concurrent flows through a
// shared NIC serialize at full utilization, and — unlike a circuit
// reservation of both NICs at once — unrelated flows never idle a free
// queue (no head-of-line blocking across machines).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faults/faults.hpp"
#include "metrics/registry.hpp"
#include "metrics/span_sink.hpp"
#include "net/mailbox.hpp"
#include "net/packet.hpp"
#include "runtime/sim.hpp"

namespace dt::metrics {
class TraceLog;
}

namespace dt::net {

struct ClusterSpec {
  int num_machines = 6;
  double nic_bandwidth = 1.25e9;        // bytes/s (10 Gbps default)
  double latency = 50e-6;               // per inter-machine message
  double local_bus_bandwidth = 11e9;    // bytes/s (PCIe 3.0 x16-ish)
  double local_latency = 5e-6;          // per intra-machine message

  /// Per-message fixed software overhead at the sender (syscall, marshal).
  double send_overhead = 3e-6;
};

/// Counters for validating communication complexity (Table I) and for the
/// breakdown figures.
struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t inter_machine_messages = 0;
  std::uint64_t inter_machine_bytes = 0;
};

class Network {
 public:
  Network(runtime::SimEngine& engine, ClusterSpec spec);

  /// Creates a mailbox pinned to `machine`; an empty `name` becomes
  /// "ep<id>". Endpoints must be created before the simulation starts
  /// exchanging traffic through them.
  int add_endpoint(int machine, std::string name = {});

  /// Declares `proc` the owner (receiver) of `endpoint`; recv/try_recv may
  /// only be called by the owner. Must be called before the first recv and
  /// before any sender targets a blocked owner.
  void bind(int endpoint, runtime::Process& proc);

  /// Transfers `pkt` from `src_endpoint` to `dst_endpoint`, consuming the
  /// sender's virtual time for the fixed send overhead only (the wire time
  /// is modeled on the NIC queues; the sender does not busy-wait on it).
  void send(runtime::Process& self, int src_endpoint, int dst_endpoint,
            Packet pkt);

  /// Blocking receive of the earliest-arriving packet with matching tag.
  Packet recv(runtime::Process& self, int endpoint, int tag = kAnyTag);

  /// Non-blocking receive: earliest already-delivered matching packet.
  std::optional<Packet> try_recv(runtime::Process& self, int endpoint,
                                 int tag = kAnyTag);

  /// Blocking receive with a virtual-time deadline: returns the earliest
  /// matching packet delivered strictly before `deadline`, or nullopt with
  /// `self` advanced to `deadline`. The timed primitive under
  /// ReliableTransport's ack waits and recv_deadline.
  std::optional<Packet> recv_until(runtime::Process& self, int endpoint,
                                   int tag, double deadline);

  /// True when a matching packet has already arrived (arrival <= now).
  [[nodiscard]] bool poll(const runtime::Process& self, int endpoint,
                          int tag = kAnyTag) const;

  [[nodiscard]] int machine_of(int endpoint) const;
  [[nodiscard]] int num_endpoints() const noexcept {
    return static_cast<int>(endpoints_.size());
  }
  [[nodiscard]] const ClusterSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Attaches a metric registry: every send updates traffic counters
  /// (`net.bytes_total`/`net.messages_total` by scope, per-machine
  /// `net.link_busy_s` by direction) and the `net.in_flight` gauge
  /// (messages sent but not yet received). Instrument pointers are resolved
  /// here once, so the per-send cost is a few pointer bumps.
  void set_metrics(metrics::MetricRegistry* registry);

  /// Attaches a trace: every send records a flow event from the source
  /// endpoint's track to the destination's (arrows in Perfetto).
  void set_trace(metrics::TraceLog* trace) noexcept { trace_ = trace; }

  /// Attaches a profiler span sink: every delivered message (send and bulk
  /// transfer; duplicates too, lost packets not) is recorded as a message
  /// edge for the critical-path analyzer. Attached only for profiled runs.
  void set_spans(metrics::SpanSink* spans) noexcept { spans_ = spans; }

  /// Attaches a fault plan: sends whose virtual time falls inside a link
  /// degradation window of either endpoint's machine see their bandwidth
  /// and latency scaled by the window multipliers, and — when the plan has
  /// message faults — every affected inter-machine send draws loss /
  /// duplication / reorder outcomes from the plan's dedicated RNG stream
  /// (see docs/network-model.md, "Reliability model"). Must be called
  /// before set_metrics so the `net.degraded_sends_total` /
  /// `net.lost_total` / `net.reordered_total` counters are registered only
  /// for runs that can produce them (metric dumps of fault-free runs stay
  /// byte-identical with pre-fault builds).
  void set_faults(const faults::FaultPlan* plan) noexcept {
    faults_ = plan;
    msg_faults_on_ = plan != nullptr && plan->has_message_faults();
    if (msg_faults_on_) msg_rng_ = plan->fork_msg_rng();
  }

  /// Drops every packet queued at `endpoint` — delivered and in flight.
  /// Models a crashed machine's NIC: connections to the dead incarnation
  /// are gone when the worker rejoins. Returns the number dropped.
  std::size_t drain(int endpoint);

  /// Models a blocking bulk fetch of `bytes` from `src_endpoint` into
  /// `dst_endpoint` without enqueuing a packet: the transfer occupies the
  /// NIC/bus queues and counts in the traffic stats exactly like send(),
  /// and `self` (the receiver driving the fetch) advances to the arrival
  /// time. Used for crash-recovery state pulls, whose payload is copied
  /// directly on the simulated thread rather than through a mailbox.
  void transfer(runtime::Process& self, int src_endpoint, int dst_endpoint,
                std::uint64_t bytes);

  /// Messages queued at `endpoint` (delivered or still in flight) — the
  /// PS-side request-queue-depth probe.
  [[nodiscard]] std::size_t queue_depth(int endpoint) const;

  /// Endpoint display name ("worker3", "ps1"; "ep<id>" when unnamed).
  [[nodiscard]] const std::string& endpoint_name(int endpoint) const;

 private:
  struct Endpoint {
    int machine = 0;
    std::string name;
    runtime::Process* owner = nullptr;
  };

  Endpoint& endpoint(int id);
  const Endpoint& endpoint(int id) const;

  /// Arrival time of the earliest packet queued at `endpoint_id` matching
  /// `tag` (delivered or in flight), or -1 when there is none.
  [[nodiscard]] double earliest_arrival(int endpoint_id, int tag) const;

  runtime::SimEngine& engine_;
  ClusterSpec spec_;
  std::vector<Endpoint> endpoints_;
  Mailboxes mailboxes_;             // per endpoint, same ids
  std::vector<double> tx_busy_;     // per machine
  std::vector<double> rx_busy_;     // per machine
  std::vector<double> bus_busy_;    // per machine (intra-machine transfers)
  TrafficStats stats_;

  /// Shared queue/stat accounting for send() and transfer(): consumes the
  /// busy queues, applies any active link-degradation windows, bumps the
  /// stats and counters, and returns the arrival time.
  double model_transfer(int src_machine, int dst_machine,
                        std::uint64_t wire_bytes, double now);

  /// Records one flow named "<prefix><src>-><dst>" on the trace. The name
  /// is built in a reused buffer and interned, so a known pair costs no
  /// allocation.
  void trace_flow(std::string_view prefix, int src_endpoint, int dst_endpoint,
                  double sent, double arrival);

  // Observability sinks (optional; resolved once in set_metrics).
  metrics::TraceLog* trace_ = nullptr;
  metrics::SpanSink* spans_ = nullptr;
  const faults::FaultPlan* faults_ = nullptr;
  bool msg_faults_on_ = false;
  common::Rng msg_rng_;  // dedicated message-fault stream (set_faults)
  metrics::Counter* ctr_degraded_ = nullptr;
  metrics::Counter* ctr_lost_ = nullptr;
  metrics::Counter* ctr_reordered_ = nullptr;
  std::uint64_t flow_seq_ = 0;
  std::string flow_name_;  // trace_flow's reused name buffer
  metrics::Counter* ctr_bytes_inter_ = nullptr;
  metrics::Counter* ctr_bytes_intra_ = nullptr;
  metrics::Counter* ctr_msgs_inter_ = nullptr;
  metrics::Counter* ctr_msgs_intra_ = nullptr;
  metrics::Gauge* in_flight_ = nullptr;
  std::vector<metrics::Counter*> ctr_tx_busy_;   // per machine
  std::vector<metrics::Counter*> ctr_rx_busy_;   // per machine
  std::vector<metrics::Counter*> ctr_bus_busy_;  // per machine
};

}  // namespace dt::net
