// Centralized distributed training algorithms: BSP, ASP, SSP, DSSP, EASGD
// (paper Section III; DSSP follows Zhao et al. 2019), over the PS
// framework of src/ps.
//
// Wire protocol recap (see core/protocol.hpp): gradient pushes and parameter
// replies are per-slot packets; each slot is owned by one PS shard
// (layer-wise sharding). Learning-rate convention: packets carry the
// *global* schedule value lr(epoch) = 0.05*N-style; synchronous algorithms
// apply it to the averaged gradient, asynchronous ones apply lr/N to each
// individual gradient so all algorithms target the same effective step.
//
// All five protocols run one worker loop (run_ps_worker) and one shard
// loop (serve_ps_shard). A protocol is a pair of compile-time policies: a
// worker policy (the crash point, what a push carries and when, the gate
// before a sync, the local step, the Resend kind) and a shard close rule
// (when pushes are applied, who is answered). Both loops are written
// against the PsLink seam below: a plain link (direct Network send/recv)
// or, when Session::reliable_mode() is on, a reliable one
// (net::ReliableTransport, round ids, failover, backup mirroring;
// docs/faults.md).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
#include "core/algo_common.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "core/staleness_policy.hpp"
#include "metrics/metrics.hpp"

namespace dt::core {

namespace {

using metrics::Phase;
using metrics::PhaseTimer;
using net::Packet;

bool use_qsgd(const Session& s) {
  return !use_dgc(s) && s.cfg.opt.qsgd_bits >= 2 &&
         sends_gradients(s.cfg.algo);
}

/// Per-shard PS-side probes, resolved once per shard process.
struct PsProbes {
  metrics::Counter* requests = nullptr;      // ps.requests_total{shard}
  metrics::Counter* bytes_served = nullptr;  // ps.bytes_served_total{shard}
  metrics::Histogram* queue_depth = nullptr;  // ps.queue_depth{shard}
  metrics::Histogram* staleness = nullptr;    // staleness.updates{algo}

  /// `shard` is the shard id; a backup registers as "<k>b" so its
  /// request/byte counts stay distinguishable from the primary's.
  static PsProbes make(Session& s, const std::string& shard) {
    const metrics::Labels shard_labels{{"shard", shard}};
    const metrics::Labels algo_labels{{"algo", algo_name(s.cfg.algo)}};
    return PsProbes{
        &s.registry.counter("ps.requests_total", shard_labels),
        &s.registry.counter("ps.bytes_served_total", shard_labels),
        &s.registry.histogram("ps.queue_depth", shard_labels,
                              metrics::Histogram::count_bounds()),
        &s.registry.histogram("staleness.updates", algo_labels,
                              metrics::Histogram::count_bounds())};
  }

  /// Call right after a recv: counts the request and samples how many
  /// messages are still queued behind it (the PS convoy signal).
  void on_request(Session& s, int ep) const {
    requests->inc();
    queue_depth->observe(static_cast<double>(s.network->queue_depth(ep)));
  }
};

/// Uncontended estimate of a full per-slot push + per-slot reply round
/// between worker `rank` and all PS shards.
double ps_roundtrip_estimate(const Session& s, int rank) {
  double t = 0.0;
  const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
  const double density = use_dgc(s) ? dgc_steady_density(s) * 2.0 : 1.0;
  for (std::size_t slot = 0; slot < s.wl.num_slots(); ++slot) {
    const int pep = s.ps_ep[static_cast<std::size_t>(s.plan.shard_of(slot))];
    const auto push_bytes = static_cast<std::uint64_t>(
        static_cast<double>(s.wl.slot_wire_bytes(slot)) * density);
    t += s.uncontended_time(push_bytes, wep, pep);
    t += s.uncontended_time(s.wl.slot_wire_bytes(slot), pep, wep);
  }
  return t;
}

// ---- PsLink: the worker <-> shard seam ------------------------------------
//
// The plain link is a direct Network send/recv. The reliable link (message
// faults and/or replicate_ps; see docs/faults.md) carries every PS exchange
// over net::ReliableTransport: requests carry the worker's round id
// (Packet.d) so a shard applies each (rank, slot) push exactly once across
// retransmission and failover, replies echo it so the worker drops stale
// rounds and duplicates, and with replicate_ps each shard has a backup
// ("ps<k>b") that mirrors the primary's applies and serves the workers once
// the primary fail-stops. PsWorkerLink is the worker end (push, pull,
// await-replies), PsShardLink the shard end (serve loop, reply, mirror).

/// What a worker re-sends to the promoted backup of a shard whose replies
/// are still missing when its primary died.
enum class Resend {
  round,       // every request of the round to that shard (BSP, EASGD)
  unanswered,  // the round's requests still missing a reply (ASP)
  pull,        // a fresh pull (SSP/DSSP pull rounds, crash recovery)
};

/// Worker end of the link: push, pull and await-replies.
class PsWorkerLink {
 public:
  /// Binds worker `rank`'s endpoint to `self`.
  PsWorkerLink(Session& s, runtime::Process& self, int rank)
      : s_(s),
        self_(self),
        rank_(rank),
        ep_(s.worker_ep[static_cast<std::size_t>(rank)]),
        reliable_(s.reliable_mode()) {
    s.network->bind(ep_, self);
    if (reliable_) sent_.resize(s.wl.num_slots());
  }

  [[nodiscard]] bool reliable() const noexcept { return reliable_; }
  [[nodiscard]] int ep() const noexcept { return ep_; }

  /// Opens exchange round `id`, the round id the reliable link stamps on
  /// this round's requests. `local_step_ok` (ASP's bounded degradation): a
  /// shard whose primary just died and that nobody promoted yet may be
  /// degraded around — push() and await() then give up and return false
  /// instead of blocking.
  void begin_round(std::int64_t id, bool local_step_ok = false) {
    round_ = id;
    local_step_ok_ = local_step_ok;
    degraded_ = false;
  }

  /// Sends `slot`'s request of this round to the slot's shard. The reliable
  /// link keeps the packet as built: a failover re-push resends it and never
  /// rebuilds it, which would re-run DGC's residual update or QSGD's RNG
  /// draw. Returns false when the round degraded.
  bool push(std::size_t slot, Packet pkt) {
    if (reliable_) {
      pkt.d = round_;
      sent_[slot] = pkt;
    }
    return send(s_.plan.shard_of(slot), std::move(pkt));
  }

  /// Sends `shard` a control message `tag` from this rank: kTagPull asks
  /// for the current parameters of every slot the shard owns.
  void control(int shard, int tag) {
    Packet pkt;
    pkt.tag = tag;
    pkt.a = rank_;
    pkt.wire_bytes = net::kControlBytes;
    send(shard, std::move(pkt));
  }

  void pull(int shard) { control(shard, kTagPull); }

  /// Collects one kTagParams reply per slot, loading each into the replica
  /// (functional mode) and storing the PS update clock it carries
  /// (Packet.c) in `basis`, so the next push is stamped with the version it
  /// builds on. Replies from `grant_shard` carry a DSSP staleness-bound
  /// grant in Packet.x; the last one received is stored in `*grant`. The
  /// reliable link drops stale rounds and duplicates; when the wait times
  /// out on a shard whose primary is down it fails over and re-sends per
  /// `resend`, once per shard. Returns false when the round degraded.
  bool await(std::vector<std::int64_t>& basis, Resend resend,
             int grant_shard = -1, int* grant = nullptr) {
    const std::size_t n = s_.wl.num_slots();
    if (!reliable_) {
      for (std::size_t i = 0; i < n; ++i) {
        accept(s_.network->recv(self_, ep_, kTagParams), basis, grant_shard,
               grant);
      }
      return true;
    }
    if (degraded_) return false;
    got_.assign(n, 0);
    repushed_.assign(static_cast<std::size_t>(s_.num_shards()), 0);
    std::size_t remaining = n;
    const double poll = s_.reliable->config().max_timeout;
    while (remaining > 0) {
      const std::optional<Packet> pkt = s_.reliable->recv_until(
          self_, ep_, kTagParams, self_.now() + poll);
      if (!pkt.has_value()) {
        for (std::size_t slot = 0; slot < n; ++slot) {
          if (got_[slot] != 0) continue;
          const int shard = s_.plan.shard_of(slot);
          if (may_degrade(shard)) return false;
          char& repushed = repushed_[static_cast<std::size_t>(shard)];
          if (repushed != 0 || !s_.ps_primary_down(shard)) continue;
          s_.fail_over(self_, shard);
          repushed = 1;
          resend_to(shard, resend);
        }
        continue;
      }
      const auto slot = static_cast<std::size_t>(pkt->b);
      if (pkt->d != round_ || got_[slot] != 0) continue;  // stale/duplicate
      got_[slot] = 1;
      --remaining;
      accept(*pkt, basis, grant_shard, grant);
    }
    return true;
  }

 private:
  [[nodiscard]] bool may_degrade(int shard) const {
    return local_step_ok_ && s_.ps_primary_down(shard) &&
           !s_.ps_failed_over(shard);
  }

  /// Sends `pkt` to `shard`. The reliable link stamps the round id and
  /// sends to the shard's current route, failing over to the backup when
  /// the primary is (observably) down. Retries to an unchanged destination
  /// reuse the sequence number; a failover reroute starts a fresh one.
  bool send(int shard, Packet pkt) {
    if (!reliable_) {
      s_.network->send(self_, ep_, s_.ps_ep[static_cast<std::size_t>(shard)],
                       std::move(pkt));
      return true;
    }
    pkt.d = round_;
    std::int64_t seq = -1;
    int route = s_.ps_route(shard);
    for (;;) {
      try {
        s_.reliable->send(self_, ep_, route, pkt, &seq);
        return true;
      } catch (const net::TimeoutError&) {
        if (may_degrade(shard)) {
          degraded_ = true;
          return false;
        }
        if (s_.ps_primary_down(shard)) {
          s_.fail_over(self_, shard);
          const int next = s_.ps_route(shard);
          if (next != route) {
            route = next;
            seq = -1;
          }
        }
      }
    }
  }

  void resend_to(int shard, Resend resend) {
    if (resend == Resend::pull) {
      pull(shard);
      return;
    }
    for (std::size_t slot = 0; slot < sent_.size(); ++slot) {
      if (s_.plan.shard_of(slot) == shard &&
          (resend == Resend::round || got_[slot] == 0)) {
        send(shard, sent_[slot]);
      }
    }
  }

  void accept(const Packet& pkt, std::vector<std::int64_t>& basis,
              int grant_shard, int* grant) {
    const auto slot = static_cast<std::size_t>(pkt.b);
    basis[slot] = pkt.c;
    if (grant != nullptr && static_cast<int>(pkt.a) == grant_shard) {
      *grant = static_cast<int>(std::llround(pkt.x));
    }
    if (s_.wl.functional()) s_.wl.set_param_slot(rank_, slot, pkt.tensor(0));
  }

  Session& s_;
  runtime::Process& self_;
  const int rank_;
  const int ep_;
  const bool reliable_;
  std::int64_t round_ = 0;
  bool local_step_ok_ = false;
  bool degraded_ = false;
  std::vector<Packet> sent_;  // reliable: this round's request per slot
  std::vector<char> got_;      // reliable: slot answered this round
  std::vector<char> repushed_;  // reliable: shard re-sent this round
};

/// Shard end of the link: the serve loop, the reply and the mirror. One per
/// shard process — the primary and, with replicate_ps, its backup.
struct PsShardLink {
  Session& s;
  runtime::Process& self;
  const int shard;
  const bool backup;
  const bool reliable;
  const int ep;
  const int mirror_ep;    // the backup, when this is a replicated primary
  ps::ShardState& st;     // the state this endpoint serves
  const PsProbes probes;  // labeled "<k>", a backup's "<k>b"
  bool draining = false;  // a dead primary applying what it acked
  /// Reliable: round id of each rank's last applied push, per local slot.
  std::vector<std::vector<std::int64_t>> last_id;

  PsShardLink(Session& session, runtime::Process& proc, int k, bool is_backup)
      : s(session),
        self(proc),
        shard(k),
        backup(is_backup),
        reliable(session.reliable_mode()),
        ep(is_backup ? session.ps_backup_ep[static_cast<std::size_t>(k)]
                     : session.ps_ep[static_cast<std::size_t>(k)]),
        mirror_ep(!is_backup && session.has_backups()
                      ? session.ps_backup_ep[static_cast<std::size_t>(k)]
                      : -1),
        st(is_backup ? *session.backup_shards[static_cast<std::size_t>(k)]
                     : *session.shards[static_cast<std::size_t>(k)]),
        probes(PsProbes::make(session,
                              std::to_string(k) + (is_backup ? "b" : ""))) {
    if (reliable) {
      last_id.assign(static_cast<std::size_t>(s.cfg.num_workers),
                     std::vector<std::int64_t>(st.num_local(), -1));
    }
  }

  /// True for the backup's copy of a push its primary applied: applied here
  /// too (that keeps the replicas identical), but never answered.
  [[nodiscard]] bool from_mirror(const Packet& pkt) const {
    return backup && pkt.src_endpoint == s.ps_ep[static_cast<std::size_t>(shard)];
  }

  /// Exactly-once filter: false for a push whose (rank, slot) round id was
  /// already applied here — a retransmission or a failover re-push. The
  /// plain link delivers every push once.
  bool first_delivery(const Packet& pkt) {
    if (!reliable) return true;
    std::int64_t& last = last_id[static_cast<std::size_t>(pkt.a)]
                                [st.local_index(static_cast<std::size_t>(pkt.b))];
    if (pkt.d <= last) return false;
    last = pkt.d;
    return true;
  }

  /// Incarnation filter, deliberately *instantaneous* (not the lagged
  /// view): a push in flight when its sender crashed is stale, but a
  /// rebooted sender's new push must never be discarded while its
  /// readmission is still pending. True (and counted) for a push from a
  /// crashed incarnation: discard it and send no reply — the rank re-syncs
  /// with a pull on rejoin.
  bool from_crashed_incarnation(const Packet& pkt) const {
    if (!s.fault_plan.has_crashes() ||
        !s.rank_down(static_cast<int>(pkt.a), self.now())) {
      return false;
    }
    if (s.fprobes.dropped_pushes != nullptr) s.fprobes.dropped_pushes->inc();
    return true;
  }

  /// Adds a gradient push to its slot's round sum. The plain link sums in
  /// arrival order. The reliable link stages each rank's push in its own
  /// buffer and sums in rank order, so a failover duplicate overwrites its
  /// stage instead of adding twice, and a failover run's parameters match
  /// a no-crash run of the same replicated config bit for bit.
  void add_to_round(std::size_t local, const Packet& pkt) {
    if (reliable) {
      st.stage_dense(local, static_cast<int>(pkt.a), pkt.tensor(0).data());
    } else if (pkt.tag == kTagGrad) {
      st.accumulate_dense(local, pkt.tensor(0).data());
    } else {
      st.accumulate_sparse(local, pkt.sparse_indices(0), pkt.sparse_values(0));
    }
  }

  tensor::Tensor take_round_sum(std::size_t local) {
    return reliable ? st.take_staged_sum(local) : st.take_accumulated(local);
  }

  /// Reliable send from this endpoint. A retransmit-budget timeout under
  /// extreme loss is retried with the same sequence number, so the
  /// receiver never sees a gap: forever to the backup, which never dies or
  /// exits, and to worker `rank` until it has departed. A departed worker
  /// can never ack (its fiber has returned), and a reply it no longer waits
  /// for is safe to drop. Without this bound a shard whose last ack from a
  /// finishing worker is lost retransmits forever — and while blocked it
  /// only acks-and-buffers other workers' pushes, never serving them, so
  /// one fast worker's exit can wedge the whole shard (and every straggler
  /// still polling it).
  void send_reliably(int dst_ep, const Packet& pkt, int rank = -1) {
    std::int64_t seq = -1;
    for (;;) {
      try {
        s.reliable->send(self, ep, dst_ep, pkt, &seq);
        return;
      } catch (const net::TimeoutError&) {
        if (rank >= 0 && s.member_departed(rank, self.now())) return;
      }
    }
  }

  /// Forwards an applied push to the backup (replicated primaries only).
  void mirror(const Packet& pkt) {
    if (mirror_ep >= 0) send_reliably(mirror_ep, pkt);
  }

  /// Replies to worker `rank` with parameters of `slot` (Packet.c = this
  /// endpoint's update clock; over the reliable link Packet.d = `round`,
  /// the round id of the request answered) and counts the bytes served —
  /// unless this is a dead primary draining, whose backup answers instead.
  /// The parameters are `*payload` when that is set (EASGD's elastic
  /// reply), else this endpoint's. When the same (shard, slot) reply fans
  /// out to many ranks in one round, pass a null `payload`: the first call
  /// snapshots the parameter tensor into it and every later call reuses the
  /// handle, so the broadcast allocates the model slot once instead of once
  /// per rank. Safe because only the shard's own process mutates its
  /// parameters, so the snapshot cannot change while the reply loop yields
  /// in send(). `grant` (DSSP only): the staleness bound granted to the
  /// pulling worker, carried in Packet.x — the lr/weight field is unused on
  /// kTagParams.
  void reply_params(std::size_t slot, int rank, std::int64_t round,
                    net::PayloadHandle* payload = nullptr,
                    double grant = 0.0) {
    if (draining) return;
    Packet out;
    out.tag = kTagParams;
    out.a = shard;
    out.b = static_cast<std::int64_t>(slot);
    out.c = st.version(st.local_index(slot));
    if (reliable) out.d = round;
    out.x = grant;
    out.wire_bytes = s.wl.slot_wire_bytes(slot);
    if (s.wl.functional()) {
      if (payload != nullptr && *payload != nullptr) {
        out.payload = *payload;
      } else {
        out.emplace_payload().tensors.push_back(
            st.param(st.local_index(slot)));
        if (payload != nullptr) *payload = out.payload;
      }
    }
    probes.bytes_served->inc(static_cast<double>(out.wire_bytes));
    const int dst_ep = s.worker_ep[static_cast<std::size_t>(rank)];
    if (reliable) {
      send_reliably(dst_ep, out, rank);
    } else {
      s.network->send(self, ep, dst_ep, std::move(out));
    }
  }

  /// Serves this endpoint, passing every request to `handle`: for the whole
  /// run, or until the scheduled fail-stop of a replicated primary. On
  /// death the endpoint goes deaf (new data is never acked again — that
  /// silence is what senders detect), but everything the transport already
  /// acked is first drained through `handle` with replies suppressed: an
  /// acked push must still be applied and mirrored, or acked updates would
  /// vanish with the primary.
  template <class Handle>
  void serve(Handle&& handle) {
    s.network->bind(ep, self);
    const faults::PsCrash* crash =
        reliable && !backup ? s.fault_plan.ps_crash_of(shard) : nullptr;
    for (;;) {
      Packet pkt;
      if (!reliable) {
        pkt = s.network->recv(self, ep);
      } else if (crash == nullptr) {
        pkt = s.reliable->recv(self, ep);
      } else {
        if (self.now() >= crash->at) break;
        std::optional<Packet> got =
            s.reliable->recv_until(self, ep, net::kAnyTag, crash->at);
        if (!got.has_value()) break;
        pkt = std::move(*got);
      }
      probes.on_request(s, ep);
      handle(pkt);
    }
    s.mark_ps_down(self, shard);
    s.reliable->set_deaf(ep);
    draining = true;
    for (Packet& pkt : s.reliable->drain_ready(ep)) {
      probes.on_request(s, ep);
      handle(pkt);
    }
  }
};

// ======================== The worker loop ==================================
//
// Every PS protocol runs one worker loop, run_ps_worker, over a worker
// policy that makes only the protocol's decisions (the PSGD master's split:
// one loop, a different wait condition per mode). PsWorker holds the
// worker's state and the defaults; each policy derives from it and hides
// what differs:
//   - kCrashAfterPush, the crash point: by default the top of an
//     iteration, with nothing in flight (BSP, EASGD); ASP and SSP/DSSP
//     crash after their pushes, which the shards then discard;
//   - kStreams, kSlotOrder, backprop() and packet(): what a push carries
//     and when it goes out — gradients streamed from backprop over the
//     plain link (ASP, SSP/DSSP), gradients after backprop (BSP), or
//     EASGD's parameters every τ;
//   - pushes() and syncs(): whether this iteration pushes and waits for
//     the PS (always, within the SSP/DSSP staleness bound, every τ), and
//     skip_sync(), what it does instead;
//   - kResend, which also says how the worker syncs: a protocol whose
//     pushes go unanswered (Resend::pull) pulls;
//   - the local step and its scale: lr/N for SSP within the bound and for
//     ASP's degraded rounds, the full lr for EASGD's every iteration.

struct PsWorker {
  static constexpr bool kCrashAfterPush = false;
  /// Over the plain link, pushes stream out of the backward pass; the
  /// reliable link's acked sends would serialize it, so they follow it.
  static constexpr bool kStreams = false;
  /// Gradients go out in backprop order (slot n-1 first), parameters in
  /// slot order.
  static constexpr bool kSlotOrder = false;
  static constexpr Resend kResend = Resend::round;

  Session& s;
  runtime::Process& self;
  const int rank;
  PsWorkerLink link;
  metrics::WorkerMetrics& wm;
  common::Rng rng;
  std::unique_ptr<compress::DgcCompressor> dgc;
  CurveRecorder curve;
  const SyncProbes sync;
  std::vector<std::int64_t> basis;  // PS update clock each slot builds on
  const float inv_n;
  int controller = -1;  // DSSP: the shard that grants bounds (and rejoins)
  int grant = 0;        // the last grant on its replies
  int local_step_budget = 0;  // ASP: degraded rounds allowed in a row
  int local_streak = 0;

  PsWorker(Session& session, runtime::Process& proc, int r)
      : s(session),
        self(proc),
        rank(r),
        link(session, proc, r),
        wm(session.wmetrics[static_cast<std::size_t>(r)]),
        rng(session.worker_rng(r)),
        dgc(make_dgc(session)),
        curve(session, r),
        sync(SyncProbes::make(session)),
        basis(session.wl.num_slots(), 0),
        inv_n(1.0f / static_cast<float>(session.cfg.num_workers)) {}

  template <class OnSlot = NoSlotCallback>
  double compute(OnSlot* on_slot_ready = nullptr) {
    return compute_iteration(s, self, rank, rng, wm, on_slot_ready);
  }

  /// A per-slot packet from this rank. In functional mode it carries the
  /// replica's `slot` of `part` (&Workload::grad_slot or param_slot).
  [[nodiscard]] Packet slot_packet(
      int tag, std::size_t slot,
      const tensor::Tensor& (Workload::*part)(int, std::size_t) const) const {
    Packet pkt;
    pkt.tag = tag;
    pkt.a = rank;
    pkt.b = static_cast<std::int64_t>(slot);
    pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
    if (part != nullptr && s.wl.functional()) {
      pkt.emplace_payload().tensors.push_back((s.wl.*part)(rank, slot));
    }
    return pkt;
  }

  /// SGD step of the replica on its own gradients (functional mode).
  void local_step(float lr) {
    if (s.wl.functional()) {
      s.wl.apply_gradients(rank, s.wl.gradients(rank), lr);
    }
  }

  double backprop(double /*lr*/) { return compute(); }

  /// Builds one slot's gradient packet (dense, DGC-sparse, or
  /// QSGD-quantized — the latter travels as a dense tensor carrying the
  /// quantization error, with the compressed wire size), stamped with the
  /// PS update clock the gradient was computed against (staleness probe;
  /// see ps/shard_state.hpp) and the global lr.
  Packet packet(std::size_t slot, double epoch, double lr) {
    const bool dense = !use_dgc(s) && !use_qsgd(s);
    Packet pkt = slot_packet(use_dgc(s) ? kTagSparseGrad : kTagGrad, slot,
                             dense ? &Workload::grad_slot : nullptr);
    pkt.c = basis[slot];
    pkt.x = lr;
    if (use_qsgd(s)) {
      pkt.wire_bytes = compress::qsgd_wire_bytes(s.wl.slot_wire_bytes(slot),
                                                 s.cfg.opt.qsgd_bits);
      if (s.wl.functional()) {
        compress::QsgdConfig qcfg{.bits = s.cfg.opt.qsgd_bits};
        const auto& grad = s.wl.grad_slot(rank, slot);
        compress::QuantizedSlot q = compress::quantize(grad.data(), qcfg, rng);
        tensor::Tensor restored(grad.shape());
        q.dequantize(restored.data());
        pkt.emplace_payload().tensors.push_back(std::move(restored));
      }
    } else if (dgc != nullptr) {
      auto sparse =
          dgc->compress(slot, s.wl.grad_slot(rank, slot).data(), epoch);
      pkt.wire_bytes = sparse.wire_bytes();
      auto& pl = pkt.emplace_payload();
      pl.sparse_indices.push_back(std::move(sparse.indices));
      pl.sparse_values.push_back(std::move(sparse.values));
    } else if (use_dgc(s)) {
      const double bytes = static_cast<double>(s.wl.slot_wire_bytes(slot)) *
                           dgc_steady_density(s) * 2.0;
      pkt.wire_bytes =
          std::max<std::uint64_t>(8, static_cast<std::uint64_t>(bytes));
    }
    return pkt;
  }

  [[nodiscard]] bool pushes(std::int64_t /*it*/) const { return true; }
  bool syncs(std::int64_t /*it*/) { return true; }
  void skip_sync(double /*lr*/) {}
  void on_synced() {}
  void on_rejoin() {}
  /// Only the reliable link needs the departure (a shard stops retrying
  /// replies to a finished rank); with membership on it publishes a view,
  /// which plain runs never did.
  void depart() {
    if (link.reliable()) s.mark_finished(rank, self.now());
  }
};

template <class Worker>
void run_ps_worker(Session& s, runtime::Process& self, int rank) {
  Worker w(s, self, rank);
  const std::size_t n_slots = s.wl.num_slots();
  const std::int64_t iters = s.iterations_per_worker();
  CrashCheckpoint ck = CrashCheckpoint::make(s);
  const double roundtrip = ps_roundtrip_estimate(s, rank);
  // Post-reboot recovery against the PS: discard the dead incarnation's
  // mailbox (stale parameter replies), then either restore the last local
  // checkpoint or pull fresh parameters from every shard. Either way the
  // worker resumes with a coherent replica and a fresh staleness basis. A
  // DSSP worker first sends the controller a fire-and-forget kTagRejoin
  // note that restarts its push-rate window, so the first post-rejoin grant
  // already sees the fresh window. Worker crashes never meet the reliable
  // link (Session::validate_reliability).
  const auto take_due_crash = [&] {
    if (!s.fault_plan.has_crashes() || !s.crash_pending(rank, self.now())) {
      return false;
    }
    s.take_crash(self, rank);
    s.network->drain(w.link.ep());
    if (w.controller >= 0) w.link.control(w.controller, kTagRejoin);
    if (!ck.restore(s, self, rank)) {
      for (int shard = 0; shard < s.num_shards(); ++shard) w.link.pull(shard);
      w.link.await(w.basis, Resend::pull);
    }
    w.on_rejoin();
    return true;
  };

  for (std::int64_t it = 0; it < iters; ++it) {
    if (!Worker::kCrashAfterPush) take_due_crash();
    const double epoch = s.epoch_of(it);
    const double lr = s.lr_at(epoch);
    w.link.begin_round(it, w.local_streak < w.local_step_budget);
    const auto push = [&](std::size_t slot) {
      return w.link.push(slot, w.packet(slot, epoch, lr));
    };
    const bool stream = Worker::kStreams && !w.link.reliable();
    const double loss = stream ? w.compute(&push) : w.backprop(lr);
    double t0 = self.now();
    if (!stream && w.pushes(it)) {
      for (std::size_t i = 0; i < n_slots; ++i) {
        if (!push(Worker::kSlotOrder ? i : n_slots - 1 - i)) break;
      }
    }
    if (Worker::kCrashAfterPush && take_due_crash()) {
      // The shards discard this iteration's pushes (no replies are owed);
      // the recovery re-synced the replica instead.
    } else if (!w.syncs(it)) {
      w.skip_sync(lr);
    } else {
      if (Worker::kResend == Resend::pull) {
        t0 = self.now();
        for (int shard = 0; shard < s.num_shards(); ++shard) {
          w.link.pull(shard);
        }
      }
      if (w.link.await(w.basis, Worker::kResend, w.controller, &w.grant)) {
        w.local_streak = 0;
        account_window(self, w.wm, t0, roundtrip, w.sync);
        w.on_synced();
      } else {
        // Bounded graceful degradation: local SGD step, no sync. Stale
        // replies of this round are dropped by round id later.
        w.local_step(static_cast<float>(lr) * w.inv_n);
        ++w.local_streak;
        if (s.fprobes.local_steps != nullptr) s.fprobes.local_steps->inc();
      }
    }
    w.wm.count_iteration(s.wl.batch_size());
    w.curve.maybe_record(self, it + 1, loss);
    ck.maybe_snapshot(s, self, rank);
  }
  w.depart();
}

/// Local aggregation (docs/network-model.md): co-located workers send their
/// gradients to the machine leader, which pushes the sum for the whole
/// machine and broadcasts the fresh parameters back. Plain link only: the
/// gather assumes loss-free local links. Not with DGC: summing sparse
/// pushes and compressing again would compress twice. Not with crash
/// plans: a dead leader would orphan its whole machine's round, and the
/// gather counts assume a fixed co-located worker set.
bool local_aggregation(const Session& s) {
  return s.cfg.opt.local_aggregation && !s.reliable_mode() && !use_dgc(s) &&
         s.cfg.cluster.workers_per_machine > 1 && s.cfg.num_workers > 1 &&
         !s.fault_plan.has_crashes();
}

bool drop_mode(const Session& s) {
  return s.fault_plan.has_crashes() &&
         s.fault_plan.sync_policy() == faults::SyncPolicy::drop;
}

/// BSP: every iteration waits for its round to close at the PS. With local
/// aggregation only machine leaders push; the other workers stream their
/// gradients to the leader and wait for its broadcast.
struct BspWorker : PsWorker {
  const bool local_agg = local_aggregation(s);
  const std::vector<int> peers = s.machine_peers(rank);  // incl. this one
  const int leader = s.machine_leader(rank);
  std::vector<net::PayloadHandle> bcast;  // per-slot broadcast snapshots

  using PsWorker::PsWorker;

  double backprop(double /*lr*/) {
    if (!local_agg) return compute();
    if (leader != rank) {
      const auto to_leader = [this](std::size_t slot) {
        s.network->send(self, link.ep(),
                        s.worker_ep[static_cast<std::size_t>(leader)],
                        slot_packet(kTagLocalGrad, slot, &Workload::grad_slot));
      };
      return compute(&to_leader);
    }
    const double loss = compute();
    // The gather is dominated by waiting for the slowest local worker.
    PhaseTimer t(self, wm, Phase::local_agg);
    for (std::size_t i = 0; i < (peers.size() - 1) * s.wl.num_slots(); ++i) {
      Packet pkt = s.network->recv(self, link.ep(), kTagLocalGrad);
      self.advance(s.wl.agg_time(pkt.wire_bytes));
      if (s.wl.functional()) {
        s.wl.accumulate_grad_slot(rank, static_cast<std::size_t>(pkt.b),
                                  pkt.tensor(0));
      }
    }
    return loss;
  }

  [[nodiscard]] bool pushes(std::int64_t /*it*/) const {
    return !local_agg || leader == rank;
  }
  bool syncs(std::int64_t it) { return pushes(it); }

  /// Not a pusher: wait for the leader's broadcast.
  void skip_sync(double /*lr*/) {
    PhaseTimer t(self, wm, Phase::local_agg);
    for (std::size_t i = 0; i < s.wl.num_slots(); ++i) {
      Packet pkt = s.network->recv(self, link.ep(), kTagLocalParams);
      if (s.wl.functional()) {
        s.wl.set_param_slot(rank, static_cast<std::size_t>(pkt.b),
                            pkt.tensor(0));
      }
    }
  }

  /// The leader broadcasts the fresh parameters to its machine. They don't
  /// change while this double loop yields in send(), so the first peer's
  /// snapshot of a slot serves every peer.
  void on_synced() {
    if (!local_agg || peers.size() <= 1) return;
    PhaseTimer t(self, wm, Phase::local_agg);
    bcast.assign(s.wl.num_slots(), nullptr);
    for (int peer : peers) {
      if (peer == rank) continue;
      for (std::size_t slot = 0; slot < s.wl.num_slots(); ++slot) {
        Packet pkt = slot_packet(kTagLocalParams, slot, nullptr);
        if (s.wl.functional()) {
          if (bcast[slot] == nullptr) {
            auto fresh = std::make_shared<net::Payload>();
            fresh->tensors.push_back(s.wl.param_slot(rank, slot));
            bcast[slot] = std::move(fresh);
          }
          pkt.payload = bcast[slot];
        }
        s.network->send(self, link.ep(),
                        s.worker_ep[static_cast<std::size_t>(peer)],
                        std::move(pkt));
      }
    }
    bcast.clear();  // drop the snapshots, keep the storage
  }

  /// A finished worker has left the cluster: drop-mode rounds close
  /// without it. Without the detector nothing publishes that, so the
  /// worker itself sends every shard a note to re-check its open rounds —
  /// unless it is the last to finish, when no round is left to close.
  void depart() {
    s.mark_finished(rank, self.now());
    if (!drop_mode(s) || s.membership_engaged()) return;
    bool peer_running = false;
    for (int r = 0; r < s.cfg.num_workers; ++r) {
      peer_running = peer_running || !s.rank_finished(r);
    }
    if (!peer_running) return;
    for (int shard = 0; shard < s.num_shards(); ++shard) {
      link.control(shard, kTagViewChange);
    }
  }
};

/// ASP: every push is answered. Over the reliable link up to
/// `local_step_budget` rounds in a row may degrade to a local step around
/// a dead, not yet promoted primary.
struct AspWorker : PsWorker {
  static constexpr bool kCrashAfterPush = true;
  static constexpr bool kStreams = true;
  static constexpr Resend kResend = Resend::unanswered;

  AspWorker(Session& session, runtime::Process& proc, int r)
      : PsWorker(session, proc, r) {
    local_step_budget = s.cfg.reliability.local_step_budget;
  }
};

/// The DSSP controller shard: the owner of slot 0, which therefore sees
/// exactly one slot-0 gradient per completed worker iteration.
int dssp_controller(const Session& s) { return s.plan.shard_of(0); }

/// SSP/DSSP: pushes get no reply (the reliable link's ack is their
/// delivery guarantee). A worker at most `bound` iterations past its last
/// sync steps locally; the iteration past the bound pulls. Static SSP
/// holds every worker to the configured s; DSSP starts at s_min and takes
/// each new bound from the grant on the controller shard's replies.
struct SspWorker : PsWorker {
  static constexpr bool kCrashAfterPush = true;
  static constexpr bool kStreams = true;
  static constexpr Resend kResend = Resend::pull;
  metrics::Histogram& local_staleness = s.registry.histogram(
      "ssp.local_staleness", {{"worker", std::to_string(rank)}},
      metrics::Histogram::count_bounds());
  metrics::Histogram* bound_h = nullptr;  // DSSP only
  int bound = s.cfg.ssp_staleness;
  int staleness = 0;  // iterations since the last sync

  SspWorker(Session& session, runtime::Process& proc, int r)
      : PsWorker(session, proc, r) {
    if (s.cfg.algo != Algo::dssp) return;
    controller = dssp_controller(s);
    bound_h = &s.registry.histogram("dssp.bound",
                                    {{"worker", std::to_string(rank)}},
                                    metrics::Histogram::count_bounds());
    set_bound(s.cfg.dssp_s_min);
  }

  /// The recovery pull counts as the global sync; a DSSP rejoiner also
  /// restarts from the conservative s_min grant.
  void on_rejoin() {
    staleness = 0;
    if (bound_h != nullptr) set_bound(s.cfg.dssp_s_min);
  }

  /// With the at-most-s-ahead bound (<=) the observed local staleness runs
  /// 0..s+1: s+1 flags the iteration that triggers the sync.
  bool syncs(std::int64_t /*it*/) {
    local_staleness.observe(static_cast<double>(staleness));
    grant = bound;
    return staleness > bound;
  }

  void skip_sync(double lr) {
    ++staleness;
    local_step(static_cast<float>(lr) * inv_n);
  }

  void on_synced() {
    staleness = 0;
    if (bound_h != nullptr) {
      set_bound(std::clamp(grant, s.cfg.dssp_s_min, s.cfg.dssp_s_max));
    }
  }

  void set_bound(int b) {
    bound = b;
    bound_h->observe(static_cast<double>(bound));
  }
};

/// EASGD: every iteration takes a full-lr local step; every τ-th sends the
/// replica's parameters for an elastic exchange with the center.
struct EasgdWorker : PsWorker {
  static constexpr bool kSlotOrder = true;
  metrics::Counter& rounds = s.registry.counter(
      "easgd.rounds_total", {{"worker", std::to_string(rank)}});

  using PsWorker::PsWorker;

  double backprop(double lr) {
    const double loss = compute();
    local_step(static_cast<float>(lr));
    return loss;
  }

  Packet packet(std::size_t slot, double /*epoch*/, double /*lr*/) {
    Packet pkt = slot_packet(kTagEasgdPush, slot, &Workload::param_slot);
    pkt.c = basis[slot];
    return pkt;
  }

  [[nodiscard]] bool pushes(std::int64_t it) const {
    return (it + 1) % s.cfg.easgd_tau == 0;
  }
  bool syncs(std::int64_t it) { return pushes(it); }
  void on_synced() { rounds.inc(); }
};

// ======================== The shard loop ===================================
//
// Every PS protocol runs one shard loop over a close rule that decides
// when a slot's pushes are applied and who is answered: on_push() (a first
// delivery, after the mirror), answer_duplicate() (a re-push of an applied
// push) and recheck() (a pull or a view change may let a waiting round
// close). RoundClose (BSP) closes a slot's round once every live pusher
// contributed; ApplyEach (ASP, SSP/DSSP) and ElasticExchange (EASGD) close
// each push.

/// DSSP's staleness policy, hosted on the controller shard (nullptr for
/// every other shard and protocol). Grants ride back on the controller's
/// kTagParams replies (Packet.x), so adaptation adds zero extra messages.
/// Under replication each endpoint of the controller shard keeps its *own*
/// policy fed by the pushes it observes (the backup's by the primary's
/// mirrors), so after a failover the backup grants from its own complete
/// rate window instead of starting cold.
std::unique_ptr<StalenessPolicy> dssp_grants(const Session& s, int shard) {
  if (s.cfg.algo != Algo::dssp || shard != dssp_controller(s)) return nullptr;
  return std::make_unique<StalenessPolicy>(
      DsspConfig{s.cfg.dssp_s_min, s.cfg.dssp_s_max, s.cfg.dssp_window_s},
      s.cfg.num_workers);
}

template <class Rule>
void serve_ps_shard(Session& s, PsShardLink& link, Rule& rule) {
  ps::ShardState& st = link.st;
  const std::unique_ptr<StalenessPolicy> grants = dssp_grants(s, link.shard);
  link.serve([&](Packet& pkt) {
    const auto rank = static_cast<int>(pkt.a);
    if (pkt.tag == kTagRejoin) {
      // A rebooted rank's push-rate window restarts, so its pre-crash speed
      // does not color its first grants.
      if (grants != nullptr) grants->on_rejoin(rank);
      return;
    }
    if (pkt.tag == kTagPull) {
      // An idempotent read (the worker drops duplicate replies), answered
      // by the backup once this primary is draining.
      if (link.draining) return;
      const double grant =
          grants != nullptr
              ? static_cast<double>(grants->grant(rank, link.self.now()))
              : 0.0;
      for (std::size_t slot : st.slots()) {
        link.reply_params(slot, rank, pkt.d, nullptr, grant);
      }
      rule.recheck();  // rounds that were waiting on the rebooted rank
      return;
    }
    if (pkt.tag == kTagViewChange) {
      rule.recheck();  // the view lost a member
      return;
    }
    common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad ||
                      pkt.tag == kTagEasgdPush,
                  "PS shard: unexpected tag");
    if (Rule::kDiscardsCrashedPushes && link.from_crashed_incarnation(pkt)) {
      return;
    }
    const auto slot = static_cast<std::size_t>(pkt.b);
    const std::size_t local = st.local_index(slot);
    const bool mirrored = link.from_mirror(pkt);
    if (!link.first_delivery(pkt)) {
      // A failover re-push of a push already applied here (possibly by the
      // dead primary, which mirrored it): only its reply may be missing.
      if (!mirrored) rule.answer_duplicate(slot, rank, pkt.d);
      return;
    }
    // Every update applied since the worker's last sync of this slot makes
    // its push one step staler: the staleness distribution.
    if (!mirrored) {
      link.probes.staleness->observe(
          static_cast<double>(st.version(local) - pkt.c));
    }
    if (grants != nullptr && slot == 0) grants->on_push(rank, link.self.now());
    link.self.advance(s.wl.agg_time(pkt.wire_bytes));
    link.mirror(pkt);
    rule.on_push(slot, local, pkt, mirrored);
  });
}

/// BSP's close rule. Over the plain link the sum runs in arrival order and
/// every pusher gets the reply; over the reliable link it runs in rank
/// order (PsShardLink::add_to_round), the round closes once every rank's
/// round id reached it, and the ranks that contacted this endpoint
/// directly (not via the mirror) get the replies. BSP applies round t only
/// after every round-t push arrived, so every gradient meets the exact
/// version it was computed on.
struct RoundClose {
  /// Rounds count pushes; a BSP worker crashes between its rounds.
  static constexpr bool kDiscardsCrashedPushes = false;
  Session& s;
  PsShardLink& link;
  ps::ShardState& st;
  std::vector<int> pusher_ranks;  // the machine leaders with local agg
  // `drop` policy (plain link): a round closes once every *alive* pusher
  // contributed, rescaled by the actual contributor count. Liveness comes
  // from the membership view when the detector is engaged
  // (Session::member_down), else from the instantaneous flags.
  const bool drop;
  std::vector<int> count;  // plain: pushes in the open round
  std::vector<float> lr_latest;
  std::vector<std::int64_t> round;  // open round per slot
  // Reliable: the ranks this endpoint owes the open round's reply.
  std::vector<std::vector<char>> pending;

  RoundClose(Session& session, PsShardLink& l)
      : s(session),
        link(l),
        st(l.st),
        drop(drop_mode(session)),
        count(st.num_local(), 0),
        lr_latest(st.num_local(), 0.0f),
        round(st.num_local(), 0),
        pending(st.num_local(),
                std::vector<char>(l.reliable ? session.cfg.num_workers : 0)) {
    const bool local_agg = local_aggregation(s);
    for (int r = 0; r < s.cfg.num_workers; ++r) {
      if (!local_agg || s.machine_leader(r) == r) pusher_ranks.push_back(r);
    }
  }

  void on_push(std::size_t slot, std::size_t local, const Packet& pkt,
               bool mirrored) {
    if (s.wl.functional()) link.add_to_round(local, pkt);
    lr_latest[local] = static_cast<float>(pkt.x);
    if (!link.reliable) {
      ++count[local];
    } else if (!mirrored) {
      pending[local][static_cast<std::size_t>(pkt.a)] = 1;
    }
    close_round(slot);
  }

  /// A closed round (possibly closed by the dead primary and mirrored
  /// here) only lost its reply: serve it now. An open round replies at
  /// close.
  void answer_duplicate(std::size_t slot, int rank, std::int64_t id) {
    const std::size_t local = st.local_index(slot);
    if (id < round[local]) {
      link.reply_params(slot, rank, id);
    } else {
      pending[local][static_cast<std::size_t>(rank)] = 1;
    }
  }

  void recheck() {
    if (!drop) return;
    for (std::size_t slot : st.slots()) close_round(slot);
  }

  void close_round(std::size_t slot) {
    const std::size_t local = st.local_index(slot);
    const double now = link.self.now();
    float scale = 1.0f / static_cast<float>(s.cfg.num_workers);
    if (link.reliable) {
      for (const auto& last : link.last_id) {
        if (last[local] < round[local]) return;
      }
    } else {
      int needed = static_cast<int>(pusher_ranks.size());
      if (drop) {
        needed = 0;
        for (int r : pusher_ranks) {
          if (!s.member_down(r, now) && !s.member_departed(r, now)) ++needed;
        }
        needed = std::max(1, needed);
      }
      if (count[local] < needed) return;
      if (drop) scale = 1.0f / static_cast<float>(count[local]);
      count[local] = 0;
    }
    if (s.wl.functional()) {
      const tensor::Tensor sum = link.take_round_sum(local);
      st.apply_dense(local, sum.data(), lr_latest[local], scale);
    } else {
      link.self.advance(s.wl.agg_time(s.wl.slot_wire_bytes(slot)));
    }
    st.bump_version(local);
    const std::int64_t closed = round[local]++;
    net::PayloadHandle reply_payload;  // one snapshot for the fan-out
    if (link.reliable) {
      for (int r = 0; r < s.cfg.num_workers; ++r) {
        char& owed = pending[local][static_cast<std::size_t>(r)];
        if (owed == 0) continue;
        owed = 0;
        link.reply_params(slot, r, closed, &reply_payload);
      }
      return;
    }
    for (int r : pusher_ranks) {
      // Fan-out skips use *instantaneous* liveness, not the lagged view: a
      // rebooted worker may push again before its readmission is
      // published, and skipping its reply here would strand it waiting
      // while the next round waits on it.
      if (drop && (s.rank_down(r, link.self.now()) || s.rank_finished(r))) {
        continue;
      }
      link.reply_params(slot, r, closed, &reply_payload);
    }
  }
};

/// ASP's and SSP/DSSP's close rule: each push is applied on arrival at the
/// lr/N scale. ASP answers it with the slot's parameters (`Answered`);
/// SSP/DSSP workers pull instead.
template <bool Answered>
struct ApplyEach {
  static constexpr bool kDiscardsCrashedPushes = true;
  Session& s;
  PsShardLink& link;

  ApplyEach(Session& session, PsShardLink& l) : s(session), link(l) {}

  void on_push(std::size_t slot, std::size_t local, const Packet& pkt,
               bool mirrored) {
    if (s.wl.functional()) {
      const float lr = static_cast<float>(pkt.x);
      const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);
      if (pkt.tag == kTagGrad) {
        link.st.apply_dense(local, pkt.tensor(0).data(), lr, inv_n);
      } else {
        link.st.apply_sparse(local, pkt.sparse_indices(0),
                             pkt.sparse_values(0), lr, inv_n);
      }
    }
    link.st.bump_version(local);
    if (Answered && !mirrored) {
      link.reply_params(slot, static_cast<int>(pkt.a), pkt.d);
    }
  }

  void answer_duplicate(std::size_t slot, int rank, std::int64_t id) {
    if (Answered) link.reply_params(slot, rank, id);
  }

  void recheck() {}
};

/// EASGD's close rule: each push is an elastic exchange between the
/// worker's parameters and the center, answered with the worker's pulled
/// parameters. A failover re-push of an exchange the dead primary already
/// performed (and mirrored) lost that reply with it, so the worker adopts
/// the current center instead — the documented EASGD failover semantics
/// (docs/faults.md).
struct ElasticExchange {
  static constexpr bool kDiscardsCrashedPushes = true;
  Session& s;
  PsShardLink& link;
  const float alpha;

  ElasticExchange(Session& session, PsShardLink& l)
      : s(session),
        link(l),
        alpha(session.cfg.easgd_alpha > 0.0
                  ? static_cast<float>(session.cfg.easgd_alpha)
                  : static_cast<float>(
                        0.9 / static_cast<double>(session.cfg.easgd_tau))) {}

  void on_push(std::size_t slot, std::size_t local, const Packet& pkt,
               bool mirrored) {
    net::PayloadHandle pulled;  // the worker's side of the exchange
    if (s.wl.functional()) {
      // The exchange mutates the center, so it runs for mirrors too (that
      // is what keeps the replicas bitwise identical).
      auto fresh = std::make_shared<net::Payload>();
      fresh->tensors.push_back(
          link.st.elastic_exchange(local, pkt.tensor(0), alpha));
      pulled = std::move(fresh);
    }
    link.st.bump_version(local);
    if (!mirrored) {
      link.reply_params(slot, static_cast<int>(pkt.a), pkt.d, &pulled);
    }
  }

  void answer_duplicate(std::size_t slot, int rank, std::int64_t id) {
    link.reply_params(slot, rank, id);
  }

  void recheck() {}
};

/// Spawns one daemon per PS shard (with replicate_ps also its backup,
/// "ps<k>b") serving under close rule `Rule`, then the workers under
/// worker policy `Worker`.
template <class Worker, class Rule>
void launch(Session& s) {
  for (int shard = 0; shard < s.num_shards(); ++shard) {
    for (const bool backup : {false, true}) {
      if (backup && !s.has_backups()) continue;
      s.engine.spawn(
          "ps" + std::to_string(shard) + (backup ? "b" : ""),
          [&s, shard, backup](runtime::Process& self) {
            PsShardLink link(s, self, shard, backup);
            Rule rule(s, link);
            serve_ps_shard(s, link, rule);
          },
          /*daemon=*/true);
    }
  }
  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn("worker" + std::to_string(rank),
                   [&s, rank](runtime::Process& self) {
                     run_ps_worker<Worker>(s, self, rank);
                   });
  }
}

}  // namespace

void launch_ps(Session& s) {
  switch (s.cfg.algo) {
    case Algo::bsp: return launch<BspWorker, RoundClose>(s);
    case Algo::asp: return launch<AspWorker, ApplyEach<true>>(s);
    case Algo::ssp:
    case Algo::dssp: return launch<SspWorker, ApplyEach<false>>(s);
    case Algo::easgd: return launch<EasgdWorker, ElasticExchange>(s);
    default: break;
  }
  common::fail("launch_ps: not a parameter-server algorithm");
}

}  // namespace dt::core
