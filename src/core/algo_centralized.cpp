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
// Each protocol has one worker body and one shard handler, written against
// the PsLink seam below: a plain link (direct Network send/recv) or, when
// Session::reliable_mode() is on, a reliable one (net::ReliableTransport,
// round ids, failover, backup mirroring; docs/faults.md).
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

bool use_dgc(const Session& s) {
  return s.cfg.opt.dgc && sends_gradients(s.cfg.algo);
}

bool use_qsgd(const Session& s) {
  return !use_dgc(s) && s.cfg.opt.qsgd_bits >= 2 &&
         sends_gradients(s.cfg.algo);
}

/// DGC density used for wire sizing in cost-only mode (steady state).
double dgc_steady_density(const Session& s) {
  return 1.0 -
         compress::DgcCompressor::sparsity_at(s.cfg.opt.dgc_config, 1e9);
}

std::unique_ptr<compress::DgcCompressor> make_dgc(Session& s) {
  if (!use_dgc(s) || !s.wl.functional()) return nullptr;
  std::vector<std::int64_t> sizes;
  for (std::size_t i = 0; i < s.wl.num_slots(); ++i) {
    sizes.push_back(s.wl.slot_numel(i));
  }
  compress::DgcConfig cfg = s.cfg.opt.dgc_config;
  cfg.num_workers = s.cfg.num_workers;
  cfg.momentum = s.cfg.sgd.momentum;
  return std::make_unique<compress::DgcCompressor>(cfg, std::move(sizes));
}

/// Builds one slot's gradient packet (dense, DGC-sparse, or QSGD-quantized
/// — the latter travels as a dense tensor carrying the quantization error,
/// with the compressed wire size). `basis_version` is the PS update clock
/// the gradient was computed against (staleness probe; see
/// ps/shard_state.hpp).
Packet grad_packet(Session& s, int rank, std::size_t slot, double epoch,
                   double lr_global, std::int64_t basis_version,
                   compress::DgcCompressor* dgc, common::Rng& rng) {
  Packet pkt;
  pkt.a = rank;
  pkt.b = static_cast<std::int64_t>(slot);
  pkt.c = basis_version;
  pkt.x = lr_global;
  if (use_qsgd(s)) {
    pkt.tag = kTagGrad;
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
    return pkt;
  }
  if (use_dgc(s)) {
    pkt.tag = kTagSparseGrad;
    if (dgc != nullptr) {
      auto sparse =
          dgc->compress(slot, s.wl.grad_slot(rank, slot).data(), epoch);
      pkt.wire_bytes = sparse.wire_bytes();
      auto& pl = pkt.emplace_payload();
      pl.sparse_indices.push_back(std::move(sparse.indices));
      pl.sparse_values.push_back(std::move(sparse.values));
    } else {
      const double bytes = static_cast<double>(s.wl.slot_wire_bytes(slot)) *
                           dgc_steady_density(s) * 2.0;
      pkt.wire_bytes =
          std::max<std::uint64_t>(8, static_cast<std::uint64_t>(bytes));
    }
  } else {
    pkt.tag = kTagGrad;
    pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
    if (s.wl.functional()) {
      pkt.emplace_payload().tensors.push_back(s.wl.grad_slot(rank, slot));
    }
  }
  return pkt;
}

/// compute_iteration's default: no per-slot callback.
struct NoSlotCallback {
  void operator()(std::size_t /*slot*/) const {}
};

/// Runs one iteration's forward+backward in virtual time (and functionally
/// when the workload is). `on_slot_ready`, when given, is invoked per slot
/// in backprop (reverse) order — interleaved with the backward advances when
/// wait-free BP is on, otherwise after the full backward. It is passed by
/// pointer to its own type, so the callback is never type-erased.
template <class OnSlot = NoSlotCallback>
double compute_iteration(Session& s, runtime::Process& self, int rank,
                         common::Rng& rng, metrics::WorkerMetrics& wm,
                         OnSlot* on_slot_ready = nullptr) {
  PhaseTimer timer(self, wm, Phase::compute);
  // The forward-time draw must happen on the simulated thread, before the
  // closure is submitted, so the RNG stream order is independent of the
  // compute_threads setting. fault_stretch applies the rank's persistent
  // straggler factor and any transient slowdown windows.
  const double fwd = s.fault_stretch(self, rank, s.wl.forward_time(rng));
  double loss = 0.0;
  if (s.wl.functional()) {
    // Forward+backward touches only worker-`rank` state (its model replica,
    // batch cursor, gradient slots), so the numerics run on the host pool
    // while other processes are scheduled across the modeled forward
    // interval. advance_compute joins the closure before returning, so the
    // gradients exist before any backward slot below is announced.
    self.advance_compute(fwd,
                         [&s, &loss, rank] { loss = s.wl.compute_gradients(rank); });
  } else {
    self.advance(fwd);
  }

  const std::size_t n = s.wl.num_slots();
  if (!s.cfg.opt.wait_free_bp || on_slot_ready == nullptr) {
    self.advance(s.fault_stretch(self, rank, s.wl.backward_time(rng)));
    if (on_slot_ready != nullptr) {
      for (std::size_t i = n; i-- > 0;) (*on_slot_ready)(i);
    }
  } else {
    double nominal = 0.0;
    for (std::size_t i = 0; i < n; ++i) nominal += s.wl.backward_slot_time(i);
    const double total =
        s.fault_stretch(self, rank, s.wl.backward_time(rng));
    const double scale = nominal > 0.0 ? total / nominal : 0.0;
    for (std::size_t i = n; i-- > 0;) {
      self.advance(s.wl.backward_slot_time(i) * scale);
      (*on_slot_ready)(i);
    }
  }
  return loss;
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
    const int shard = s_.plan.shard_of(slot);
    if (!reliable_) {
      s_.network->send(self_, ep_, s_.ps_ep[static_cast<std::size_t>(shard)],
                       std::move(pkt));
      return true;
    }
    pkt.d = round_;
    sent_[slot] = pkt;
    return send(shard, pkt);
  }

  /// Asks `shard` for the current parameters of every slot it owns.
  void pull(int shard) {
    Packet pull;
    pull.tag = kTagPull;
    pull.a = rank_;
    pull.wire_bytes = net::kControlBytes;
    if (!reliable_) {
      s_.network->send(self_, ep_, s_.ps_ep[static_cast<std::size_t>(shard)],
                       std::move(pull));
      return;
    }
    pull.d = round_;
    send(shard, pull);
  }

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

  /// Reliable send to `shard`'s current route, failing over to the backup
  /// when the primary is (observably) down. Retries to an unchanged
  /// destination reuse the sequence number; a failover reroute starts a
  /// fresh one.
  bool send(int shard, const Packet& pkt) {
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

  /// Sends `reply` to worker `rank` and counts its bytes served — unless
  /// this is a dead primary draining, whose backup answers instead.
  void reply(int rank, Packet reply) {
    if (draining) return;
    probes.bytes_served->inc(static_cast<double>(reply.wire_bytes));
    const int dst_ep = s.worker_ep[static_cast<std::size_t>(rank)];
    if (reliable) {
      send_reliably(dst_ep, reply, rank);
    } else {
      s.network->send(self, ep, dst_ep, std::move(reply));
    }
  }

  /// Replies with this endpoint's parameters of `slot` (Packet.c = its
  /// update clock; over the reliable link Packet.d = `round`, the round id
  /// of the request answered). When the same (shard, slot) reply fans out
  /// to many ranks in one round, pass a `payload_cache`: the first call
  /// snapshots the parameter tensor into a shared payload and every later
  /// call reuses the handle, so the broadcast allocates the model slot once
  /// instead of once per rank. Safe because only the shard's own process
  /// mutates its parameters, so the snapshot cannot change while the reply
  /// loop yields in send(). `grant` (DSSP only): the staleness bound
  /// granted to the pulling worker, carried in Packet.x — the lr/weight
  /// field is unused on kTagParams.
  void reply_params(std::size_t slot, int rank, std::int64_t round,
                    net::PayloadHandle* payload_cache = nullptr,
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
      if (payload_cache != nullptr && *payload_cache != nullptr) {
        out.payload = *payload_cache;
      } else {
        out.emplace_payload().tensors.push_back(
            st.param(st.local_index(slot)));
        if (payload_cache != nullptr) *payload_cache = out.payload;
      }
    }
    reply(rank, std::move(out));
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

/// Spawns one daemon per PS shard — with replicate_ps also its backup
/// ("ps<k>b") — each running `body(link)` over its own PsShardLink.
template <class Body>
void spawn_shards(Session& s, const Body& body) {
  for (int shard = 0; shard < s.num_shards(); ++shard) {
    for (const bool backup : {false, true}) {
      if (backup && !s.has_backups()) continue;
      s.engine.spawn(
          "ps" + std::to_string(shard) + (backup ? "b" : ""),
          [&s, body, shard, backup](runtime::Process& self) {
            PsShardLink link(s, self, shard, backup);
            body(link);
          },
          /*daemon=*/true);
    }
  }
}

/// Post-reboot recovery against the PS: discard the dead incarnation's
/// mailbox (stale parameter replies), then either restore the last local
/// checkpoint or pull fresh parameters from every shard. Either way the
/// worker resumes with a coherent replica and a fresh staleness basis.
/// `rejoin_shard` >= 0 (DSSP): a fire-and-forget kTagRejoin control
/// message tells that shard's staleness policy to restart this rank's
/// push-rate window — sent ahead of the recovery pull, so the first
/// post-rejoin grant already sees the fresh window. Worker crashes never
/// meet the reliable link (Session::validate_reliability).
void recover_from_ps(Session& s, runtime::Process& self, int rank,
                     PsWorkerLink& link, std::vector<std::int64_t>& basis,
                     CrashCheckpoint& ck, int rejoin_shard = -1) {
  s.network->drain(link.ep());
  if (rejoin_shard >= 0) {
    Packet note;
    note.tag = kTagRejoin;
    note.a = rank;
    note.wire_bytes = net::kControlBytes;
    s.network->send(self, link.ep(),
                    s.ps_ep[static_cast<std::size_t>(rejoin_shard)],
                    std::move(note));
  }
  if (ck.restore(s, self, rank)) return;
  for (int shard = 0; shard < s.num_shards(); ++shard) link.pull(shard);
  link.await(basis, Resend::pull);
}

// ======================== SSP / DSSP =======================================
//
// One dispatch loop serves both protocols (the MasterMode idiom: the PS
// loop is protocol-agnostic and the staleness decision lives in a small
// pluggable policy object). Static SSP (`adaptive` false) holds every
// worker to the configured bound s; DSSP (`adaptive` true) hosts a
// core::StalenessPolicy on the *controller shard* — the shard owning slot
// 0, which therefore sees exactly one slot-0 gradient per completed worker
// iteration — and re-grants each worker's bound in [s_min, s_max] from its
// observed push rate. Grants ride back on the controller's kTagParams
// replies (Packet.x), so adaptation adds zero extra messages. Pushes get no
// reply (the reliable link's ack is their delivery guarantee), so only the
// pull rounds await replies. Under replication each endpoint of the
// controller shard keeps its *own* policy fed by the pushes it observes
// (the backup's by the primary's mirrors), so after a failover the backup
// grants from its own complete rate window instead of starting cold.

void launch_ssp_impl(Session& s, bool adaptive) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);
  const int controller = s.plan.shard_of(0);

  spawn_shards(s, [&s, inv_n, adaptive, controller](PsShardLink& link) {
    ps::ShardState& st = link.st;
    std::unique_ptr<StalenessPolicy> policy;
    if (adaptive && link.shard == controller) {
      policy = std::make_unique<StalenessPolicy>(
          DsspConfig{s.cfg.dssp_s_min, s.cfg.dssp_s_max, s.cfg.dssp_window_s},
          s.cfg.num_workers);
    }
    link.serve([&](Packet& pkt) {
      const auto rank = static_cast<int>(pkt.a);
      if (pkt.tag == kTagRejoin) {
        // Fire-and-forget reboot note: restart the rank's push-rate window
        // so pre-crash speed does not color its first grants.
        if (policy != nullptr) policy->on_rejoin(rank);
        return;
      }
      if (pkt.tag == kTagPull) {
        // An idempotent read: the worker drops duplicate replies.
        if (link.draining) return;
        const double grant =
            policy != nullptr
                ? static_cast<double>(policy->grant(rank, link.self.now()))
                : 0.0;
        for (std::size_t slot : st.slots()) {
          link.reply_params(slot, rank, pkt.d, nullptr, grant);
        }
        return;
      }
      if (pkt.tag == kTagViewChange) return;  // detector note
      common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                    "SSP PS: unexpected tag");
      if (link.from_crashed_incarnation(pkt)) return;
      if (!link.first_delivery(pkt)) return;
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      if (!link.from_mirror(pkt)) {
        link.probes.staleness->observe(
            static_cast<double>(st.version(local) - pkt.c));
      }
      if (policy != nullptr && slot == 0) policy->on_push(rank, link.self.now());
      link.self.advance(s.wl.agg_time(pkt.wire_bytes));
      if (s.wl.functional()) {
        const float lr = static_cast<float>(pkt.x);
        if (pkt.tag == kTagGrad) {
          st.apply_dense(local, pkt.tensor(0).data(), lr, inv_n);
        } else {
          st.apply_sparse(local, pkt.sparse_indices(0), pkt.sparse_values(0),
                          lr, inv_n);
        }
      }
      st.bump_version(local);
      link.mirror(pkt);
    });
  });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n, adaptive, controller](runtime::Process& self) {
          PsWorkerLink link(s, self, rank);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          auto dgc = make_dgc(s);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          metrics::Histogram& local_staleness = s.registry.histogram(
              "ssp.local_staleness",
              {{"worker", std::to_string(rank)}},
              metrics::Histogram::count_bounds());
          metrics::Histogram* bound_h = nullptr;
          if (adaptive) {
            bound_h = &s.registry.histogram(
                "dssp.bound", {{"worker", std::to_string(rank)}},
                metrics::Histogram::count_bounds());
          }
          const std::size_t n_slots = s.wl.num_slots();
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          CrashCheckpoint ck = CrashCheckpoint::make(s);
          int bound = adaptive ? s.cfg.dssp_s_min : s.cfg.ssp_staleness;
          if (bound_h != nullptr) {
            bound_h->observe(static_cast<double>(bound));
          }
          int staleness = 0;

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            link.begin_round(it);
            const auto push = [&](std::size_t slot) {
              return link.push(slot, grad_packet(s, rank, slot, epoch, lr,
                                                 basis[slot], dgc.get(), rng));
            };
            // The plain link streams the pushes out of the backward pass;
            // the reliable link's acked sends would serialize it, so they
            // follow it.
            const double loss =
                link.reliable() ? compute_iteration(s, self, rank, rng, wm)
                                : compute_iteration(s, self, rank, rng, wm,
                                                    &push);
            if (link.reliable()) {
              for (std::size_t slot = n_slots; slot-- > 0;) push(slot);
            }
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              // SSP pushes never generate replies (workers pull explicitly),
              // so a crash here only loses the in-flight gradients. The
              // recovery pull counts as the global sync; a DSSP rejoiner
              // also restarts from the conservative s_min grant.
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, link, basis, ck,
                              adaptive ? controller : -1);
              staleness = 0;
              if (adaptive) {
                bound = s.cfg.dssp_s_min;
                bound_h->observe(static_cast<double>(bound));
              }
              wm.count_iteration(s.wl.batch_size());
              curve.maybe_record(self, it + 1, loss);
              ck.maybe_snapshot(s, self, rank);
              continue;
            }
            // Local clock distance from the last global sync. With the
            // at-most-s-ahead bound (<=) the observed values run 0..s+1:
            // s+1 flags the iteration that triggers the global sync.
            local_staleness.observe(static_cast<double>(staleness));

            if (staleness <= bound) {
              // At or within the staleness bound: update locally and
              // continue without waiting for the PS.
              ++staleness;
              if (s.wl.functional()) {
                s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                     static_cast<float>(lr) * inv_n);
              }
            } else {
              const double t0 = self.now();
              for (int shard = 0; shard < s.num_shards(); ++shard) {
                link.pull(shard);
              }
              int grant = bound;
              link.await(basis, Resend::pull, adaptive ? controller : -1,
                         adaptive ? &grant : nullptr);
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
              staleness = 0;
              if (adaptive) {
                bound = std::clamp(grant, s.cfg.dssp_s_min, s.cfg.dssp_s_max);
                bound_h->observe(static_cast<double>(bound));
              }
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
          // Only the reliable link needs the departure (a shard stops
          // retrying replies to a finished rank); with membership on it
          // publishes a view, which plain runs never did.
          if (link.reliable()) s.mark_finished(rank, self.now());
        });
  }
}

}  // namespace

// ======================== BSP ==============================================
//
// A shard closes a slot's round once every pusher contributed, applies the
// averaged sum and answers the round's pushers. Over the plain link the sum
// runs in arrival order and every pusher gets the reply; over the reliable
// link it runs in rank order (PsShardLink::add_to_round), the round closes
// once every rank's round id reached it, and the ranks that contacted this
// endpoint directly (not via the mirror) get the replies.

void launch_bsp(Session& s) {
  const int n_workers = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n_workers);
  // Local aggregation is plain-link only: the machine-leader gather assumes
  // loss-free local links. Crash plans disable it too: a dead machine
  // leader would orphan its whole machine's round, and the leader-gather
  // counts assume a fixed co-located worker set.
  const bool local_agg = s.cfg.opt.local_aggregation && !s.reliable_mode() &&
                         !use_dgc(s) &&
                         s.cfg.cluster.workers_per_machine > 1 &&
                         n_workers > 1 && !s.fault_plan.has_crashes();

  // The endpoints that push to the PS: machine leaders when local
  // aggregation is on, every worker otherwise.
  std::vector<int> pusher_ranks;
  for (int r = 0; r < n_workers; ++r) {
    if (!local_agg || s.machine_leader(r) == r) pusher_ranks.push_back(r);
  }
  const auto expected = static_cast<int>(pusher_ranks.size());

  spawn_shards(s, [&s, n_workers, inv_n, pusher_ranks,
                   expected](PsShardLink& link) {
    ps::ShardState& st = link.st;
    runtime::Process& self = link.self;
    // `drop` policy (plain link): a round closes once every *alive* pusher
    // contributed, rescaled by the actual contributor count. Liveness
    // comes from the membership view when the detector is engaged
    // (Session::member_down); the detector nudges a blocked round closed
    // with a kTagViewChange note on every eviction. Without the detector,
    // detection stays message-driven: a round whose surviving pushes all
    // arrived before the crash instant closes at the crashed rank's next
    // message instead (see docs/faults.md).
    const bool drop_mode =
        s.fault_plan.has_crashes() &&
        s.fault_plan.sync_policy() == faults::SyncPolicy::drop;
    const std::size_t n_local = st.num_local();
    std::vector<int> count(n_local, 0);  // plain: pushes in the open round
    std::vector<float> lr_latest(n_local, 0.0f);
    std::vector<std::int64_t> round(n_local, 0);  // open round per slot
    // Reliable: the ranks this endpoint owes the open round's reply.
    std::vector<std::vector<char>> pending(
        n_local, std::vector<char>(link.reliable ? n_workers : 0, 0));

    const auto close_round = [&](std::size_t slot) {
      const std::size_t local = st.local_index(slot);
      float scale = inv_n;
      if (link.reliable) {
        for (const auto& last : link.last_id) {
          if (last[local] < round[local]) return;
        }
      } else {
        int needed = expected;
        if (drop_mode) {
          needed = 0;
          for (int r : pusher_ranks) {
            if (!s.member_down(r, self.now()) &&
                !s.member_departed(r, self.now())) {
              ++needed;
            }
          }
          needed = std::max(1, needed);
        }
        if (count[local] < needed) return;
        if (drop_mode) scale = 1.0f / static_cast<float>(count[local]);
        count[local] = 0;
      }
      if (s.wl.functional()) {
        const tensor::Tensor sum = link.take_round_sum(local);
        st.apply_dense(local, sum.data(), lr_latest[local], scale);
      } else {
        self.advance(s.wl.agg_time(s.wl.slot_wire_bytes(slot)));
      }
      st.bump_version(local);
      const std::int64_t closed = round[local]++;
      net::PayloadHandle reply_payload;  // one snapshot for the fan-out
      if (link.reliable) {
        for (int r = 0; r < n_workers; ++r) {
          char& owed = pending[local][static_cast<std::size_t>(r)];
          if (owed == 0) continue;
          owed = 0;
          link.reply_params(slot, r, closed, &reply_payload);
        }
        return;
      }
      for (int r : pusher_ranks) {
        // Fan-out skips use *instantaneous* liveness, not the lagged view:
        // a rebooted worker may push again before its readmission is
        // published, and skipping its reply here would strand it waiting
        // while the next round waits on it.
        if (drop_mode && (s.rank_down(r, self.now()) || s.rank_finished(r))) {
          continue;
        }
        link.reply_params(slot, r, closed, &reply_payload);
      }
    };

    link.serve([&](Packet& pkt) {
      if (pkt.tag == kTagPull) {
        // Crash-recovery pull: serve current params, then re-check rounds
        // that were waiting on the (now rebooted) rank.
        for (std::size_t slot : st.slots()) {
          link.reply_params(slot, static_cast<int>(pkt.a), pkt.d);
        }
        if (drop_mode) {
          for (std::size_t slot : st.slots()) close_round(slot);
        }
        return;
      }
      if (pkt.tag == kTagViewChange) {
        // The view lost a member; rounds waiting on it can now close.
        if (drop_mode) {
          for (std::size_t slot : st.slots()) close_round(slot);
        }
        return;
      }
      common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                    "BSP PS: unexpected tag");
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      const auto rank = static_cast<int>(pkt.a);
      const bool mirrored = link.from_mirror(pkt);
      if (!link.first_delivery(pkt)) {
        // Failover re-push of an already-staged round. A closed round
        // (possibly closed by the dead primary and mirrored here) only lost
        // its reply: serve it now. An open round replies at close.
        if (mirrored) return;
        if (pkt.d < round[local]) {
          link.reply_params(slot, rank, pkt.d);
        } else {
          pending[local][static_cast<std::size_t>(rank)] = 1;
        }
        return;
      }
      // BSP applies round t only after every round-t push arrived, so every
      // gradient meets the exact version it was computed on.
      if (!mirrored) {
        link.probes.staleness->observe(
            static_cast<double>(st.version(local) - pkt.c));
      }
      self.advance(s.wl.agg_time(pkt.wire_bytes));
      if (s.wl.functional()) link.add_to_round(local, pkt);
      lr_latest[local] = static_cast<float>(pkt.x);
      link.mirror(pkt);
      if (!link.reliable) {
        ++count[local];
      } else if (!mirrored) {
        pending[local][static_cast<std::size_t>(rank)] = 1;
      }
      close_round(slot);
    });
  });

  for (int rank = 0; rank < n_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, local_agg](runtime::Process& self) {
          PsWorkerLink link(s, self, rank);
          const int wep = link.ep();
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          auto dgc = make_dgc(s);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);

          const std::vector<int> peers = s.machine_peers(rank);
          const int leader = s.machine_leader(rank);
          const bool is_leader = leader == rank;
          const int leader_ep = s.worker_ep[static_cast<std::size_t>(leader)];
          const std::size_t n_slots = s.wl.num_slots();
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          CrashCheckpoint ck = CrashCheckpoint::make(s);

          // Non-leaders stream slots to their machine leader; leaders /
          // direct workers hold gradients until the gather completes.
          const auto to_leader = [&](std::size_t slot) {
            Packet pkt;
            pkt.tag = kTagLocalGrad;
            pkt.a = rank;
            pkt.b = static_cast<std::int64_t>(slot);
            pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
            if (s.wl.functional()) {
              pkt.emplace_payload().tensors.push_back(
                  s.wl.grad_slot(rank, slot));
            }
            s.network->send(self, wep, leader_ep, std::move(pkt));
          };
          // Per-slot payload snapshots for the leader's peer broadcast.
          std::vector<net::PayloadHandle> bcast;

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, link, basis, ck);
            }
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            link.begin_round(it);

            const double loss =
                local_agg && !is_leader
                    ? compute_iteration(s, self, rank, rng, wm, &to_leader)
                    : compute_iteration(s, self, rank, rng, wm);

            if (local_agg && is_leader) {
              // Gather the co-located workers' gradients (local_agg phase:
              // dominated by waiting for the slowest local worker).
              PhaseTimer t(self, wm, Phase::local_agg);
              const std::size_t expected_local =
                  (peers.size() - 1) * n_slots;
              for (std::size_t i = 0; i < expected_local; ++i) {
                Packet pkt = s.network->recv(self, wep, kTagLocalGrad);
                self.advance(s.wl.agg_time(pkt.wire_bytes));
                if (s.wl.functional()) {
                  s.wl.accumulate_grad_slot(
                      rank, static_cast<std::size_t>(pkt.b),
                      pkt.tensor(0));
                }
              }
            }

            if (!local_agg || is_leader) {
              // Push (locally aggregated) gradients and await fresh params.
              const double t0 = self.now();
              for (std::size_t slot = n_slots; slot-- > 0;) {
                link.push(slot, grad_packet(s, rank, slot, epoch, lr,
                                            basis[slot], dgc.get(), rng));
              }
              link.await(basis, Resend::round);
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);

              if (local_agg && peers.size() > 1) {
                PhaseTimer t(self, wm, Phase::local_agg);
                // Snapshots are shared across the peer broadcast: the
                // leader's params don't change while this double loop
                // yields in send(), so the first peer's snapshot serves
                // every peer.
                bcast.assign(n_slots, nullptr);
                for (int peer : peers) {
                  if (peer == rank) continue;
                  for (std::size_t slot = 0; slot < n_slots; ++slot) {
                    Packet pkt;
                    pkt.tag = kTagLocalParams;
                    pkt.a = rank;
                    pkt.b = static_cast<std::int64_t>(slot);
                    pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
                    if (s.wl.functional()) {
                      if (bcast[slot] == nullptr) {
                        auto fresh = std::make_shared<net::Payload>();
                        fresh->tensors.push_back(s.wl.param_slot(rank, slot));
                        bcast[slot] = std::move(fresh);
                      }
                      pkt.payload = bcast[slot];
                    }
                    s.network->send(
                        self, wep,
                        s.worker_ep[static_cast<std::size_t>(peer)],
                        std::move(pkt));
                  }
                }
                bcast.clear();  // drop the snapshots, keep the storage
              }
            } else {
              // Non-leader: wait for the leader's local broadcast.
              PhaseTimer t(self, wm, Phase::local_agg);
              for (std::size_t i = 0; i < n_slots; ++i) {
                Packet pkt = s.network->recv(self, wep, kTagLocalParams);
                if (s.wl.functional()) {
                  s.wl.set_param_slot(rank, static_cast<std::size_t>(pkt.b),
                                      pkt.tensor(0));
                }
              }
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
          // Drop-mode membership: a worker that ran out of iterations has
          // left the cluster; remaining rounds close without it.
          s.mark_finished(rank, self.now());
        });
  }
}

// ======================== ASP ==============================================

void launch_asp(Session& s) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);

  spawn_shards(s, [&s, inv_n](PsShardLink& link) {
    ps::ShardState& st = link.st;
    link.serve([&](Packet& pkt) {
      const auto rank = static_cast<int>(pkt.a);
      if (pkt.tag == kTagPull) {
        for (std::size_t slot : st.slots()) {
          link.reply_params(slot, rank, pkt.d);
        }
        return;
      }
      if (pkt.tag == kTagViewChange) return;  // detector note
      common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                    "ASP PS: unexpected tag");
      if (link.from_crashed_incarnation(pkt)) return;
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      const bool mirrored = link.from_mirror(pkt);
      if (link.first_delivery(pkt)) {
        // Every update applied since this worker's last pull makes its
        // gradient one step staler — the ASP staleness distribution.
        if (!mirrored) {
          link.probes.staleness->observe(
              static_cast<double>(st.version(local) - pkt.c));
        }
        link.self.advance(s.wl.agg_time(pkt.wire_bytes));
        if (s.wl.functional()) {
          const float lr = static_cast<float>(pkt.x);
          if (pkt.tag == kTagGrad) {
            st.apply_dense(local, pkt.tensor(0).data(), lr, inv_n);
          } else {
            st.apply_sparse(local, pkt.sparse_indices(0),
                            pkt.sparse_values(0), lr, inv_n);
          }
        }
        st.bump_version(local);
        link.mirror(pkt);
      }
      // A failover re-push of an applied push (the dead primary mirrored
      // it) only lost its reply.
      if (!mirrored) link.reply_params(slot, rank, pkt.d);
    });
  });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n](runtime::Process& self) {
          PsWorkerLink link(s, self, rank);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          auto dgc = make_dgc(s);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          const std::size_t n_slots = s.wl.num_slots();
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          CrashCheckpoint ck = CrashCheckpoint::make(s);
          const int budget = s.cfg.reliability.local_step_budget;
          int local_streak = 0;

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            // Up to `budget` rounds in a row may degrade to a local step
            // around a dead, not yet promoted primary (reliable link only).
            link.begin_round(it, local_streak < budget);
            const auto push = [&](std::size_t slot) {
              return link.push(slot, grad_packet(s, rank, slot, epoch, lr,
                                                 basis[slot], dgc.get(), rng));
            };
            // The plain link streams the pushes out of the backward pass;
            // the reliable link's acked sends would serialize it, so they
            // follow it, inside the sync window.
            const double loss =
                link.reliable() ? compute_iteration(s, self, rank, rng, wm)
                                : compute_iteration(s, self, rank, rng, wm,
                                                    &push);
            const double t0 = self.now();
            if (link.reliable()) {
              for (std::size_t slot = n_slots; slot-- > 0;) {
                if (!push(slot)) break;
              }
            }
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              // Crash point: this iteration's pushes are in flight but the
              // PS discards them (rank is down), so no replies are owed —
              // re-sync with a recovery pull instead of awaiting them.
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, link, basis, ck);
            } else if (link.await(basis, Resend::unanswered)) {
              local_streak = 0;
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
            } else {
              // Bounded graceful degradation: local SGD step, no sync.
              // Stale replies of this round are dropped by round id later.
              if (s.wl.functional()) {
                s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                     static_cast<float>(lr) * inv_n);
              }
              ++local_streak;
              if (s.fprobes.local_steps != nullptr) {
                s.fprobes.local_steps->inc();
              }
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
          // See launch_ssp_impl: reliable-link departures only.
          if (link.reliable()) s.mark_finished(rank, self.now());
        });
  }
}

void launch_ssp(Session& s) { launch_ssp_impl(s, /*adaptive=*/false); }

void launch_dssp(Session& s) { launch_ssp_impl(s, /*adaptive=*/true); }

// ======================== EASGD ============================================

void launch_easgd(Session& s) {
  const float alpha =
      s.cfg.easgd_alpha > 0.0
          ? static_cast<float>(s.cfg.easgd_alpha)
          : static_cast<float>(0.9 / static_cast<double>(s.cfg.easgd_tau));

  spawn_shards(s, [&s, alpha](PsShardLink& link) {
    ps::ShardState& st = link.st;
    link.serve([&](Packet& pkt) {
      const auto rank = static_cast<int>(pkt.a);
      if (pkt.tag == kTagPull) {
        // Crash-recovery pull: the rejoined worker re-seeds its replica
        // from the center variable.
        for (std::size_t slot : st.slots()) {
          link.reply_params(slot, rank, pkt.d);
        }
        return;
      }
      if (pkt.tag == kTagViewChange) return;  // detector note
      common::check(pkt.tag == kTagEasgdPush, "EASGD PS: unexpected tag");
      if (link.from_crashed_incarnation(pkt)) return;
      const auto slot = static_cast<std::size_t>(pkt.b);
      const std::size_t local = st.local_index(slot);
      const bool mirrored = link.from_mirror(pkt);
      if (!link.first_delivery(pkt)) {
        // Failover re-push of an exchange the dead primary already
        // performed (and mirrored): the elastic reply died with it, so the
        // worker adopts the current center instead — the documented EASGD
        // failover semantics (docs/faults.md).
        if (!mirrored) link.reply_params(slot, rank, pkt.d);
        return;
      }
      // Center updates since the worker's previous exchange of this slot =
      // how stale its view of the center was at push time.
      if (!mirrored) {
        link.probes.staleness->observe(
            static_cast<double>(st.version(local) - pkt.c));
      }
      link.self.advance(s.wl.agg_time(pkt.wire_bytes));
      Packet reply;
      reply.tag = kTagParams;
      reply.a = link.shard;
      reply.b = pkt.b;
      reply.d = pkt.d;
      reply.wire_bytes = s.wl.slot_wire_bytes(slot);
      if (s.wl.functional()) {
        // The exchange mutates the center, so it runs for mirrors too (that
        // is what keeps the replicas bitwise identical).
        reply.emplace_payload().tensors.push_back(
            st.elastic_exchange(local, pkt.tensor(0), alpha));
      }
      st.bump_version(local);
      reply.c = st.version(local);
      link.mirror(pkt);
      if (!mirrored) link.reply(rank, std::move(reply));
    });
  });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank), [&s, rank](runtime::Process& self) {
          PsWorkerLink link(s, self, rank);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          metrics::Counter& rounds = s.registry.counter(
              "easgd.rounds_total", {{"worker", std::to_string(rank)}});
          const std::size_t n_slots = s.wl.num_slots();
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          CrashCheckpoint ck = CrashCheckpoint::make(s);
          const int tau = std::max(1, s.cfg.easgd_tau);

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, link, basis, ck);
            }
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss = compute_iteration(s, self, rank, rng, wm);
            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                   static_cast<float>(lr));
            }

            if ((it + 1) % tau == 0) {
              link.begin_round((it + 1) / tau);
              const double t0 = self.now();
              for (std::size_t slot = 0; slot < n_slots; ++slot) {
                Packet pkt;
                pkt.tag = kTagEasgdPush;
                pkt.a = rank;
                pkt.b = static_cast<std::int64_t>(slot);
                pkt.c = basis[slot];
                pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
                if (s.wl.functional()) {
                  pkt.emplace_payload().tensors.push_back(
                      s.wl.param_slot(rank, slot));
                }
                link.push(slot, std::move(pkt));
              }
              link.await(basis, Resend::round);
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
              rounds.inc();
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
          // See launch_ssp_impl: reliable-link departures only.
          if (link.reliable()) s.mark_finished(rank, self.now());
        });
  }
}

}  // namespace dt::core
