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
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compress/dgc.hpp"
#include "compress/quantize.hpp"
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

/// Runs one iteration's forward+backward in virtual time (and functionally
/// when the workload is). `on_slot_ready` is invoked per slot in backprop
/// (reverse) order — interleaved with the backward advances when wait-free
/// BP is on, otherwise after the full backward.
double compute_iteration(
    Session& s, runtime::Process& self, int rank, common::Rng& rng,
    metrics::WorkerMetrics& wm,
    const std::function<void(std::size_t)>& on_slot_ready) {
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
  if (!s.cfg.opt.wait_free_bp || !on_slot_ready) {
    self.advance(s.fault_stretch(self, rank, s.wl.backward_time(rng)));
    if (on_slot_ready) {
      for (std::size_t i = n; i-- > 0;) on_slot_ready(i);
    }
  } else {
    double nominal = 0.0;
    for (std::size_t i = 0; i < n; ++i) nominal += s.wl.backward_slot_time(i);
    const double total =
        s.fault_stretch(self, rank, s.wl.backward_time(rng));
    const double scale = nominal > 0.0 ? total / nominal : 0.0;
    for (std::size_t i = n; i-- > 0;) {
      self.advance(s.wl.backward_slot_time(i) * scale);
      on_slot_ready(i);
    }
  }
  return loss;
}

/// Receives `count` kTagParams packets on `ep`, loading each into the
/// worker's replica in functional mode. When `basis` is given, the PS
/// update clock carried by each reply (Packet.c) is stored per slot so the
/// next gradient push can be stamped with the version it builds on. When
/// `grant_out` is given, replies from shard `grant_shard` carry a DSSP
/// staleness-bound grant in Packet.x; the last one received wins.
void await_params(Session& s, runtime::Process& self, int rank, int ep,
                  std::size_t count,
                  std::vector<std::int64_t>* basis = nullptr,
                  int grant_shard = -1, int* grant_out = nullptr) {
  for (std::size_t i = 0; i < count; ++i) {
    Packet pkt = s.network->recv(self, ep, kTagParams);
    if (basis != nullptr) {
      basis->at(static_cast<std::size_t>(pkt.b)) = pkt.c;
    }
    if (grant_out != nullptr && static_cast<int>(pkt.a) == grant_shard) {
      *grant_out = static_cast<int>(std::llround(pkt.x));
    }
    if (s.wl.functional()) {
      s.wl.set_param_slot(rank, static_cast<std::size_t>(pkt.b),
                          pkt.tensor(0));
    }
  }
}

/// Per-worker synchronization probes: the full request-response window and
/// its wait share (the part the uncontended network estimate cannot
/// explain — barrier convoy for BSP/AR-SGD, PS queueing for ASP/SSP).
struct SyncProbes {
  metrics::Histogram* window = nullptr;  // sync.window_s
  metrics::Histogram* wait = nullptr;    // sync.wait_s

  static SyncProbes make(Session& s) {
    const metrics::Labels labels{{"algo", algo_name(s.cfg.algo)}};
    return SyncProbes{
        &s.registry.histogram("sync.window_s", labels,
                              metrics::Histogram::time_bounds()),
        &s.registry.histogram("sync.wait_s", labels,
                              metrics::Histogram::time_bounds())};
  }
};

/// Splits a measured request-response window into pure-communication time
/// (up to the uncontended estimate) and aggregation/queueing wait.
void account_window(runtime::Process& self, metrics::WorkerMetrics& wm,
                    double window_start, double comm_estimate,
                    const SyncProbes& probes) {
  const double elapsed = self.now() - window_start;
  const double comm = std::min(elapsed, comm_estimate);
  wm.accumulate(Phase::comm, comm);
  wm.accumulate(Phase::global_agg, elapsed - comm);
  probes.window->observe(elapsed);
  probes.wait->observe(elapsed - comm);
  wm.note_window(window_start, self.now());
}

/// Per-shard PS-side probes, resolved once per shard process.
struct PsProbes {
  metrics::Counter* requests = nullptr;      // ps.requests_total{shard}
  metrics::Counter* bytes_served = nullptr;  // ps.bytes_served_total{shard}
  metrics::Histogram* queue_depth = nullptr;  // ps.queue_depth{shard}
  metrics::Histogram* staleness = nullptr;    // staleness.updates{algo}

  static PsProbes make(Session& s, int shard) {
    return make(s, std::to_string(shard));
  }

  /// Labeled variant: a backup shard registers as shard "<k>b" so its
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

/// Functional-mode convergence-curve recorder (worker 0 only).
struct CurveRecorder {
  Session& s;
  int rank;
  double next_eval;

  CurveRecorder(Session& session, int r)
      : s(session), rank(r), next_eval(s.cfg.eval_interval_epochs) {}

  void maybe_record(runtime::Process& self, std::int64_t iter_done,
                    double loss) {
    if (rank != 0 || !s.wl.functional()) return;
    const double epoch = s.epoch_of(iter_done);
    if (epoch + 1e-9 < next_eval) return;
    const double err = 1.0 - s.wl.evaluate(0);
    s.record_curve(epoch, self.now(), err, loss);
    while (next_eval <= epoch + 1e-9) next_eval += s.cfg.eval_interval_epochs;
  }
};

/// When the same (shard, slot) reply fans out to many ranks in one round,
/// pass a `payload_cache`: the first call snapshots the parameter tensor
/// into a shared payload and every later call reuses the handle, so the
/// broadcast allocates the model slot once instead of once per rank. Safe
/// because only the shard's own process mutates its parameters, so the
/// snapshot cannot change while the reply loop yields in send().
/// `grant` (DSSP only): the staleness bound granted to the pulling worker,
/// carried in Packet.x — the lr/weight field is unused on kTagParams.
void send_param_reply(Session& s, runtime::Process& self, int shard,
                      std::size_t slot, int dst_ep,
                      const PsProbes* probes = nullptr,
                      net::PayloadHandle* payload_cache = nullptr,
                      double grant = 0.0) {
  const auto& st = *s.shards[static_cast<std::size_t>(shard)];
  Packet reply;
  reply.tag = kTagParams;
  reply.a = shard;
  reply.b = static_cast<std::int64_t>(slot);
  reply.c = st.version(st.local_index(slot));
  reply.x = grant;
  reply.wire_bytes = s.wl.slot_wire_bytes(slot);
  if (s.wl.functional()) {
    if (payload_cache != nullptr && *payload_cache != nullptr) {
      reply.payload = *payload_cache;
    } else {
      reply.emplace_payload().tensors.push_back(
          st.param(st.local_index(slot)));
      if (payload_cache != nullptr) *payload_cache = reply.payload;
    }
  }
  if (probes != nullptr) {
    probes->bytes_served->inc(static_cast<double>(reply.wire_bytes));
  }
  s.network->send(self, s.ps_ep[static_cast<std::size_t>(shard)], dst_ep,
                  std::move(reply));
}

// ---- crash recovery (see docs/faults.md) ----------------------------------

/// Periodic crash-recovery snapshot state for one worker. Only armed when
/// the fault plan has crashes, recovery mode is `checkpoint`, and a period
/// is configured; otherwise every call is a cheap no-op.
struct CrashCheckpoint {
  double period = 0.0;  // 0 => disabled
  double next = 0.0;
  bool have = false;
  std::string blob;  // empty in cost-only mode (only the I/O cost matters)

  static CrashCheckpoint make(const Session& s) {
    CrashCheckpoint ck;
    if (s.fault_plan.has_crashes() &&
        s.fault_plan.recovery() == faults::RecoveryMode::checkpoint &&
        s.fault_plan.config().checkpoint_period > 0.0) {
      ck.period = s.fault_plan.config().checkpoint_period;
      ck.next = ck.period;
    }
    return ck;
  }

  /// Snapshots the worker replica when the period has elapsed; the write is
  /// charged as one full-model aggregation-rate I/O pass.
  void maybe_snapshot(Session& s, runtime::Process& self, int rank) {
    if (period <= 0.0 || self.now() < next) return;
    if (s.wl.functional()) blob = s.wl.save_worker_checkpoint(rank);
    have = true;
    self.advance(s.wl.agg_time(s.wl.total_wire_bytes()));
    while (next <= self.now()) next += period;
  }

  /// Restores the replica from the last snapshot. Returns false when no
  /// snapshot exists yet (caller falls back to a parameter pull).
  bool restore(Session& s, runtime::Process& self, int rank) {
    if (!have) return false;
    if (s.wl.functional()) s.wl.load_worker_checkpoint(rank, blob);
    self.advance(s.wl.agg_time(s.wl.total_wire_bytes()));
    return true;
  }
};

/// Post-reboot recovery against the PS: discard the dead incarnation's
/// mailbox (stale parameter replies), then either restore the last local
/// checkpoint or pull fresh parameters from every shard. Either way the
/// worker resumes with a coherent replica and a fresh staleness basis.
/// `rejoin_shard` >= 0 (DSSP): a fire-and-forget kTagRejoin control
/// message tells that shard's staleness policy to restart this rank's
/// push-rate window — sent ahead of the recovery pull, so the first
/// post-rejoin grant already sees the fresh window.
void recover_from_ps(Session& s, runtime::Process& self, int rank, int wep,
                     std::vector<std::int64_t>* basis, CrashCheckpoint& ck,
                     int rejoin_shard = -1) {
  s.network->drain(wep);
  if (rejoin_shard >= 0) {
    Packet note;
    note.tag = kTagRejoin;
    note.a = rank;
    note.wire_bytes = net::kControlBytes;
    s.network->send(self, wep,
                    s.ps_ep[static_cast<std::size_t>(rejoin_shard)],
                    std::move(note));
  }
  if (ck.restore(s, self, rank)) return;
  for (int shard = 0; shard < s.num_shards(); ++shard) {
    Packet pull;
    pull.tag = kTagPull;
    pull.a = rank;
    pull.wire_bytes = net::kControlBytes;
    s.network->send(self, wep, s.ps_ep[static_cast<std::size_t>(shard)],
                    std::move(pull));
  }
  await_params(s, self, rank, wep, s.wl.num_slots(), basis);
}

// ---- reliable transport + replicated PS (see docs/faults.md) --------------
//
// When Session::reliable_mode() is on (message faults and/or replicate_ps),
// the centralized algorithms run these variants instead: every PS exchange
// travels over net::ReliableTransport, pushes carry a per-rank round id
// (Packet.d) so shards apply each exchange exactly once across
// retransmission and failover, and with replicate_ps each shard has a
// backup ("ps<k>b") that mirrors the primary's applies and serves workers
// after the primary fail-stops.

/// Reliable send to a peer that cannot die and never exits (the backup
/// mirror endpoint). A retransmit-budget timeout under extreme loss is
/// retried with the same sequence number so the receiver never sees a gap.
void reliable_send_live(Session& s, runtime::Process& self, int src_ep,
                        int dst_ep, const Packet& pkt) {
  std::int64_t seq = -1;
  for (;;) {
    try {
      s.reliable->send(self, src_ep, dst_ep, pkt, &seq);
      return;
    } catch (const net::TimeoutError&) {
    }
  }
}

/// Reliable send to a worker endpoint. Like reliable_send_live, but gives
/// up once the destination rank has finished all its iterations: a departed
/// worker can never ack (its fiber has returned), and a reply it no longer
/// waits for is safe to drop. Without this bound a PS daemon whose last ack
/// from a finishing worker is lost retransmits forever — and while blocked
/// it only acks-and-buffers other workers' pushes, never serving them, so
/// one fast worker's exit can wedge the whole shard (and every straggler
/// still polling it).
void reliable_send_worker(Session& s, runtime::Process& self, int src_ep,
                          int rank, const Packet& pkt) {
  const int dst_ep = s.worker_ep[static_cast<std::size_t>(rank)];
  std::int64_t seq = -1;
  for (;;) {
    try {
      s.reliable->send(self, src_ep, dst_ep, pkt, &seq);
      return;
    } catch (const net::TimeoutError&) {
      if (s.member_departed(rank, self.now())) return;
    }
  }
}

/// Worker push to a shard's current route, failing over to the backup when
/// the primary is (observably) down. Retries to an unchanged destination
/// reuse the sequence number; a failover reroute starts a fresh one.
void reliable_push(Session& s, runtime::Process& self, int wep, int shard,
                   const Packet& pkt) {
  std::int64_t seq = -1;
  int route = s.ps_route(shard);
  for (;;) {
    try {
      s.reliable->send(self, wep, route, pkt, &seq);
      return;
    } catch (const net::TimeoutError&) {
      if (s.ps_primary_down(shard)) {
        s.fail_over(self, shard);
        const int next = s.ps_route(shard);
        if (next != route) {
          route = next;
          seq = -1;
        }
      }
    }
  }
}

/// Parameter reply from a replicated shard (primary or backup endpoint),
/// echoing the push's round id so the worker can match and dedup it.
void send_param_reply_rel(Session& s, runtime::Process& self,
                          const ps::ShardState& st, int shard, int src_ep,
                          std::size_t slot, int dst_rank,
                          std::int64_t round_id, const PsProbes* probes,
                          net::PayloadHandle* payload_cache = nullptr,
                          double grant = 0.0) {
  Packet reply;
  reply.tag = kTagParams;
  reply.a = shard;
  reply.b = static_cast<std::int64_t>(slot);
  reply.c = st.version(st.local_index(slot));
  reply.d = round_id;
  reply.x = grant;
  reply.wire_bytes = s.wl.slot_wire_bytes(slot);
  if (s.wl.functional()) {
    if (payload_cache != nullptr && *payload_cache != nullptr) {
      reply.payload = *payload_cache;
    } else {
      reply.emplace_payload().tensors.push_back(
          st.param(st.local_index(slot)));
      if (payload_cache != nullptr) *payload_cache = reply.payload;
    }
  }
  if (probes != nullptr) {
    probes->bytes_served->inc(static_cast<double>(reply.wire_bytes));
  }
  reliable_send_worker(s, self, src_ep, dst_rank, reply);
}

/// Collects one exchange round's kTagParams replies (one per entry of
/// `slots`). Replies are matched by (round id, slot); stale rounds and
/// duplicates — possible after a failover re-push — are dropped. When the
/// wait times out and a missing slot's primary is down, the worker fails
/// over and re-pushes that shard once via `repush_shard` (the backup
/// dedups by round id and replies from current state). When `grant_out`
/// is given, replies from shard `grant_shard` carry a DSSP staleness-bound
/// grant in Packet.x.
void await_replies_rel(Session& s, runtime::Process& self, int rank, int wep,
                       const std::vector<std::size_t>& slots,
                       std::int64_t round_id,
                       std::vector<std::int64_t>* basis,
                       const std::function<void(int)>& repush_shard,
                       int grant_shard = -1, int* grant_out = nullptr) {
  std::vector<char> got(s.wl.num_slots(), 1);
  for (std::size_t slot : slots) got[slot] = 0;
  std::size_t remaining = slots.size();
  std::vector<char> repushed(static_cast<std::size_t>(s.num_shards()), 0);
  const double poll = s.reliable->config().max_timeout;
  while (remaining > 0) {
    try {
      Packet pkt =
          s.reliable->recv_deadline(self, wep, kTagParams, self.now() + poll);
      if (pkt.d != round_id) continue;  // stale round
      const auto slot = static_cast<std::size_t>(pkt.b);
      if (got[slot] != 0) continue;  // duplicate reply
      got[slot] = 1;
      --remaining;
      if (basis != nullptr) basis->at(slot) = pkt.c;
      if (grant_out != nullptr && static_cast<int>(pkt.a) == grant_shard) {
        *grant_out = static_cast<int>(std::llround(pkt.x));
      }
      if (s.wl.functional()) {
        s.wl.set_param_slot(rank, slot, pkt.tensor(0));
      }
    } catch (const net::TimeoutError&) {
      for (std::size_t slot : slots) {
        if (got[slot] != 0) continue;
        const int shard = s.plan.shard_of(slot);
        if (repushed[static_cast<std::size_t>(shard)] != 0 ||
            !s.ps_primary_down(shard)) {
          continue;
        }
        s.fail_over(self, shard);
        repushed[static_cast<std::size_t>(shard)] = 1;
        repush_shard(shard);
      }
    }
  }
}

/// Serves one replicated-shard endpoint: forever for a backup (or an
/// uncrashed primary), until the scheduled fail-stop otherwise. On death
/// the endpoint goes deaf (new data is never acked again — that silence is
/// what senders detect), but everything the transport already acked is
/// first drained through `handle` with replies suppressed: an acked push
/// must still be applied and mirrored, or acked updates would vanish with
/// the primary.
void serve_replicated(Session& s, runtime::Process& self, int shard, int ep,
                      bool backup,
                      const std::function<void(Packet&, bool)>& handle) {
  s.network->bind(ep, self);
  const faults::PsCrash* pc =
      backup ? nullptr : s.fault_plan.ps_crash_of(shard);
  for (;;) {
    Packet pkt;
    if (pc != nullptr) {
      if (self.now() >= pc->at) break;
      try {
        pkt = s.reliable->recv_deadline(self, ep, net::kAnyTag, pc->at);
      } catch (const net::TimeoutError&) {
        break;
      }
    } else {
      pkt = s.reliable->recv(self, ep);
    }
    handle(pkt, /*allow_replies=*/true);
  }
  s.mark_ps_down(self, shard);
  s.reliable->set_deaf(ep);
  for (Packet& p : s.reliable->drain_ready(ep)) handle(p, false);
}

/// Spawns primary (and, with replicate_ps, backup) processes for every
/// shard. `make_handler` builds the per-process message handler; it
/// receives the serving ShardState, own endpoint, mirror destination (-1
/// when none) and whether this process is the backup.
void spawn_replicated_shards(
    Session& s,
    const std::function<std::function<void(Packet&, bool)>(
        runtime::Process&, ps::ShardState&, int, int, bool)>& make_handler) {
  const auto spawn_one = [&s, make_handler](int shard, bool backup) {
    const std::string name =
        "ps" + std::to_string(shard) + (backup ? "b" : "");
    s.engine.spawn(
        name,
        [&s, make_handler, shard, backup](runtime::Process& self) {
          const auto sh = static_cast<std::size_t>(shard);
          const int ep = backup ? s.ps_backup_ep[sh] : s.ps_ep[sh];
          const int mirror_ep =
              (!backup && s.has_backups()) ? s.ps_backup_ep[sh] : -1;
          ps::ShardState& st =
              backup ? *s.backup_shards[sh] : *s.shards[sh];
          auto handle = make_handler(self, st, ep, mirror_ep, backup);
          serve_replicated(s, self, shard, ep, backup, handle);
        },
        /*daemon=*/true);
  };
  for (int shard = 0; shard < s.num_shards(); ++shard) {
    spawn_one(shard, false);
    if (s.has_backups()) spawn_one(shard, true);
  }
}

std::vector<std::size_t> all_slots_of(const Session& s) {
  std::vector<std::size_t> slots(s.wl.num_slots());
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  return slots;
}

// -------- reliable BSP -----------------------------------------------------
//
// Round sums are arrival-order independent: each rank's contribution is
// staged in its own buffer (idempotent overwrite on a re-pushed duplicate)
// and the round sum is taken in canonical rank order, so a failover run's
// parameters match a no-crash run of the same replicated config bit for
// bit. A round closes once every rank's round id reached it; the ranks
// that contacted this endpoint directly (not via mirror) get the replies.
void launch_bsp_reliable(Session& s) {
  const int n_workers = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n_workers);

  spawn_replicated_shards(
      s, [&s, n_workers, inv_n](runtime::Process& self, ps::ShardState& st,
                                int ep, int mirror_ep, bool backup) {
        const int shard = st.shard();
        const int primary_ep = s.ps_ep[static_cast<std::size_t>(shard)];
        auto probes = std::make_shared<PsProbes>(PsProbes::make(
            s, std::to_string(shard) + (backup ? "b" : "")));
        const auto n_local = st.num_local();
        auto last_id = std::make_shared<std::vector<std::vector<std::int64_t>>>(
            static_cast<std::size_t>(n_workers),
            std::vector<std::int64_t>(n_local, -1));
        auto round = std::make_shared<std::vector<std::int64_t>>(n_local, 0);
        auto pending = std::make_shared<std::vector<std::vector<char>>>(
            n_local, std::vector<char>(static_cast<std::size_t>(n_workers), 0));
        auto lr_latest = std::make_shared<std::vector<float>>(n_local, 0.0f);

        return [&s, &self, &st, ep, mirror_ep, backup, shard, primary_ep,
                n_workers, inv_n, probes, last_id, round, pending,
                lr_latest](Packet& pkt, bool allow_replies) {
          probes->on_request(s, ep);
          common::check(pkt.tag == kTagGrad,
                        "BSP replicated PS: unexpected tag");
          const bool mirror_src = backup && pkt.src_endpoint == primary_ep;
          const auto slot = static_cast<std::size_t>(pkt.b);
          const std::size_t local = st.local_index(slot);
          const auto rank = static_cast<std::size_t>(pkt.a);

          const auto close_round = [&](bool replies_ok) {
            for (int r = 0; r < n_workers; ++r) {
              if ((*last_id)[static_cast<std::size_t>(r)][local] <
                  (*round)[local]) {
                return;
              }
            }
            if (s.wl.functional()) {
              const tensor::Tensor sum = st.take_staged_sum(local);
              st.apply_dense(local, sum.data(), (*lr_latest)[local], inv_n);
            } else {
              self.advance(s.wl.agg_time(s.wl.slot_wire_bytes(slot)));
            }
            st.bump_version(local);
            const std::int64_t closed = (*round)[local]++;
            net::PayloadHandle reply_payload;  // one snapshot for the fan-out
            for (int r = 0; r < n_workers; ++r) {
              auto& owed = (*pending)[local][static_cast<std::size_t>(r)];
              if (owed == 0) continue;
              owed = 0;
              if (!replies_ok) continue;  // death drain: backup will serve
              send_param_reply_rel(s, self, st, shard, ep, slot, r, closed,
                                   probes.get(), &reply_payload);
            }
          };

          if (pkt.d > (*last_id)[rank][local]) {
            if (!mirror_src) {
              probes->staleness->observe(
                  static_cast<double>(st.version(local) - pkt.c));
            }
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            if (s.wl.functional()) {
              st.stage_dense(local, static_cast<int>(rank),
                             pkt.tensor(0).data());
            }
            (*last_id)[rank][local] = pkt.d;
            (*lr_latest)[local] = static_cast<float>(pkt.x);
            if (mirror_ep >= 0) {
              reliable_send_live(s, self, ep, mirror_ep, pkt);
            }
            if (!mirror_src) (*pending)[local][rank] = 1;
            close_round(allow_replies);
          } else if (!mirror_src) {
            // Failover re-push of an already-staged round.
            if (pkt.d < (*round)[local]) {
              // Round closed (possibly by the dead primary, mirrored to
              // us): the worker only lost the reply — serve it now.
              if (allow_replies) {
                send_param_reply_rel(s, self, st, shard, ep, slot,
                                     static_cast<int>(rank), pkt.d,
                                     probes.get());
              }
            } else {
              (*pending)[local][rank] = 1;  // round open: reply at close
            }
          }
        };
      });

  for (int rank = 0; rank < n_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank), [&s, rank](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          const std::size_t n_slots = s.wl.num_slots();
          const std::vector<std::size_t> slots = all_slots_of(s);
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss =
                compute_iteration(s, self, rank, rng, wm, nullptr);

            const double t0 = self.now();
            const auto push_slot = [&](std::size_t slot) {
              Packet pkt = grad_packet(s, rank, slot, epoch, lr, basis[slot],
                                       nullptr, rng);
              pkt.d = it;
              reliable_push(s, self, wep, s.plan.shard_of(slot), pkt);
            };
            for (std::size_t slot = n_slots; slot-- > 0;) push_slot(slot);
            await_replies_rel(s, self, rank, wep, slots, it, &basis,
                              [&](int shard) {
                                for (std::size_t slot = 0; slot < n_slots;
                                     ++slot) {
                                  if (s.plan.shard_of(slot) == shard) {
                                    push_slot(slot);
                                  }
                                }
                              });
            account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                           sync);
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          s.mark_finished(rank, self.now());
        });
  }
}

// -------- reliable ASP -----------------------------------------------------

void launch_asp_reliable(Session& s) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);

  spawn_replicated_shards(
      s, [&s, inv_n](runtime::Process& self, ps::ShardState& st, int ep,
                     int mirror_ep, bool backup) {
        const int shard = st.shard();
        const int primary_ep = s.ps_ep[static_cast<std::size_t>(shard)];
        auto probes = std::make_shared<PsProbes>(PsProbes::make(
            s, std::to_string(shard) + (backup ? "b" : "")));
        auto last_id = std::make_shared<std::vector<std::vector<std::int64_t>>>(
            static_cast<std::size_t>(s.cfg.num_workers),
            std::vector<std::int64_t>(st.num_local(), -1));

        return [&s, &self, &st, ep, mirror_ep, backup, shard, primary_ep,
                inv_n, probes, last_id](Packet& pkt, bool allow_replies) {
          probes->on_request(s, ep);
          common::check(pkt.tag == kTagGrad,
                        "ASP replicated PS: unexpected tag");
          const bool mirror_src = backup && pkt.src_endpoint == primary_ep;
          const auto slot = static_cast<std::size_t>(pkt.b);
          const std::size_t local = st.local_index(slot);
          const auto rank = static_cast<std::size_t>(pkt.a);
          if (pkt.d > (*last_id)[rank][local]) {
            if (!mirror_src) {
              probes->staleness->observe(
                  static_cast<double>(st.version(local) - pkt.c));
            }
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            if (s.wl.functional()) {
              st.apply_dense(local, pkt.tensor(0).data(),
                             static_cast<float>(pkt.x), inv_n);
            }
            st.bump_version(local);
            (*last_id)[rank][local] = pkt.d;
            if (mirror_ep >= 0) {
              reliable_send_live(s, self, ep, mirror_ep, pkt);
            }
            if (!mirror_src && allow_replies) {
              send_param_reply_rel(s, self, st, shard, ep, slot,
                                   static_cast<int>(rank), pkt.d,
                                   probes.get());
            }
          } else if (!mirror_src && allow_replies) {
            // Failover re-push: already applied (the dead primary mirrored
            // it) — the worker only lost the reply.
            send_param_reply_rel(s, self, st, shard, ep, slot,
                                 static_cast<int>(rank), pkt.d, probes.get());
          }
        };
      });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          const std::size_t n_slots = s.wl.num_slots();
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          const int budget = s.cfg.reliability.local_step_budget;
          const double poll = s.reliable->config().max_timeout;
          int local_streak = 0;

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss =
                compute_iteration(s, self, rank, rng, wm, nullptr);
            const double t0 = self.now();

            // A shard whose primary just died and that nobody promoted yet
            // may be degraded around: apply this iteration's gradient
            // locally instead of blocking, up to `budget` in a row.
            const auto may_degrade = [&](int shard) {
              return s.ps_primary_down(shard) && !s.ps_failed_over(shard) &&
                     local_streak < budget;
            };
            bool degraded = false;

            for (std::size_t slot = n_slots; slot-- > 0 && !degraded;) {
              Packet pkt = grad_packet(s, rank, slot, epoch, lr, basis[slot],
                                       nullptr, rng);
              pkt.d = it;
              const int shard = s.plan.shard_of(slot);
              std::int64_t seq = -1;
              int route = s.ps_route(shard);
              for (;;) {
                try {
                  s.reliable->send(self, wep, route, pkt, &seq);
                  break;
                } catch (const net::TimeoutError&) {
                  if (may_degrade(shard)) {
                    degraded = true;
                    break;
                  }
                  if (s.ps_primary_down(shard)) {
                    s.fail_over(self, shard);
                    const int next = s.ps_route(shard);
                    if (next != route) {
                      route = next;
                      seq = -1;
                    }
                  }
                }
              }
            }

            if (!degraded) {
              std::vector<char> got(n_slots, 0);
              std::size_t remaining = n_slots;
              std::vector<char> repushed(
                  static_cast<std::size_t>(s.num_shards()), 0);
              while (remaining > 0 && !degraded) {
                try {
                  Packet pkt = s.reliable->recv_deadline(
                      self, wep, kTagParams, self.now() + poll);
                  if (pkt.d != it) continue;  // stale round
                  const auto slot = static_cast<std::size_t>(pkt.b);
                  if (got[slot] != 0) continue;
                  got[slot] = 1;
                  --remaining;
                  basis[slot] = pkt.c;
                  if (s.wl.functional()) {
                    s.wl.set_param_slot(rank, slot, pkt.tensor(0));
                  }
                } catch (const net::TimeoutError&) {
                  for (std::size_t slot = 0; slot < n_slots && !degraded;
                       ++slot) {
                    if (got[slot] != 0) continue;
                    const int shard = s.plan.shard_of(slot);
                    if (may_degrade(shard)) {
                      degraded = true;
                      break;
                    }
                    if (repushed[static_cast<std::size_t>(shard)] != 0 ||
                        !s.ps_primary_down(shard)) {
                      continue;
                    }
                    s.fail_over(self, shard);
                    repushed[static_cast<std::size_t>(shard)] = 1;
                    for (std::size_t rs = 0; rs < n_slots; ++rs) {
                      if (s.plan.shard_of(rs) != shard || got[rs] != 0) {
                        continue;
                      }
                      Packet pkt = grad_packet(s, rank, rs, epoch, lr,
                                               basis[rs], nullptr, rng);
                      pkt.d = it;
                      reliable_push(s, self, wep, shard, pkt);
                    }
                  }
                }
              }
            }

            if (degraded) {
              // Bounded graceful degradation: local SGD step, no sync.
              // Stale replies of this round are deduped by round id later.
              if (s.wl.functional()) {
                s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                     static_cast<float>(lr) * inv_n);
              }
              ++local_streak;
              if (s.fprobes.local_steps != nullptr) {
                s.fprobes.local_steps->inc();
              }
            } else {
              local_streak = 0;
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          s.mark_finished(rank, self.now());
        });
  }
}

// -------- reliable SSP -----------------------------------------------------
//
// Pushes are fire-and-forget at the application layer (the transport ack
// is the delivery guarantee; the shard sends no reply), so only the pull
// rounds need failover-aware reply collection.

/// Reliable / replicated SSP and DSSP (see launch_ssp_impl for the shared
/// protocol shape). Under replication each endpoint of the controller
/// shard — primary and backup — keeps its *own* StalenessPolicy fed by the
/// pushes it observes (the backup's by the primary's mirrors), so after a
/// failover the backup grants from its own complete rate window instead of
/// starting cold. Workers never crash under the reliable transport
/// (Session::validate_reliability), so the kTagRejoin path cannot occur
/// here.
void launch_ssp_reliable(Session& s, bool adaptive) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);
  const int controller = s.plan.shard_of(0);

  spawn_replicated_shards(
      s, [&s, inv_n, adaptive, controller](runtime::Process& self,
                                           ps::ShardState& st, int ep,
                                           int mirror_ep, bool backup) {
        const int shard = st.shard();
        const int primary_ep = s.ps_ep[static_cast<std::size_t>(shard)];
        auto probes = std::make_shared<PsProbes>(PsProbes::make(
            s, std::to_string(shard) + (backup ? "b" : "")));
        auto last_id = std::make_shared<std::vector<std::vector<std::int64_t>>>(
            static_cast<std::size_t>(s.cfg.num_workers),
            std::vector<std::int64_t>(st.num_local(), -1));
        std::shared_ptr<StalenessPolicy> policy;
        if (adaptive && shard == controller) {
          policy = std::make_shared<StalenessPolicy>(
              DsspConfig{s.cfg.dssp_s_min, s.cfg.dssp_s_max,
                         s.cfg.dssp_window_s},
              s.cfg.num_workers);
        }

        return [&s, &self, &st, ep, mirror_ep, backup, shard, primary_ep,
                inv_n, probes, last_id,
                policy](Packet& pkt, bool allow_replies) {
          probes->on_request(s, ep);
          const bool mirror_src = backup && pkt.src_endpoint == primary_ep;
          if (pkt.tag == kTagPull) {
            // Idempotent read; duplicate replies are deduped by the worker.
            if (!allow_replies) return;
            const double grant =
                policy != nullptr
                    ? static_cast<double>(
                          policy->grant(static_cast<int>(pkt.a), self.now()))
                    : 0.0;
            for (std::size_t slot : st.slots()) {
              send_param_reply_rel(s, self, st, shard, ep, slot,
                                   static_cast<int>(pkt.a), pkt.d,
                                   probes.get(), nullptr, grant);
            }
            return;
          }
          common::check(pkt.tag == kTagGrad,
                        "SSP replicated PS: unexpected tag");
          const auto slot = static_cast<std::size_t>(pkt.b);
          const std::size_t local = st.local_index(slot);
          const auto rank = static_cast<std::size_t>(pkt.a);
          if (pkt.d <= (*last_id)[rank][local]) return;  // duplicate push
          if (!mirror_src) {
            probes->staleness->observe(
                static_cast<double>(st.version(local) - pkt.c));
          }
          if (policy != nullptr && slot == 0) {
            policy->on_push(static_cast<int>(pkt.a), self.now());
          }
          self.advance(s.wl.agg_time(pkt.wire_bytes));
          if (s.wl.functional()) {
            st.apply_dense(local, pkt.tensor(0).data(),
                           static_cast<float>(pkt.x), inv_n);
          }
          st.bump_version(local);
          (*last_id)[rank][local] = pkt.d;
          if (mirror_ep >= 0) reliable_send_live(s, self, ep, mirror_ep, pkt);
        };
      });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n, adaptive, controller](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          metrics::Histogram& local_staleness = s.registry.histogram(
              "ssp.local_staleness", {{"worker", std::to_string(rank)}},
              metrics::Histogram::count_bounds());
          metrics::Histogram* bound_h = nullptr;
          if (adaptive) {
            bound_h = &s.registry.histogram(
                "dssp.bound", {{"worker", std::to_string(rank)}},
                metrics::Histogram::count_bounds());
          }
          const std::size_t n_slots = s.wl.num_slots();
          const std::vector<std::size_t> slots = all_slots_of(s);
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          int bound = adaptive ? s.cfg.dssp_s_min : s.cfg.ssp_staleness;
          if (bound_h != nullptr) {
            bound_h->observe(static_cast<double>(bound));
          }
          int staleness = 0;

          const auto send_pull = [&](int shard, std::int64_t round_id) {
            Packet pull;
            pull.tag = kTagPull;
            pull.a = rank;
            pull.d = round_id;
            pull.wire_bytes = net::kControlBytes;
            reliable_push(s, self, wep, shard, pull);
          };

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss =
                compute_iteration(s, self, rank, rng, wm, nullptr);
            for (std::size_t slot = n_slots; slot-- > 0;) {
              Packet pkt = grad_packet(s, rank, slot, epoch, lr, basis[slot],
                                       nullptr, rng);
              pkt.d = it;
              reliable_push(s, self, wep, s.plan.shard_of(slot), pkt);
            }
            local_staleness.observe(static_cast<double>(staleness));

            if (staleness <= bound) {
              ++staleness;
              if (s.wl.functional()) {
                s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                     static_cast<float>(lr) * inv_n);
              }
            } else {
              const double t0 = self.now();
              for (int shard = 0; shard < s.num_shards(); ++shard) {
                send_pull(shard, it);
              }
              int grant = bound;
              await_replies_rel(s, self, rank, wep, slots, it, &basis,
                                [&](int shard) { send_pull(shard, it); },
                                adaptive ? controller : -1,
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
          }
          s.mark_finished(rank, self.now());
        });
  }
}

// -------- reliable EASGD ---------------------------------------------------

void launch_easgd_reliable(Session& s) {
  const float alpha =
      s.cfg.easgd_alpha > 0.0
          ? static_cast<float>(s.cfg.easgd_alpha)
          : static_cast<float>(0.9 / static_cast<double>(s.cfg.easgd_tau));

  spawn_replicated_shards(
      s, [&s, alpha](runtime::Process& self, ps::ShardState& st, int ep,
                     int mirror_ep, bool backup) {
        const int shard = st.shard();
        const int primary_ep = s.ps_ep[static_cast<std::size_t>(shard)];
        auto probes = std::make_shared<PsProbes>(PsProbes::make(
            s, std::to_string(shard) + (backup ? "b" : "")));
        auto last_id = std::make_shared<std::vector<std::vector<std::int64_t>>>(
            static_cast<std::size_t>(s.cfg.num_workers),
            std::vector<std::int64_t>(st.num_local(), -1));

        return [&s, &self, &st, ep, mirror_ep, backup, shard, primary_ep,
                alpha, probes, last_id](Packet& pkt, bool allow_replies) {
          probes->on_request(s, ep);
          common::check(pkt.tag == kTagEasgdPush,
                        "EASGD replicated PS: unexpected tag");
          const bool mirror_src = backup && pkt.src_endpoint == primary_ep;
          const auto slot = static_cast<std::size_t>(pkt.b);
          const std::size_t local = st.local_index(slot);
          const auto rank = static_cast<std::size_t>(pkt.a);
          if (pkt.d > (*last_id)[rank][local]) {
            if (!mirror_src) {
              probes->staleness->observe(
                  static_cast<double>(st.version(local) - pkt.c));
            }
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            Packet reply;
            reply.tag = kTagParams;
            reply.a = shard;
            reply.b = pkt.b;
            reply.d = pkt.d;
            reply.wire_bytes = s.wl.slot_wire_bytes(slot);
            if (s.wl.functional()) {
              // The exchange mutates the center, so it runs for mirrors
              // too (that is what keeps the replicas bitwise identical).
              reply.emplace_payload().tensors.push_back(
                  st.elastic_exchange(local, pkt.tensor(0), alpha));
            }
            st.bump_version(local);
            reply.c = st.version(local);
            (*last_id)[rank][local] = pkt.d;
            if (mirror_ep >= 0) {
              reliable_send_live(s, self, ep, mirror_ep, pkt);
            }
            if (!mirror_src && allow_replies) {
              probes->bytes_served->inc(
                  static_cast<double>(reply.wire_bytes));
              reliable_send_worker(s, self, ep, static_cast<int>(rank),
                                   reply);
            }
          } else if (!mirror_src && allow_replies) {
            // Failover re-push of an exchange the dead primary already
            // performed (and mirrored): the elastic reply died with it, so
            // the worker adopts the current center instead — the
            // documented EASGD failover semantics (docs/faults.md).
            send_param_reply_rel(s, self, st, shard, ep, slot,
                                 static_cast<int>(rank), pkt.d, probes.get());
          }
        };
      });

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank), [&s, rank](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          metrics::Counter& rounds = s.registry.counter(
              "easgd.rounds_total", {{"worker", std::to_string(rank)}});
          const std::size_t n_slots = s.wl.num_slots();
          const std::vector<std::size_t> slots = all_slots_of(s);
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          const int tau = std::max(1, s.cfg.easgd_tau);

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss =
                compute_iteration(s, self, rank, rng, wm, nullptr);
            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                   static_cast<float>(lr));
            }

            if ((it + 1) % tau == 0) {
              const std::int64_t round_id = (it + 1) / tau;
              const double t0 = self.now();
              const auto push_slot = [&](std::size_t slot) {
                Packet pkt;
                pkt.tag = kTagEasgdPush;
                pkt.a = rank;
                pkt.b = static_cast<std::int64_t>(slot);
                pkt.c = basis[slot];
                pkt.d = round_id;
                pkt.wire_bytes = s.wl.slot_wire_bytes(slot);
                if (s.wl.functional()) {
                  pkt.emplace_payload().tensors.push_back(
                      s.wl.param_slot(rank, slot));
                }
                reliable_push(s, self, wep, s.plan.shard_of(slot), pkt);
              };
              for (std::size_t slot = 0; slot < n_slots; ++slot) {
                push_slot(slot);
              }
              await_replies_rel(s, self, rank, wep, slots, round_id, &basis,
                                [&](int shard) {
                                  for (std::size_t slot = 0; slot < n_slots;
                                       ++slot) {
                                    if (s.plan.shard_of(slot) == shard) {
                                      push_slot(slot);
                                    }
                                  }
                                });
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
              rounds.inc();
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          s.mark_finished(rank, self.now());
        });
  }
}

// ======================== BSP ==============================================

void launch_bsp(Session& s, bool local_agg_enabled) {
  const int n_workers = s.cfg.num_workers;
  const float inv_n = 1.0f / static_cast<float>(n_workers);

  // Determine the set of endpoints that push to the PS (machine leaders
  // when local aggregation is on, every worker otherwise).
  std::vector<int> pusher_ranks;
  for (int r = 0; r < n_workers; ++r) {
    if (!local_agg_enabled || s.machine_leader(r) == r) {
      pusher_ranks.push_back(r);
    }
  }
  const auto expected = static_cast<int>(pusher_ranks.size());

  // --- PS shard processes -------------------------------------------------
  for (int shard = 0; shard < s.num_shards(); ++shard) {
    s.engine.spawn(
        "ps" + std::to_string(shard),
        [&s, shard, expected, pusher_ranks, inv_n](runtime::Process& self) {
          const int ep = s.ps_ep[static_cast<std::size_t>(shard)];
          s.network->bind(ep, self);
          auto& st = *s.shards[static_cast<std::size_t>(shard)];
          const PsProbes probes = PsProbes::make(s, shard);
          // `drop` policy: a round closes once every *alive* pusher
          // contributed, rescaled by the actual contributor count. Liveness
          // comes from the membership view when the detector is engaged
          // (Session::member_down); the detector nudges a blocked round
          // closed with a kTagViewChange note on every eviction. Without
          // the detector, detection stays message-driven: a round whose
          // surviving pushes all arrived before the crash instant closes at
          // the crashed rank's next message instead (see docs/faults.md).
          const bool drop_mode =
              s.fault_plan.has_crashes() &&
              s.fault_plan.sync_policy() == faults::SyncPolicy::drop;
          std::vector<int> count(st.num_local(), 0);
          std::vector<float> lr_latest(st.num_local(), 0.0f);
          auto try_apply = [&](std::size_t slot) {
            const std::size_t local = st.local_index(slot);
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
            const float scale =
                drop_mode ? 1.0f / static_cast<float>(count[local]) : inv_n;
            count[local] = 0;
            if (s.wl.functional()) {
              const tensor::Tensor sum = st.take_accumulated(local);
              st.apply_dense(local, sum.data(), lr_latest[local], scale);
            } else {
              self.advance(s.wl.agg_time(s.wl.slot_wire_bytes(slot)));
            }
            st.bump_version(local);
            net::PayloadHandle reply_payload;  // one snapshot for the fan-out
            for (int r : pusher_ranks) {
              // Fan-out skips use *instantaneous* liveness, not the lagged
              // view: a rebooted worker may push again before its
              // readmission is published, and skipping its reply here would
              // strand it waiting while the next round waits on it.
              if (drop_mode &&
                  (s.rank_down(r, self.now()) || s.rank_finished(r))) {
                continue;
              }
              send_param_reply(s, self, shard, slot,
                               s.worker_ep[static_cast<std::size_t>(r)],
                               &probes, &reply_payload);
            }
          };
          for (;;) {
            Packet pkt = s.network->recv(self, ep);
            probes.on_request(s, ep);
            if (pkt.tag == kTagPull) {
              // Crash-recovery pull: serve current params, then re-check
              // rounds that were waiting on the (now rebooted) rank.
              for (std::size_t slot : st.slots()) {
                send_param_reply(
                    s, self, shard, slot,
                    s.worker_ep[static_cast<std::size_t>(pkt.a)], &probes);
              }
              if (drop_mode) {
                for (std::size_t slot : st.slots()) try_apply(slot);
              }
              continue;
            }
            if (pkt.tag == kTagViewChange) {
              // The view lost a member; rounds waiting on it can now close.
              if (drop_mode) {
                for (std::size_t slot : st.slots()) try_apply(slot);
              }
              continue;
            }
            common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                          "BSP PS: unexpected tag");
            const auto slot = static_cast<std::size_t>(pkt.b);
            const std::size_t local = st.local_index(slot);
            // BSP applies round t only after every round-t push arrived, so
            // every gradient meets the exact version it was computed on.
            probes.staleness->observe(
                static_cast<double>(st.version(local) - pkt.c));
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            if (s.wl.functional()) {
              if (pkt.tag == kTagGrad) {
                st.accumulate_dense(local, pkt.tensor(0).data());
              } else {
                st.accumulate_sparse(local, pkt.sparse_indices(0),
                                     pkt.sparse_values(0));
              }
            }
            lr_latest[local] = static_cast<float>(pkt.x);
            ++count[local];
            try_apply(slot);
          }
        },
        /*daemon=*/true);
  }

  // --- worker processes -----------------------------------------------------
  for (int rank = 0; rank < n_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, local_agg_enabled](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
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
          std::function<void(std::size_t)> on_slot;
          if (local_agg_enabled && !is_leader) {
            on_slot = [&](std::size_t slot) {
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
          }
          // Per-slot payload snapshots for the leader's peer broadcast.
          std::vector<net::PayloadHandle> bcast;

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, wep, &basis, ck);
            }
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);

            const double loss =
                compute_iteration(s, self, rank, rng, wm, on_slot);

            if (local_agg_enabled && is_leader) {
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

            if (!local_agg_enabled || is_leader) {
              // Push (locally aggregated) gradients and await fresh params.
              const double t0 = self.now();
              for (std::size_t slot = n_slots; slot-- > 0;) {
                Packet pkt = grad_packet(s, rank, slot, epoch, lr,
                                         basis[slot], dgc.get(), rng);
                s.network->send(
                    self, wep,
                    s.ps_ep[static_cast<std::size_t>(s.plan.shard_of(slot))],
                    std::move(pkt));
              }
              await_params(s, self, rank, wep, n_slots, &basis);
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);

              if (local_agg_enabled && peers.size() > 1) {
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

void launch_asp_impl(Session& s) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);

  for (int shard = 0; shard < s.num_shards(); ++shard) {
    s.engine.spawn(
        "ps" + std::to_string(shard),
        [&s, shard, inv_n](runtime::Process& self) {
          const int ep = s.ps_ep[static_cast<std::size_t>(shard)];
          s.network->bind(ep, self);
          auto& st = *s.shards[static_cast<std::size_t>(shard)];
          const PsProbes probes = PsProbes::make(s, shard);
          for (;;) {
            Packet pkt = s.network->recv(self, ep);
            probes.on_request(s, ep);
            if (pkt.tag == kTagPull) {
              for (std::size_t slot : st.slots()) {
                send_param_reply(
                    s, self, shard, slot,
                    s.worker_ep[static_cast<std::size_t>(pkt.a)], &probes);
              }
              continue;
            }
            if (pkt.tag == kTagViewChange) continue;  // detector note
            common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                          "ASP PS: unexpected tag");
            // Incarnation filter, deliberately *instantaneous* (not the
            // lagged view): a push in flight when its sender crashed is
            // stale, but a rebooted sender's new push must never be
            // discarded while its readmission is still pending.
            if (s.fault_plan.has_crashes() &&
                s.rank_down(static_cast<int>(pkt.a), self.now())) {
              // In-flight push from a crashed incarnation: discard it and
              // send no reply (the rank re-syncs with a pull on rejoin).
              if (s.fprobes.dropped_pushes != nullptr) {
                s.fprobes.dropped_pushes->inc();
              }
              continue;
            }
            const auto slot = static_cast<std::size_t>(pkt.b);
            const std::size_t local = st.local_index(slot);
            // Every update applied since this worker's last pull makes its
            // gradient one step staler — the ASP staleness distribution.
            probes.staleness->observe(
                static_cast<double>(st.version(local) - pkt.c));
            self.advance(s.wl.agg_time(pkt.wire_bytes));
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
            send_param_reply(
                s, self, shard, slot,
                s.worker_ep[static_cast<std::size_t>(pkt.a)], &probes);
          }
        },
        /*daemon=*/true);
  }

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank), [&s, rank](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          auto dgc = make_dgc(s);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);
          const std::size_t n_slots = s.wl.num_slots();
          const std::int64_t iters = s.iterations_per_worker();
          std::vector<std::int64_t> basis(n_slots, 0);
          CrashCheckpoint ck = CrashCheckpoint::make(s);

          for (std::int64_t it = 0; it < iters; ++it) {
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            auto push = [&](std::size_t slot) {
              Packet pkt = grad_packet(s, rank, slot, epoch, lr, basis[slot],
                                       dgc.get(), rng);
              s.network->send(
                  self, wep,
                  s.ps_ep[static_cast<std::size_t>(s.plan.shard_of(slot))],
                  std::move(pkt));
            };
            const double loss = compute_iteration(s, self, rank, rng, wm,
                                                  push);
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              // Crash point: this iteration's pushes are in flight but the
              // PS discards them (rank is down), so no replies are owed —
              // re-sync with a recovery pull instead of awaiting them.
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, wep, &basis, ck);
            } else {
              const double t0 = self.now();
              await_params(s, self, rank, wep, n_slots, &basis);
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
        });
  }
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
// replies (Packet.x), so adaptation adds zero extra messages.

void launch_ssp_impl(Session& s, bool adaptive) {
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);
  const int controller = s.plan.shard_of(0);

  for (int shard = 0; shard < s.num_shards(); ++shard) {
    s.engine.spawn(
        "ps" + std::to_string(shard),
        [&s, shard, inv_n, adaptive, controller](runtime::Process& self) {
          const int ep = s.ps_ep[static_cast<std::size_t>(shard)];
          s.network->bind(ep, self);
          auto& st = *s.shards[static_cast<std::size_t>(shard)];
          const PsProbes probes = PsProbes::make(s, shard);
          std::unique_ptr<StalenessPolicy> policy;
          if (adaptive && shard == controller) {
            policy = std::make_unique<StalenessPolicy>(
                DsspConfig{s.cfg.dssp_s_min, s.cfg.dssp_s_max,
                           s.cfg.dssp_window_s},
                s.cfg.num_workers);
          }
          for (;;) {
            Packet pkt = s.network->recv(self, ep);
            probes.on_request(s, ep);
            if (pkt.tag == kTagRejoin) {
              // Fire-and-forget reboot note: restart the rank's push-rate
              // window so pre-crash speed does not color its first grants.
              if (policy != nullptr) {
                policy->on_rejoin(static_cast<int>(pkt.a));
              }
              continue;
            }
            if (pkt.tag == kTagPull) {
              const double grant =
                  policy != nullptr
                      ? static_cast<double>(
                            policy->grant(static_cast<int>(pkt.a), self.now()))
                      : 0.0;
              for (std::size_t slot : st.slots()) {
                send_param_reply(
                    s, self, shard, slot,
                    s.worker_ep[static_cast<std::size_t>(pkt.a)], &probes,
                    nullptr, grant);
              }
              continue;
            }
            if (pkt.tag == kTagViewChange) continue;  // detector note
            common::check(pkt.tag == kTagGrad || pkt.tag == kTagSparseGrad,
                          "SSP PS: unexpected tag");
            // Instantaneous incarnation filter (see the ASP PS note).
            if (s.fault_plan.has_crashes() &&
                s.rank_down(static_cast<int>(pkt.a), self.now())) {
              if (s.fprobes.dropped_pushes != nullptr) {
                s.fprobes.dropped_pushes->inc();
              }
              continue;
            }
            const auto slot = static_cast<std::size_t>(pkt.b);
            const std::size_t local = st.local_index(slot);
            probes.staleness->observe(
                static_cast<double>(st.version(local) - pkt.c));
            if (policy != nullptr && slot == 0) {
              policy->on_push(static_cast<int>(pkt.a), self.now());
            }
            self.advance(s.wl.agg_time(pkt.wire_bytes));
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
          }
        },
        /*daemon=*/true);
  }

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n, adaptive, controller](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
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
            auto push = [&](std::size_t slot) {
              Packet pkt = grad_packet(s, rank, slot, epoch, lr, basis[slot],
                                       dgc.get(), rng);
              s.network->send(
                  self, wep,
                  s.ps_ep[static_cast<std::size_t>(s.plan.shard_of(slot))],
                  std::move(pkt));
            };
            const double loss = compute_iteration(s, self, rank, rng, wm,
                                                  push);
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              // SSP pushes never generate replies (workers pull explicitly),
              // so a crash here only loses the in-flight gradients. The
              // recovery pull counts as the global sync; a DSSP rejoiner
              // also restarts from the conservative s_min grant.
              s.take_crash(self, rank);
              recover_from_ps(s, self, rank, wep, &basis, ck,
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
                Packet pull;
                pull.tag = kTagPull;
                pull.a = rank;
                pull.wire_bytes = net::kControlBytes;
                s.network->send(self, wep,
                                s.ps_ep[static_cast<std::size_t>(shard)],
                                std::move(pull));
              }
              int grant = bound;
              await_params(s, self, rank, wep, n_slots, &basis,
                           adaptive ? controller : -1,
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
        });
  }
}

// ======================== EASGD ============================================

void launch_easgd_impl(Session& s) {
  const float alpha =
      s.cfg.easgd_alpha > 0.0
          ? static_cast<float>(s.cfg.easgd_alpha)
          : static_cast<float>(0.9 / static_cast<double>(s.cfg.easgd_tau));
  const float inv_n = 1.0f / static_cast<float>(s.cfg.num_workers);

  for (int shard = 0; shard < s.num_shards(); ++shard) {
    s.engine.spawn(
        "ps" + std::to_string(shard),
        [&s, shard, alpha](runtime::Process& self) {
          const int ep = s.ps_ep[static_cast<std::size_t>(shard)];
          s.network->bind(ep, self);
          auto& st = *s.shards[static_cast<std::size_t>(shard)];
          const PsProbes probes = PsProbes::make(s, shard);
          for (;;) {
            Packet pkt = s.network->recv(self, ep);
            probes.on_request(s, ep);
            if (pkt.tag == kTagPull) {
              // Crash-recovery pull: the rejoined worker re-seeds its
              // replica from the center variable.
              for (std::size_t slot : st.slots()) {
                send_param_reply(
                    s, self, shard, slot,
                    s.worker_ep[static_cast<std::size_t>(pkt.a)], &probes);
              }
              continue;
            }
            if (pkt.tag == kTagViewChange) continue;  // detector note
            common::check(pkt.tag == kTagEasgdPush,
                          "EASGD PS: unexpected tag");
            // Instantaneous incarnation filter (see the ASP PS note).
            if (s.fault_plan.has_crashes() &&
                s.rank_down(static_cast<int>(pkt.a), self.now())) {
              if (s.fprobes.dropped_pushes != nullptr) {
                s.fprobes.dropped_pushes->inc();
              }
              continue;
            }
            const auto slot = static_cast<std::size_t>(pkt.b);
            const std::size_t local = st.local_index(slot);
            // Center updates since the worker's previous exchange of this
            // slot = how stale its view of the center was at push time.
            probes.staleness->observe(
                static_cast<double>(st.version(local) - pkt.c));
            self.advance(s.wl.agg_time(pkt.wire_bytes));
            Packet reply;
            reply.tag = kTagParams;
            reply.a = shard;
            reply.b = pkt.b;
            reply.wire_bytes = s.wl.slot_wire_bytes(slot);
            if (s.wl.functional()) {
              reply.emplace_payload().tensors.push_back(
                  st.elastic_exchange(local, pkt.tensor(0), alpha));
            }
            st.bump_version(local);
            reply.c = st.version(local);
            probes.bytes_served->inc(static_cast<double>(reply.wire_bytes));
            s.network->send(self, ep,
                            s.worker_ep[static_cast<std::size_t>(pkt.a)],
                            std::move(reply));
          }
        },
        /*daemon=*/true);
  }

  for (int rank = 0; rank < s.cfg.num_workers; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, inv_n](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
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
              recover_from_ps(s, self, rank, wep, &basis, ck);
            }
            const double epoch = s.epoch_of(it);
            const double lr = s.lr_at(epoch);
            const double loss = compute_iteration(s, self, rank, rng, wm,
                                                  nullptr);
            if (s.wl.functional()) {
              s.wl.apply_gradients(rank, s.wl.gradients(rank),
                                   static_cast<float>(lr));
            }

            if ((it + 1) % tau == 0) {
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
                s.network->send(
                    self, wep,
                    s.ps_ep[static_cast<std::size_t>(s.plan.shard_of(slot))],
                    std::move(pkt));
              }
              await_params(s, self, rank, wep, n_slots, &basis);
              account_window(self, wm, t0, ps_roundtrip_estimate(s, rank),
                             sync);
              rounds.inc();
            }
            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
            ck.maybe_snapshot(s, self, rank);
          }
        });
  }
}

}  // namespace

void launch_bsp(Session& s) {
  // Reliable mode replaces the PS protocol wholesale (and skips local
  // aggregation: the machine-leader gather assumes loss-free local links).
  if (s.reliable_mode()) {
    launch_bsp_reliable(s);
    return;
  }
  // Crash plans disable local aggregation: a dead machine leader would
  // orphan its whole machine's round, and the leader-gather counts assume
  // a fixed co-located worker set.
  const bool local_agg = s.cfg.opt.local_aggregation && !use_dgc(s) &&
                         s.cfg.cluster.workers_per_machine > 1 &&
                         s.cfg.num_workers > 1 &&
                         !s.fault_plan.has_crashes();
  launch_bsp(s, local_agg);
}

void launch_asp(Session& s) {
  if (s.reliable_mode()) {
    launch_asp_reliable(s);
    return;
  }
  launch_asp_impl(s);
}

void launch_ssp(Session& s) {
  if (s.reliable_mode()) {
    launch_ssp_reliable(s, /*adaptive=*/false);
    return;
  }
  launch_ssp_impl(s, /*adaptive=*/false);
}

void launch_dssp(Session& s) {
  if (s.reliable_mode()) {
    launch_ssp_reliable(s, /*adaptive=*/true);
    return;
  }
  launch_ssp_impl(s, /*adaptive=*/true);
}

void launch_easgd(Session& s) {
  if (s.reliable_mode()) {
    launch_easgd_reliable(s);
    return;
  }
  launch_easgd_impl(s);
}

}  // namespace dt::core
