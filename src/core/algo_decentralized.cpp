// Decentralized distributed training algorithms (paper Section IV): no
// parameter server. AR-SGD sums gradients over a ring AllReduce; GoSGD,
// AD-PSGD and the D-PSGD extension average whole replicas with their
// peers, through one worker loop and one responder loop over an exchange
// policy each (the responders stand in for the papers' background
// communication threads).
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "compress/dgc.hpp"
#include "core/algo_common.hpp"
#include "core/protocol.hpp"
#include "core/session.hpp"
#include "metrics/metrics.hpp"
#include "net/collectives.hpp"

namespace dt::core {

namespace {

using metrics::Phase;
using metrics::PhaseTimer;
using net::Packet;

/// Whole-model parameter packet (decentralized exchanges).
Packet param_packet(Session& s, int rank, int tag) {
  Packet pkt;
  pkt.tag = tag;
  pkt.a = rank;
  pkt.wire_bytes = s.wl.total_wire_bytes();
  if (s.wl.functional()) pkt.emplace_payload().tensors = s.wl.params(rank);
  return pkt;
}

/// Nearest peer clockwise of `rank` that is live and, with `in_view`, a
/// member of the current view (-1 when none).
int nearest_live_peer(Session& s, const runtime::Process& self, int rank,
                      bool in_view) {
  const int n = s.cfg.num_workers;
  for (int d = 1; d < n; ++d) {
    const int cand = (rank + d) % n;
    if ((!in_view || s.oracle().in_view(cand)) &&
        !s.rank_down(cand, self.now())) {
      return cand;
    }
  }
  return -1;
}

/// Copies peer `src`'s replica into `rank`'s. The copy is a modeled
/// out-of-band transfer (Network::transfer), so no packet lands in any
/// mailbox and the normal message protocol is undisturbed.
void copy_replica(Session& s, runtime::Process& self, int src, int rank) {
  s.network->transfer(self, s.worker_ep[static_cast<std::size_t>(src)],
                      s.worker_ep[static_cast<std::size_t>(rank)],
                      s.wl.total_wire_bytes());
  if (s.wl.functional()) s.wl.set_params(rank, s.wl.params(src));
}

// ---- ring repair (membership views; docs/faults.md) -----------------------
//
// AR-SGD and D-PSGD run one ring each. A static ring is the view of every
// worker at epoch 0, never republished: rounds block on their receives and
// always complete. Under sync_policy=drop with crashes the ring follows the
// oracle's epoch-numbered views instead: survivors abort the in-flight
// round when a new view is published, flush the aborted round's parked
// chunks, and deterministically re-form the ring over the live member set
// (chunk ranges rescale inside net::collectives). A crashed rank pulls
// state from its nearest live member and is readmitted at the next epoch
// boundary.

/// True when the ring follows the oracle's views. Kept narrower than
/// membership_engaged(): enabled-only runs (measurement) keep the static
/// ring and its stall recovery bit-identical.
bool ring_repair_active(const Session& s) {
  return s.membership_engaged() && s.fault_plan.has_crashes() &&
         s.fault_plan.sync_policy() == faults::SyncPolicy::drop;
}

/// Communicator over the view's member set; my_rank is the index of `rank`
/// in the (sorted) member list. `rank` must be a member.
net::Communicator view_comm(Session& s, const std::vector<int>& members,
                            int rank) {
  net::Communicator comm{.net = s.network.get(), .endpoints = {}, .my_rank = 0};
  comm.endpoints.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    comm.endpoints.push_back(
        s.worker_ep[static_cast<std::size_t>(members[i])]);
    if (members[i] == rank) comm.my_rank = static_cast<int>(i);
  }
  return comm;
}

/// Post-reboot recovery for the elastic ring (the drop-mode counterpart of
/// NeighbourWorker::recover). Two cases:
///
///  * still in the view — the outage was refuted before eviction, so the
///    ring stalled but never re-formed and peers are parked inside the
///    current round. Copy the nearest live member's replica and resume;
///    no abort happened, the round completes normally.
///  * evicted — pull state from a live member of the current view via an
///    out-of-band transfer, re-pulling when the view moves or the source
///    dies mid-pull (crash-during-repair: the copied bytes could span two
///    versions), then request readmission. The detector publishes it at
///    the next epoch boundary; survivors abort their round and re-form
///    the ring including this rank.
void elastic_rejoin(Session& s, runtime::Process& self, int rank) {
  auto& oracle = s.oracle();
  const double poll = oracle.config().period_s;
  const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
  const bool fn = s.wl.functional();

  if (oracle.in_view(rank)) {
    const int src = nearest_live_peer(s, self, rank, /*in_view=*/true);
    if (src >= 0) copy_replica(s, self, src, rank);
    return;
  }

  for (;;) {
    if (oracle.view().members.empty()) break;  // no state holder left
    const std::int64_t e = oracle.epoch();
    const int src = nearest_live_peer(s, self, rank, /*in_view=*/true);
    if (src < 0) {
      self.advance(poll);  // members exist but are all down — wait
      continue;
    }
    s.network->transfer(self, s.worker_ep[static_cast<std::size_t>(src)],
                        wep, s.wl.total_wire_bytes());
    if (oracle.epoch() == e && !s.rank_down(src, self.now())) {
      if (fn) s.wl.set_params(rank, s.wl.params(src));
      break;
    }
  }
  oracle.request_join(rank);
  while (!oracle.in_view(rank)) self.advance(poll);
}

/// Unique ring neighbours of `rank` in the sorted `members`: the next
/// member, then the previous one when distinct. None when `rank` is alone
/// or not a member.
std::vector<int> ring_neighbours(const std::vector<int>& members, int rank) {
  const auto it = std::lower_bound(members.begin(), members.end(), rank);
  const std::size_t k = members.size();
  if (k < 2 || it == members.end() || *it != rank) return {};
  const auto idx = static_cast<std::size_t>(it - members.begin());
  std::vector<int> out{members[(idx + 1) % k]};
  const int prev = members[(idx + k - 1) % k];
  if (prev != out.front()) out.push_back(prev);
  return out;
}

// ======================== AR-SGD ===========================================
//
// Synchronous ring AllReduce of gradients every iteration (Reduce-Scatter +
// All-Gather, as implemented in MPICH). With wait-free BP the parameter
// slots are grouped into a few buckets, and each bucket's AllReduce starts
// as soon as its share of the backward pass finishes — communication of
// bucket b overlaps computation of bucket b-1.

struct Bucket {
  std::size_t first_slot = 0;  // slots [first, last) in forward order
  std::size_t last_slot = 0;
  std::int64_t numel = 0;          // functional elements
  std::uint64_t wire_bytes = 0;
  double bwd_time = 0.0;           // nominal backward share
};

std::vector<Bucket> make_buckets(const Session& s, int desired) {
  const std::size_t n = s.wl.num_slots();
  const int count =
      std::clamp<int>(desired, 1, static_cast<int>(n));
  std::vector<Bucket> buckets(static_cast<std::size_t>(count));
  // Contiguous slot ranges, near-equal in slot count.
  for (int b = 0; b < count; ++b) {
    const std::size_t first = n * static_cast<std::size_t>(b) /
                              static_cast<std::size_t>(count);
    const std::size_t last = n * static_cast<std::size_t>(b + 1) /
                             static_cast<std::size_t>(count);
    Bucket& bk = buckets[static_cast<std::size_t>(b)];
    bk.first_slot = first;
    bk.last_slot = last;
    for (std::size_t slot = first; slot < last; ++slot) {
      bk.numel += s.wl.slot_numel(slot);
      bk.wire_bytes += s.wl.slot_wire_bytes(slot);
      bk.bwd_time += s.wl.backward_slot_time(slot);
    }
  }
  return buckets;
}

/// The AllReduce round of one bucket that completed.
struct RingRound {
  int contributors = 1;  // ranks whose gradients the round summed
  double est = 0.0;      // its uncontended duration (account_window)
};

/// Sum-AllReduces `flat` (bucket `bucket`, `wire` bytes) over the ring.
/// The static ring (`everyone` at epoch 0) completes on the first pass.
/// Under ring repair each pass forms the ring over the oracle's current
/// view and aborts when a new view is published; `refill` then restores
/// `flat` from the gradient slots (the aborted pass left partial sums in
/// it) and the next pass retries under the new view. Only one dense bucket
/// runs under ring repair (Session validation), so `refill` never
/// re-compresses.
template <class Refill>
RingRound allreduce_bucket(Session& s, runtime::Process& self, int rank,
                           const net::Communicator& everyone, bool repair,
                           std::vector<float>& flat, std::uint64_t wire,
                           int bucket, Refill&& refill) {
  for (;;) {
    std::int64_t e = 0;
    net::Communicator view_ring;
    std::optional<net::AbortGuard> guard;
    if (repair) {
      auto& oracle = s.oracle();
      const double poll = oracle.config().period_s;
      if (!oracle.in_view(rank)) {
        // Evicted while live (a straggler silent beyond timeout+confirm):
        // ask back in, wait for the boundary.
        oracle.request_join(rank);
        self.advance(poll);
        continue;
      }
      e = oracle.epoch();
      const std::vector<int>& members = oracle.view().members;
      if (members.size() <= 1) return {};  // solo round: own gradient
      s.mprobes.flushed_packets->inc(net::flush_stale_epochs(
          self, *s.network, everyone.my_endpoint(), kTagAllreduce, e));
      view_ring = view_comm(s, members, rank);
      guard = net::AbortGuard{poll,
                              [&oracle, e] { return oracle.epoch() != e; }};
    }
    const net::Communicator& comm = repair ? view_ring : everyone;
    const net::ElasticStatus st = net::ring_allreduce(
        self, comm, flat, wire,
        net::epoch_tag_base(kTagAllreduce, e) + 2 * bucket, e,
        guard.has_value() ? &*guard : nullptr);
    if (st.completed) {
      const int k = comm.size();
      const std::uint64_t chunk =
          std::max<std::uint64_t>(1, wire / static_cast<std::uint64_t>(k));
      const int right_ep =
          comm.endpoints[static_cast<std::size_t>((comm.my_rank + 1) % k)];
      return {k, 2.0 * static_cast<double>(k - 1) *
                     s.uncontended_time(chunk, comm.my_endpoint(), right_ep)};
    }
    s.mprobes.aborted_rounds->inc();
    refill();
  }
}

}  // namespace

void launch_arsgd(Session& s) {
  const int n = s.cfg.num_workers;
  const bool repair = ring_repair_active(s);
  const bool dgc_on = s.cfg.opt.dgc;
  const double dgc_density = dgc_steady_density(s);

  for (int rank = 0; rank < n; ++rank) {
    s.engine.spawn(
        "worker" + std::to_string(rank),
        [&s, rank, n, repair, dgc_on, dgc_density](runtime::Process& self) {
          const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
          s.network->bind(wep, self);
          auto& wm = s.wmetrics[static_cast<std::size_t>(rank)];
          common::Rng rng = s.worker_rng(rank);
          CurveRecorder curve(s, rank);
          const SyncProbes sync = SyncProbes::make(s);

          const net::Communicator everyone{.net = s.network.get(),
                                           .endpoints = s.worker_ep,
                                           .my_rank = rank};

          const std::unique_ptr<compress::DgcCompressor> dgc = make_dgc(s);

          const auto buckets =
              make_buckets(s, s.cfg.opt.wait_free_bp ? 4 : 1);
          const std::int64_t iters = s.iterations_per_worker();
          const bool fn = s.wl.functional();

          for (std::int64_t it = 0; it < iters; ++it) {
            if (s.fault_plan.has_crashes() &&
                s.crash_pending(rank, self.now())) {
              s.take_crash(self, rank);
              if (repair) {
                elastic_rejoin(s, self, rank);
              } else if (n > 1) {
                // The ring stalls while this rank is down (no bucket's
                // collective can complete without it), so every peer
                // replica is frozen at this rank's own step — copy the
                // right neighbor's. Checkpoint restore is never used:
                // resuming an older step would desynchronize the ring. The
                // mailbox is NOT drained; it may hold valid in-step ring
                // chunks.
                copy_replica(s, self, (rank + 1) % n, rank);
              }
            }
            const double epoch = s.epoch_of(it);
            const float lr = s.lr_at(epoch);

            double loss = 0.0;
            {
              PhaseTimer t(self, wm, Phase::compute);
              // AR-SGD workers touch only their own replica until the
              // AllReduce below, so forward+backward can run on the host
              // pool over the modeled forward interval (see
              // Process::advance_compute; the RNG draw stays on the
              // simulated thread).
              const double fwd =
                  s.fault_stretch(self, rank, s.wl.forward_time(rng));
              if (fn) {
                self.advance_compute(
                    fwd, [&s, &loss, rank] { loss = s.wl.compute_gradients(rank); });
              } else {
                self.advance(fwd);
              }
              if (!s.cfg.opt.wait_free_bp) {
                self.advance(
                    s.fault_stretch(self, rank, s.wl.backward_time(rng)));
              }
            }

            // AllReduce per bucket, last bucket (output layers) first —
            // with wait-free BP its backward share is advanced right
            // before its collective, so buckets pipeline.
            double nominal_bwd = 0.0;
            for (const auto& b : buckets) nominal_bwd += b.bwd_time;
            const double total_bwd =
                s.cfg.opt.wait_free_bp
                    ? s.fault_stretch(self, rank, s.wl.backward_time(rng))
                    : 0.0;
            const double bwd_scale =
                nominal_bwd > 0.0 ? total_bwd / nominal_bwd : 0.0;

            std::vector<float> flat;  // gradient buffer for current bucket
            // Flattens `bucket`'s gradient slots into `flat` (DGC-masked
            // when on) and returns the bucket's wire size.
            const auto flatten = [&](const Bucket& bucket) {
              flat.clear();
              std::uint64_t wire = bucket.wire_bytes;
              if (fn) {
                flat.assign(static_cast<std::size_t>(bucket.numel), 0.0f);
                std::size_t off = 0;
                std::uint64_t sparse_wire = 0;
                for (std::size_t slot = bucket.first_slot;
                     slot < bucket.last_slot; ++slot) {
                  const auto& g = s.wl.grad_slot(rank, slot);
                  if (dgc) {
                    // DGC mask: only the selected entries enter the
                    // AllReduce; the wire cost is the sparse encoding.
                    auto sp = dgc->compress(slot, g.data(), epoch);
                    for (std::size_t j = 0; j < sp.indices.size(); ++j) {
                      flat[off + sp.indices[j]] = sp.values[j];
                    }
                    sparse_wire += sp.wire_bytes();
                  } else {
                    std::copy(g.data().begin(), g.data().end(),
                              flat.begin() + static_cast<std::ptrdiff_t>(off));
                  }
                  off += static_cast<std::size_t>(s.wl.slot_numel(slot));
                }
                if (dgc) wire = std::max<std::uint64_t>(8, sparse_wire);
              } else if (dgc_on) {
                wire = std::max<std::uint64_t>(
                    8, static_cast<std::uint64_t>(
                           static_cast<double>(wire) * dgc_density * 2.0));
              }
              return wire;
            };
            for (std::size_t bi = buckets.size(); bi-- > 0;) {
              const Bucket& bucket = buckets[bi];
              if (s.cfg.opt.wait_free_bp) {
                PhaseTimer t(self, wm, Phase::compute);
                self.advance(bucket.bwd_time * bwd_scale);
              }

              const std::uint64_t wire = flatten(bucket);
              const double t0 = self.now();
              const RingRound round = allreduce_bucket(
                  s, self, rank, everyone, repair, flat, wire,
                  static_cast<int>(bi), [&] { flatten(bucket); });
              account_window(self, wm, t0, round.est, sync);

              if (fn) {
                // Average over the contributors of the completed round and
                // apply this bucket's slots locally. Every member of that
                // round applies the identical averaged gradient, so
                // replicas stay synchronized like BSP.
                const float inv = 1.0f / static_cast<float>(round.contributors);
                std::size_t off = 0;
                for (std::size_t slot = bucket.first_slot;
                     slot < bucket.last_slot; ++slot) {
                  const auto numel =
                      static_cast<std::size_t>(s.wl.slot_numel(slot));
                  tensor::Tensor g(s.wl.grad_slot(rank, slot).shape());
                  for (std::size_t j = 0; j < numel; ++j) {
                    g[j] = flat[off + j] * inv;
                  }
                  off += numel;
                  s.wl.apply_slot_gradient(rank, slot, g, lr);
                }
              }
            }

            wm.count_iteration(s.wl.batch_size());
            curve.maybe_record(self, it + 1, loss);
          }
          // Under ring repair, leave the view (immediate publication):
          // remaining members shrink their ring instead of waiting on a
          // departed peer.
          if (repair) s.mark_finished(rank, self.now());
        });
  }
}

namespace {

// ======================== Neighbour exchange ===============================
//
// GoSGD, AD-PSGD and D-PSGD average whole replicas with their peers through
// one worker loop and one responder loop (the papers' background
// communication thread). An exchange policy supplies what differs: open()
// picks the peer and starts the exchange, before compute or (with
// kOpensAfterStep) after the local step; close() blends after compute; the
// responder's ranks, reply and merge (a worker binds its endpoint where no
// responder does); recover() and depart(). Gradients run on the host pool
// (compute_iteration), so a responder joins its rank's in-flight compute
// (Process::join_compute) before it changes the replica.

/// What one protocol's processes share.
struct Neighbourhood {
  std::vector<runtime::Process*> workers;  // for the responders' join
  std::vector<double> weights;             // GoSGD's push-sum weights
};

/// The worker state every exchange policy shares, and the defaults: no
/// responder, recovery from the nearest live peer.
struct NeighbourWorker {
  static constexpr bool kOpensAfterStep = false;
  static constexpr const char* kRxName = "";
  static constexpr const char* kRxServed = "";
  static constexpr int kRxTag = 0;

  Session& s;
  runtime::Process& self;
  const int rank;
  Neighbourhood& nb;
  const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
  metrics::WorkerMetrics& wm = s.wmetrics[static_cast<std::size_t>(rank)];
  common::Rng rng = s.worker_rng(rank);
  CurveRecorder curve{s, rank};
  CrashCheckpoint ck = CrashCheckpoint::make(s);

  NeighbourWorker(Session& session, runtime::Process& proc, int r,
                  Neighbourhood& hood)
      : s(session), self(proc), rank(r), nb(hood) {}

  /// True (and counted) when the drawn peer is down: the exchange is
  /// skipped. Checked after the draw, so the RNG stream is identical with
  /// and without live crashes.
  [[nodiscard]] bool peer_down(int peer) const {
    if (!s.fault_plan.has_crashes() || !s.rank_down(peer, self.now())) {
      return false;
    }
    if (s.fprobes.skipped_peers != nullptr) s.fprobes.skipped_peers->inc();
    return true;
  }

  /// Post-reboot recovery: restore the last local checkpoint, or copy the
  /// replica of the nearest alive peer (with none, resume from the
  /// reboot-local state).
  void recover() {
    if (ck.restore(s, self, rank)) return;
    const int src = nearest_live_peer(s, self, rank, /*in_view=*/false);
    if (src >= 0) copy_replica(s, self, src, rank);
  }
  void close() {}
  void depart() {}
  static bool responds(int /*rank*/) { return false; }
  static void reply(Session& /*s*/, runtime::Process& /*self*/, int /*rank*/,
                    const Packet& /*pkt*/) {}
  static void merge(Session& /*s*/, Neighbourhood& /*nb*/, int /*rank*/,
                    const Packet& /*pkt*/) {}
};

/// GoSGD (Blot et al.): after its local step a worker halves its mixing
/// weight with probability p and pushes (params, weight) to a uniformly
/// random peer, continuing at once. Every rank's responder merges pushes
/// by weighted averaging.
struct Gossip : NeighbourWorker {
  static constexpr bool kOpensAfterStep = true;
  static constexpr const char* kRxName = "gossip-rx";
  static constexpr const char* kRxServed = "gossip.recvs_total";
  static constexpr int kRxTag = kTagGossip;
  metrics::Counter& sends = s.registry.counter(
      "gossip.sends_total", {{"worker", std::to_string(rank)}});

  using NeighbourWorker::NeighbourWorker;

  void open() {
    const int n = s.cfg.num_workers;
    if (n <= 1 || !rng.bernoulli(s.cfg.gosgd_p)) return;
    PhaseTimer t(self, wm, Phase::comm);
    int target =
        static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(n - 1)));
    if (target >= rank) ++target;
    if (peer_down(target)) return;
    double& w = nb.weights[static_cast<std::size_t>(rank)];
    w /= 2.0;
    Packet pkt = param_packet(s, rank, kTagGossip);
    pkt.x = w;
    s.network->send(self, wep, s.worker_ep[static_cast<std::size_t>(target)],
                    std::move(pkt));
    sends.inc();
  }

  static bool responds(int /*rank*/) { return true; }
  static void merge(Session& s, Neighbourhood& nb, int rank,
                    const Packet& pkt) {
    double& w = nb.weights[static_cast<std::size_t>(rank)];
    const double w_new = w + pkt.x;
    if (s.wl.functional()) {
      s.wl.blend_params(rank, pkt.tensors(), static_cast<float>(pkt.x / w_new));
    }
    w = w_new;
  }
};

/// AD-PSGD (Lian et al. 2018): pairwise averaging on a bipartite graph,
/// which keeps it deadlock-free. An active (even rank) sends its params to
/// a random passive (odd rank), computes while they are in flight, then
/// blends the passive's reply. The passive's responder replies with its
/// pre-blend params and blends the active's, so both end at the average.
struct PairwiseAverage : NeighbourWorker {
  static constexpr const char* kRxName = "adpsgd-rx";
  static constexpr const char* kRxServed = "adpsgd.serves_total";
  static constexpr int kRxTag = kTagAdpsgdReq;
  const SyncProbes sync = SyncProbes::make(s);
  metrics::Counter& exchanges = s.registry.counter(
      "adpsgd.exchanges_total", {{"worker", std::to_string(rank)}});
  int peer_ep = -1;  // the passive of the exchange in flight, or -1

  using NeighbourWorker::NeighbourWorker;

  void open() {
    peer_ep = -1;
    if (responds(rank) || s.cfg.num_workers < 2) return;
    PhaseTimer t(self, wm, Phase::comm);
    const auto passives = static_cast<std::uint64_t>(s.cfg.num_workers / 2);
    const int peer = 1 + 2 * static_cast<int>(rng.uniform_u64(passives));
    if (peer_down(peer)) return;
    peer_ep = s.worker_ep[static_cast<std::size_t>(peer)];
    s.network->send(self, wep, peer_ep, param_packet(s, rank, kTagAdpsgdReq));
  }

  void close() {
    if (peer_ep < 0) return;
    const double t0 = self.now();
    Packet reply = s.network->recv(self, wep, kTagAdpsgdReply);
    account_window(self, wm, t0,
                   2.0 * s.uncontended_time(reply.wire_bytes, wep, peer_ep),
                   sync);
    exchanges.inc();
    if (s.wl.functional()) s.wl.blend_params(rank, reply.tensors(), 0.5f);
  }

  static bool responds(int rank) { return rank % 2 == 1; }
  /// Unconditional, even while this rank is down: an active whose request
  /// raced the crash is never left blocking.
  static void reply(Session& s, runtime::Process& self, int rank,
                    const Packet& pkt) {
    s.network->send(self, s.worker_ep[static_cast<std::size_t>(rank)],
                    pkt.src_endpoint, param_packet(s, rank, kTagAdpsgdReply));
  }
  static void merge(Session& s, Neighbourhood& /*nb*/, int rank,
                    const Packet& pkt) {
    if (s.wl.functional()) s.wl.blend_params(rank, pkt.tensors(), 0.5f);
  }
};

/// D-PSGD (Lian et al. 2017), an extension beyond the paper's seven: each
/// iteration a worker sends its parameters to both ring neighbours,
/// replaces them by the mean of {self, neighbours} and applies its own
/// gradient (computed at the pre-averaging point). Round parity rides in
/// the tag, so a worker one step ahead cannot feed a neighbour still in the
/// current round. Neighbours and parity come from the ring's view: under
/// ring repair every member resets its parity at a new view, and a round
/// whose exchange aborts on a view change falls back to a solo step
/// instead of retrying — the parameters were already sent.
struct RingAverage : NeighbourWorker {
  const bool repair = ring_repair_active(s);
  membership::MembershipOracle* const oracle = repair ? &s.oracle() : nullptr;
  const SyncProbes sync = SyncProbes::make(s);
  std::int64_t seen_epoch = -1;
  std::int64_t rounds_in_epoch = 0;
  std::int64_t e = 0;  // the open round's epoch and tag
  int tag = 0;
  std::vector<int> everyone;  // the static ring's view
  std::vector<int> nbrs;
  std::vector<Packet> received;

  RingAverage(Session& session, runtime::Process& proc, int r,
              Neighbourhood& hood)
      : NeighbourWorker(session, proc, r, hood),
        everyone(static_cast<std::size_t>(session.cfg.num_workers)) {
    std::iota(everyone.begin(), everyone.end(), 0);
    if (repair) ck = CrashCheckpoint{};  // checkpoints serve stalls only
  }

  /// Stall: neighbours wait in their recv of this round's parity tag until
  /// the rejoined rank re-sends. The mailbox is NOT drained; it holds their
  /// valid in-round packets.
  void recover() {
    if (repair) {
      elastic_rejoin(s, self, rank);
    } else {
      NeighbourWorker::recover();
    }
  }

  void open() {
    e = repair ? oracle->epoch() : 0;
    if (e != seen_epoch) {
      seen_epoch = e;
      rounds_in_epoch = 0;
      nbrs = ring_neighbours(repair ? oracle->view().members : everyone, rank);
    }
    // Evicted while live: run solo rounds, asking back in; the readmission
    // lands at the next epoch boundary.
    if (repair && !oracle->in_view(rank)) oracle->request_join(rank);
    tag = net::epoch_tag_base(kTagDpsgd, e) +
          static_cast<int>(rounds_in_epoch % 2);
    if (nbrs.empty()) return;
    PhaseTimer t(self, wm, Phase::comm);
    if (repair) {
      s.mprobes.flushed_packets->inc(
          net::flush_stale_epochs(self, *s.network, wep, kTagDpsgd, e));
    }
    // One parameter snapshot serves every neighbour (its Packet copies
    // share the payload): only this process blends into its replica.
    // Packet.c carries the epoch so a neighbour in another view discards it.
    Packet proto = param_packet(s, rank, tag);
    proto.c = e;
    for (int peer : nbrs) {
      s.network->send(self, wep, s.worker_ep[static_cast<std::size_t>(peer)],
                      Packet(proto));
    }
  }

  /// Collects and blends the round's neighbour packets. The parity counter
  /// moves here: nothing up to the local step yields, so the view cannot
  /// change before it.
  void close() {
    if (!nbrs.empty()) {
      const double t0 = self.now();
      std::optional<net::AbortGuard> guard;
      if (repair) {
        guard = net::AbortGuard{
            oracle->config().period_s,
            [oracle = oracle, e = e] { return oracle->epoch() != e; }};
      }
      received.clear();
      while (received.size() < nbrs.size()) {
        std::optional<Packet> pkt =
            net::recv_in_epoch(self, *s.network, wep, tag, e,
                               guard.has_value() ? &*guard : nullptr);
        if (!pkt.has_value()) break;
        received.push_back(std::move(*pkt));
      }
      const bool aborted = received.size() < nbrs.size();
      double est = 0.0;
      if (aborted) {
        s.mprobes.aborted_rounds->inc();
      } else {
        est = 2.0 * s.uncontended_time(
                        received.front().wire_bytes, wep,
                        s.worker_ep[static_cast<std::size_t>(nbrs.front())]);
      }
      account_window(self, wm, t0, est, sync);
      // Uniform average over {self} u neighbours: blending packet k
      // (0-based) with weight 1/(k+2) keeps a running mean.
      for (std::size_t k = 0; !aborted && s.wl.functional() &&
                              k < received.size(); ++k) {
        s.wl.blend_params(rank, received[k].tensors(),
                          1.0f / static_cast<float>(k + 2));
      }
    }
    if (!repair || oracle->epoch() == e) ++rounds_in_epoch;
  }

  /// Under ring repair, leave the view (see launch_arsgd).
  void depart() {
    if (repair) s.mark_finished(rank, self.now());
  }
};

template <class Worker>
void run_neighbour_worker(Session& s, runtime::Process& self, int rank,
                          Neighbourhood& nb) {
  Worker w(s, self, rank, nb);
  if (!Worker::responds(rank)) s.network->bind(w.wep, self);
  const std::int64_t iters = s.iterations_per_worker();
  for (std::int64_t it = 0; it < iters; ++it) {
    if (s.fault_plan.has_crashes() && s.crash_pending(rank, self.now())) {
      s.take_crash(self, rank);
      w.recover();
    }
    const float lr = s.lr_at(s.epoch_of(it));
    if (!Worker::kOpensAfterStep) w.open();
    const double loss = compute_iteration(s, self, rank, w.rng, w.wm);
    w.close();
    if (s.wl.functional()) s.wl.apply_gradients(rank, s.wl.gradients(rank), lr);
    if (Worker::kOpensAfterStep) w.open();
    w.wm.count_iteration(s.wl.batch_size());
    w.curve.maybe_record(self, it + 1, loss);
    w.ck.maybe_snapshot(s, self, rank);
  }
  w.depart();
}

/// `rank`'s responder: answers each packet, then merges it unless the rank
/// is down — a packet for a crashed incarnation is lost (GoSGD's with the
/// weight its sender already halved).
template <class Worker>
void serve_neighbour(Session& s, runtime::Process& self, int rank,
                     Neighbourhood& nb) {
  const int wep = s.worker_ep[static_cast<std::size_t>(rank)];
  s.network->bind(wep, self);
  metrics::Counter& served = s.registry.counter(
      Worker::kRxServed, {{"worker", std::to_string(rank)}});
  for (;;) {
    Packet pkt = s.network->recv(self, wep, Worker::kRxTag);
    served.inc();
    self.advance(s.wl.agg_time(pkt.wire_bytes));
    nb.workers[static_cast<std::size_t>(rank)]->join_compute();
    Worker::reply(s, self, rank, pkt);
    if (s.fault_plan.has_crashes() && s.rank_down(rank, self.now())) {
      if (s.fprobes.dropped_pushes != nullptr) s.fprobes.dropped_pushes->inc();
      continue;
    }
    Worker::merge(s, nb, rank, pkt);
  }
}

/// Spawns exchange policy `Worker`'s responder daemons, then its workers.
template <class Worker>
void launch_exchange(Session& s) {
  const int n = s.cfg.num_workers;
  auto nb = std::make_shared<Neighbourhood>(Neighbourhood{
      std::vector<runtime::Process*>(static_cast<std::size_t>(n)),
      std::vector<double>(static_cast<std::size_t>(n),
                          1.0 / static_cast<double>(n))});
  for (int rank = 0; rank < n; ++rank) {
    if (!Worker::responds(rank)) continue;
    s.engine.spawn(
        Worker::kRxName + std::to_string(rank),
        [&s, rank, nb](runtime::Process& self) {
          serve_neighbour<Worker>(s, self, rank, *nb);
        },
        /*daemon=*/true);
  }
  for (int rank = 0; rank < n; ++rank) {
    nb->workers[static_cast<std::size_t>(rank)] = &s.engine.spawn(
        "worker" + std::to_string(rank), [&s, rank, nb](runtime::Process& self) {
          run_neighbour_worker<Worker>(s, self, rank, *nb);
        });
  }
}

}  // namespace

void launch_neighbour(Session& s) {
  switch (s.cfg.algo) {
    case Algo::gosgd: return launch_exchange<Gossip>(s);
    case Algo::adpsgd: return launch_exchange<PairwiseAverage>(s);
    case Algo::dpsgd: return launch_exchange<RingAverage>(s);
    default: break;
  }
  common::fail("launch_neighbour: not a neighbour-exchange algorithm");
}

}  // namespace dt::core
